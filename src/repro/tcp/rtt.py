"""RTT estimation and retransmission timeout per RFC 6298."""


class RttEstimator:
    """Tracks SRTT/RTTVAR and derives the RTO."""

    K = 4
    ALPHA = 1 / 8
    BETA = 1 / 4
    MIN_RTO = 0.2     # Linux uses 200 ms rather than RFC's 1 s
    MAX_RTO = 60.0
    INITIAL_RTO = 1.0
    CLOCK_GRANULARITY = 0.001

    def __init__(self):
        self.srtt = None
        self.rttvar = None
        self.min_rtt = float("inf")
        self.latest_rtt = None
        self.samples = 0
        #: current retransmission timeout; read on every timer arm,
        #: so kept as a value that :meth:`on_sample` alone moves.
        self.rto = self.INITIAL_RTO

    def on_sample(self, rtt):
        """Feed one RTT measurement (seconds)."""
        if rtt <= 0:
            return
        self.latest_rtt = rtt
        self.min_rtt = min(self.min_rtt, rtt)
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(
                self.srtt - rtt
            )
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        rto = self.srtt + max(self.CLOCK_GRANULARITY, self.K * self.rttvar)
        self.rto = min(max(rto, self.MIN_RTO), self.MAX_RTO)
