"""The paper's claims, each a predicate over named matrix rows.

A claim has an id, the figure or section it cites, the tolerance it
grants, the rows it reads and a predicate.  ``over`` claims read a
fixed list of row names and hold or fail as one; ``each`` claims hold
row by row over every row matching a pattern (``fnmatch``).  Each
comparison states what it holds fixed in its row names -- seed, size,
horizon, outage time -- and the spread it accepts in its tolerance.

``gate.py`` checks every claim after the drift check.  An ``over``
claim is evaluated only when every row it reads is in the run, an
``each`` claim on those of its rows the run has (so a scale row, which
the envelope does not hold, is judged by its family's claim); a
filtered run lists the claims it has no row of as not evaluated.  A
claim that a known defect breaks names those rows in ``KNOWN_WRONG``,
which is strict: a listed row that starts to hold fails the gate too,
so a fix has to delete its entry.
"""

from fnmatch import fnmatchcase


class Claim:
    __slots__ = ("id", "cites", "tolerance", "rows", "holds", "per_row")

    def __init__(self, cid, cites, tolerance, rows, holds, per_row):
        self.id, self.cites, self.tolerance = cid, cites, tolerance
        self.rows, self.holds, self.per_row = tuple(rows), holds, per_row


def over(cid, cites, tolerance, rows, holds):
    """``holds(*metrics)`` over the named rows, in order."""
    return Claim(cid, cites, tolerance, rows, holds, per_row=False)


def each(cid, cites, tolerance, patterns, holds):
    """``holds(metrics)`` for every row whose name matches one of
    ``patterns`` (one pattern or a tuple)."""
    if isinstance(patterns, str):
        patterns = (patterns,)
    return Claim(cid, cites, tolerance, patterns, holds, per_row=True)


def f7(stack, mtu=1500):
    """The Fig. 7 row of a stack at the paper's cell: AES-128-GCM, 16 KiB
    records, a record ACK every 16 records, a 40 Gbps NIC."""
    if stack in ("quicly", "quicly-nogso", "msquic", "mvfst"):
        return "fig7/stack=%s/mtu=%d" % (stack, mtu)
    return "fig7/stack=%s/mtu=%d/cipher=aes128gcm/recsize=16384/ack=16" % (
        stack, mtu)


def f8(proto, outage):
    """Fig. 8's paper cell: 40 MiB, outage on path 0 at t = 3 s."""
    return "fig8/proto=%s/outage=%s/at=3.0" % (proto, outage)


F9 = "fig9/proto=%s/rotate=5.0/paths=4"     # 60 MiB, 120 s horizon
F11 = "fig11/proto=%s"
F13 = "fig13/records=%d"
S45 = "sec45/mode=%s"
S51 = "sec51/buffers=%s"
S52 = "sec52/device=%s"
FRAMING = "ablation/framing=%s"
DEMUX = "ablation/demux=%s/streams=%d"
ACK_EVERY = "ablation/ack_interval=%d"
SCHEDULER = "ablation/scheduler=%s"
RTT = 0.020                                  # sec45's path

#: Fig. 7's calibrated Gbps: (stack, MTU) -> paper
PAPER_GBPS = {
    ("tls-tcp", 1500): 10.3, ("tls-tcp", 9000): 12.6,
    ("tcpls", 1500): 10.8, ("tcpls", 9000): 12.4,
    ("tcpls-failover", 1500): 9.66, ("tcpls-multipath", 1500): 8.8,
    ("quicly", 1500): 4.4, ("msquic", 1500): 1.96,
}

#: Table 1 of the paper, service by service (see table1_features_point)
PAPER_TABLE1 = {
    "tcp": (True, False, False, False, False, False, False),
    "mptcp": (True, False, True, False, False, "partial", True),
    "tls-tcp": (True, True, False, False, False, False, False),
    "quic": (True, True, "partial", True, True, "partial", False),
    "tcpls": (True, True, True, "partial", True, True, True),
}
TABLE1_KEYS = ("reliability", "conf_auth", "failover", "hol_avoidance",
               "streams", "migration", "concurrent_paths")


def _fig9_first(tcpls, mptcp):
    if mptcp["done_at"] is not None:
        return tcpls["done_at"] < mptcp["done_at"]
    return tcpls["bytes_delivered"] > mptcp["bytes_delivered"]


CLAIMS = [
    # -- Table 1 -----------------------------------------------------------
    each("table1.matches-paper", "Table 1", "exact", "table1/*",
         lambda m: tuple(m[k] for k in TABLE1_KEYS)
         == PAPER_TABLE1[m["proto"]]),
    # -- Fig. 7 ------------------------------------------------------------
    over("fig7.calibrated", "Fig. 7", "within 15 % of the paper's Gbps",
         [f7(s, mtu) for s, mtu in PAPER_GBPS],
         lambda *rows: all(abs(row["gbps"] / paper - 1) <= 0.15
                           for row, paper in zip(rows, PAPER_GBPS.values()))),
    over("fig7.tcpls-at-least-tls", "Fig. 7", "TCPLS >= TLS/TCP at 1500",
         [f7("tcpls"), f7("tls-tcp")], lambda a, b: a["gbps"] >= b["gbps"]),
    over("fig7.failover-small-cost", "Fig. 7", "failover > 0.85 x TCPLS",
         [f7("tcpls-failover"), f7("tcpls")],
         lambda a, b: a["gbps"] > 0.85 * b["gbps"]),
    over("fig7.coupling-under-10pc", "Fig. 7", "coupled > 0.9 x failover",
         [f7("tcpls-multipath"), f7("tcpls-failover")],
         lambda a, b: a["gbps"] > 0.9 * b["gbps"]),
    over("fig7.tcpls-twice-quic", "Fig. 7",
         "TCPLS >= 2 x the fastest QUIC at 1500",
         [f7("tcpls"), f7("quicly"), f7("msquic"), f7("mvfst")],
         lambda t, *quic: t["gbps"] >= 2 * max(q["gbps"] for q in quic)),
    over("fig7.quicly-jumbo-slower", "Fig. 7", "quicly 9000 < 1500",
         [f7("quicly", 9000), f7("quicly")],
         lambda a, b: a["gbps"] < b["gbps"]),
    over("fig7.quicly-jumbo-beats-nogso", "Fig. 7",
         "quicly 9000 > quicly without GSO 9000",
         [f7("quicly", 9000), f7("quicly-nogso", 9000)],
         lambda a, b: a["gbps"] > b["gbps"]),
    over("fig7.mvfst-under-msquic", "Fig. 7", "mvfst < msquic at 1500",
         [f7("mvfst"), f7("msquic")], lambda a, b: a["gbps"] < b["gbps"]),
    each("fig7.link-bound", "Fig. 7", "exactly the 1 Gbps link rate",
         "fig7/*/link=1.0", lambda m: m["gbps"] == 1.0),
    # -- Fig. 8 ------------------------------------------------------------
    each("fig8.completes", "Fig. 8", "40 MiB done within 60 s",
         "fig8/*/at=3.0", lambda m: m["done_at"] is not None),
    over("fig8.tcpls-rst-fast", "Fig. 8", "recovery < 0.6 s",
         [f8("tcpls", "rst")], lambda m: m["recovery_s"] < 0.6),
    over("fig8.mptcp-rst-fast", "Fig. 8", "recovery < 1.5 s",
         [f8("mptcp", "rst")], lambda m: m["recovery_s"] < 1.5),
    over("fig8.tcpls-blackhole-uto", "Fig. 8",
         "recovery in [0.25, 1.5] s (UTO 250 ms)",
         [f8("tcpls", "blackhole")],
         lambda m: 0.25 <= m["recovery_s"] <= 1.5),
    over("fig8.mptcp-blackhole-slower", "Fig. 8",
         "MPTCP recovery > TCPLS recovery",
         [f8("mptcp", "blackhole"), f8("tcpls", "blackhole")],
         lambda a, b: a["recovery_s"] > b["recovery_s"]),
    # -- Fig. 9 ------------------------------------------------------------
    each("fig9.tcpls-completes", "Fig. 9", "done within the horizon",
         ("fig9/rotate=*", "fig9/proto=tcpls/*"),
         lambda m: m["done_at"] is not None),
    over("fig9.mptcp-recovers", "Fig. 9",
         "MPTCP finishes after every rotation, however slowly",
         [F9 % "mptcp"], lambda m: m["done_at"] is not None),
    over("fig9.tcpls-first", "Fig. 9",
         "TCPLS done before MPTCP, or more bytes if MPTCP never is",
         [F9 % "tcpls", F9 % "mptcp"], _fig9_first),
    over("fig9.tcpls-stalls-less", "Fig. 9",
         "TCPLS stalled seconds < MPTCP's (goodput < 1 Mbps)",
         [F9 % "tcpls", F9 % "mptcp"],
         lambda a, b: a["stalled_s"] < b["stalled_s"]),
    # -- Fig. 10 -----------------------------------------------------------
    each("fig10.completes", "Fig. 10", "60 MiB done within 240 s",
         "fig10/*", lambda m: m["done_at"] is not None
         and m["bytes_delivered"] == m["size"]),
    each("fig10.two-migrations", "Fig. 10", "exactly two windows",
         "fig10/*", lambda m: m["migrations"] == 2),
    each("fig10.window-peaks", "Fig. 10",
         "each window peaks > 1.1 x one path's rate",
         "fig10/*", lambda m: len(m["window_peak_mbps"]) == 2 and all(
             peak > 1.1 * m["path_mbps"] for peak in m["window_peak_mbps"])),
    each("fig10.sustained-between", "Fig. 10",
         "mean > 0.6 x one path's rate between the windows (if >= 0.5 s)",
         "fig10/*", lambda m: m["between_mbps"] is None
         or m["between_mbps"] > 0.6 * m["path_mbps"]),
    each("fig10.both-paths-carry", "Fig. 10",
         "v4 path > 1/4 and v6 path > 1/8 of the object",
         "fig10/*", lambda m: m["tx_bytes"][0] > m["size"] / 4
         and m["tx_bytes"][1] > m["size"] / 8),
    # -- Fig. 11 -----------------------------------------------------------
    each("fig11.completes", "Fig. 11", "60 MiB done within 120 s",
         "fig11/*", lambda m: m["done_at"] is not None),
    each("fig11.single-path-first", "Fig. 11",
         "18 < mean goodput in [2, 5) s <= 25.5 Mbps",
         "fig11/*", lambda m: 18 < m["before_mbps"] <= 25.5),
    each("fig11.aggregates", "Fig. 11", "aggregated mean > 40 Mbps",
         "fig11/*", lambda m: m["mean_mbps"] > 40),
    over("fig11.mptcp-lags", "Fig. 11",
         "TCPLS mean in [5, 6.5) s > MPTCP's (interface-config delay)",
         [F11 % "tcpls", F11 % "mptcp"],
         lambda a, b: a["ramp_mbps"] > b["ramp_mbps"]),
    over("fig11.tcpls-less-stable", "Fig. 11",
         "TCPLS stddev > MPTCP's (16 KiB vs ~1,460 B reordering unit)",
         [F11 % "tcpls", F11 % "mptcp"],
         lambda a, b: a["stddev_mbps"] > b["stddev_mbps"]),
    # -- Fig. 13 -----------------------------------------------------------
    each("fig13.completes", "Fig. 13", "60 MiB done within 120 s",
         "fig13/*", lambda m: m["done_at"] is not None),
    over("fig13.aggregates", "Fig. 13",
         "mean > 40 Mbps (16 KiB) and > 35 Mbps (1,500 B)",
         [F13 % 16384, F13 % 1500],
         lambda big, small: big["mean_mbps"] > 40
         and small["mean_mbps"] > 35),
    over("fig13.small-records-smoother", "Fig. 13",
         "stddev(1,500 B) < stddev(16 KiB)", [F13 % 1500, F13 % 16384],
         lambda a, b: a["stddev_mbps"] < b["stddev_mbps"]),
    over("fig13.small-records-cost-more", "Fig. 13",
         "modelled sender ns/B(1,500 B) > ns/B(16 KiB)",
         [F13 % 1500, F13 % 16384],
         lambda a, b: a["cpu_ns_per_byte"] > b["cpu_ns_per_byte"]),
    # -- Sec. 4.5 ----------------------------------------------------------
    over("sec45.cold-two-rtt", "Sec. 4.5", "ready within 10 ms of 2 RTT",
         [S45 % "cold"], lambda m: abs(m["ready_s"] - 2 * RTT) < 0.01),
    over("sec45.tfo-ready-sooner", "Sec. 4.5",
         "TFO + 0-RTT ready > 15 ms before cold", [S45 % "tfo", S45 % "cold"],
         lambda a, b: a["ready_s"] < b["ready_s"] - 0.015),
    over("sec45.tfo-request-sooner", "Sec. 4.5",
         "first request > 15 ms before cold's", [S45 % "tfo", S45 % "cold"],
         lambda a, b: a["request_s"] < b["request_s"] - 0.015),
    over("sec45.tfo-request-within-rtt", "Sec. 4.5",
         "first request at the server < 2 RTT after connect()",
         [S45 % "tfo"], lambda m: m["request_s"] < 2 * RTT),
    # -- Sec. 5.1 ----------------------------------------------------------
    over("sec51.buffer-tuning-gain", "Sec. 5.1",
         "tuned receive buffers 25-60 % faster (paper: ~40 %)",
         [S51 % "tuned", S51 % "untuned"],
         lambda tuned, untuned: 0.25 < tuned["gbps"] / untuned["gbps"] - 1
         < 0.60),
    over("sec51.aead-anchors", "Sec. 5.1",
         "AES-128-GCM seals at 13.62 and opens at 24.59 Gbps (+-0.01)",
         ["sec51/aead=aes128gcm"],
         lambda m: abs(m["seal_gbps"] - 13.62) < 0.01
         and abs(m["open_gbps"] - 24.59) < 0.01),
    over("sec51.under-crypto-ceiling", "Sec. 5.1",
         "TLS/TCP at 9,000 B below the AEAD seal rate",
         ["sec51/aead=aes128gcm"],
         lambda m: m["tls_tcp_jumbo_gbps"] < m["seal_gbps"]),
    # -- Sec. 5.2 ----------------------------------------------------------
    over("sec52.no-interference", "Sec. 5.2",
         "TCPLS negotiated and data delivered through each device",
         [S52 % d for d in ("clean-path", "stateful-firewall",
                            "option-stripper", "nat", "resegmenter")],
         lambda *rows: all(m["connected"] and m["tcpls"] and m["data_ok"]
                           for m in rows)),
    over("sec52.proxy-fallback", "Sec. 5.2",
         "connects through the TLS-terminating proxy as plain TLS",
         [S52 % "tls-terminating-proxy"],
         lambda m: m["connected"] and not m["tcpls"]),
    over("sec52.legacy-fallback", "Sec. 5.2",
         "a strict legacy server: explicit fallback, connects as TLS",
         [S52 % "legacy-strict-server"],
         lambda m: m["connected"] and not m["tcpls"] and m["fell_back"]),
    # -- evaluation-grid sentences of EXPERIMENTS.md ---------------------
    each("pageload.completes", "page-load matrix", "every object",
         "pageload/*", lambda m: m["objects_completed"] == m["objects"]),
    over("pageload.tcpls-fastest-clean", "page-load matrix",
         "every TCPLS plt_p50 < every QUIC and MPTCP one on the clean grid"
         " (a simplified QUIC: no ack-delay, pacing or flow control)",
         ["pageload/stack=%s/policy=%s/grid=clean" % (stack, policy)
          for stack in ("tcpls", "quic", "mptcp")
          for policy in ("round-robin", "lowest-rtt", "predictive")],
         lambda *rows: max(m["plt_p50"] for m in rows[:3])
         < min(m["plt_p50"] for m in rows[3:])),
    # -- design ablations (DESIGN.md §4) ----------------------------------
    each("ablation.framing-delivers", "Sec. 3.1", "the payload intact",
         "ablation/framing=*", lambda m: m["payload_ok"]),
    over("ablation.end-of-record-zero-copy", "Sec. 3.1",
         "end-of-record moves 0 payload bytes, header-first all of them",
         [FRAMING % "end-of-record", FRAMING % "header-first"],
         lambda tail, head: tail["bytes_moved"] == 0
         and head["bytes_moved"] == head["record_size"]),
    over("ablation.demux-sequential-cheap", "footnote 2",
         "sequential streams < 1.5 tag trials per record",
         [DEMUX % ("sequential", 4)],
         lambda m: m["trials_per_record"] < 1.5),
    over("ablation.demux-interleaving-costs", "footnote 2",
         "interleaving 4 streams costs more trials than sending them whole",
         [DEMUX % ("interleaved", 4), DEMUX % ("sequential", 4)],
         lambda a, b: a["trials_per_record"] > b["trials_per_record"]),
    over("ablation.demux-more-streams-no-cheaper", "footnote 2",
         "8 interleaved streams >= 0.8 x the trials of 4",
         [DEMUX % ("interleaved", 8), DEMUX % ("interleaved", 4)],
         lambda a, b: a["trials_per_record"]
         >= 0.8 * b["trials_per_record"]),
    each("ablation.ack-interval-completes", "record ACKs (future work)",
         "8 MiB done within 60 s", "ablation/ack_interval=*",
         lambda m: m["done_at"] is not None),
    over("ablation.ack-volume-falls", "record ACKs (future work)",
         "ACK records every 2 > every 16 > every 64 records",
         [ACK_EVERY % 2, ACK_EVERY % 16, ACK_EVERY % 64],
         lambda a, b, c: a["acks_sent"] > b["acks_sent"] > c["acks_sent"]),
    over("ablation.ack-interval-time-flat", "record ACKs (future work)",
         "completion times within 0.5 s of each other",
         [ACK_EVERY % 2, ACK_EVERY % 16, ACK_EVERY % 64],
         lambda *rows: max(m["done_at"] for m in rows)
         - min(m["done_at"] for m in rows) < 0.5),
    each("ablation.schedulers-complete", "record schedulers",
         "8 MiB done within 60 s", "ablation/scheduler=*",
         lambda m: m["done_at"] is not None),
    over("ablation.lowest-rtt-no-later", "record schedulers",
         "lowest-RTT done <= 1.1 x round-robin's time (10 vs 100 ms RTT)",
         [SCHEDULER % "lowest-rtt", SCHEDULER % "round-robin"],
         lambda a, b: a["done_at"] <= b["done_at"] * 1.1),
    each("c1m.table-drains", "C1M serving layer",
         "table_end == 0 and sessions_end == 0", "c1m/*",
         lambda m: m["table_end"] == 0 and m["sessions_end"] == 0),
    each("fluid.completes", "fluid fast-forward", "flows_completed == flows",
         "fluid/*", lambda m: m["flows_completed"] == m["flows"]),
]

#: claim id -> row patterns a known defect breaks (ROADMAP item 1);
#: empty since the last entry, item 1(c)'s ``fig9/rotate=0.35/paths=4``,
#: finished inside its horizon
KNOWN_WRONG = {}


class Outcome:
    """What :func:`evaluate` found: claim ids evaluated and skipped,
    failures as ``(claim, reason, [(row name, entry)])`` and the rows
    still wrong per ``KNOWN_WRONG`` entry, ``{claim id: [row names]}``."""

    def __init__(self):
        self.evaluated, self.skipped, self.failed = [], [], []
        self.known = {}


def _holds(claim, entries):
    if any("error" in entry for entry in entries):
        return False
    try:
        return bool(claim.holds(*[entry["metrics"] for entry in entries]))
    except (KeyError, TypeError, IndexError, ZeroDivisionError):
        return False


def evaluate(rows, names=None, known_wrong=KNOWN_WRONG):
    """Check every claim over ``rows`` ({name: entry with ``metrics`` or
    ``error``}).  ``names`` is every row name the claims may read (the
    envelope's, so that a filtered run shows what it skipped); it
    defaults to the rows themselves."""
    names = sorted(rows if names is None else set(names) | set(rows))
    out = Outcome()
    for claim in CLAIMS:
        if claim.per_row:
            reads = [n for n in names
                     if any(fnmatchcase(n, p) for p in claim.rows)]
            wanted = [n for n in reads if n in rows]
            units = [[n] for n in wanted]
        else:
            reads = wanted = list(claim.rows)
            units = [wanted]
        if not wanted or any(n not in rows for n in wanted):
            out.skipped.append(claim.id)
            continue
        out.evaluated.append(claim.id)
        patterns = known_wrong.get(claim.id, ())
        matched = set()
        for unit in units:
            listed = {p for p in patterns for n in unit if fnmatchcase(n, p)}
            matched |= listed
            holds = _holds(claim, [rows[n] for n in unit])
            if holds and listed:
                out.failed.append((claim, "holds, but KNOWN_WRONG lists it",
                                   [(n, rows[n]) for n in unit]))
            elif not holds and listed:
                out.known.setdefault(claim.id, []).extend(unit)
            elif not holds:
                out.failed.append((claim, "does not hold",
                                   [(n, rows[n]) for n in unit]))
        for pattern in sorted(set(patterns) - matched):
            if not any(fnmatchcase(n, pattern) for n in reads):
                out.failed.append((claim, "KNOWN_WRONG pattern %r matches "
                                          "none of its rows" % pattern, []))
    return out
