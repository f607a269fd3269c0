"""Topology builders for the evaluation scenarios.

All of the paper's emulated experiments (Secs. 5.3-5.6) run on the same
shape of network: a dual-stack (or n-path) client and server joined by
fully disjoint paths, each path with its own bandwidth and latency.
:func:`build_multipath` constructs that network as a
:class:`MultipathTopology`, whose :class:`~repro.net.scenario.Scenario`
scripts every outage (a :class:`~repro.net.faults.LinkFlap` per link,
attached on first use), spurious RST and loss episode.  The links
carry no middlebox unless a scenario or a test attaches one.
"""

from repro.net.address import IPAddress
from repro.net.host import Host
from repro.net.link import Link, duplex_link
from repro.net.scenario import Scenario


class PathInfo:
    """One disjoint path between the client and server."""

    __slots__ = ("index", "family", "client_addr", "server_addr", "c2s",
                 "s2c")

    def __init__(self, index, family, client_addr, server_addr, c2s, s2c):
        self.index = index
        self.family = family
        self.client_addr = client_addr
        self.server_addr = server_addr
        self.c2s = c2s
        self.s2c = s2c


class MultipathTopology:
    """A client and server joined by ``n`` disjoint paths, with a
    :class:`Scenario` installed on ``sim``.

    Per-path verbs script the adversity families of the evaluation:
    hard outages (flaps), rotating outages (Fig. 9), spurious RSTs
    (Fig. 8) and bursty loss.  All of them delegate to the scenario, so
    every scripted fault is replayed identically under the same
    simulator seed.
    """

    def __init__(self, sim, client, server, paths, scenario=None):
        self.sim = sim
        self.client = client
        self.server = server
        self.paths = paths
        self.scenario = (scenario or Scenario()).install(sim)

    def path(self, index):
        return self.paths[index]

    def path_links(self, index, direction="both"):
        """Links of path ``index``: ``"c2s"``, ``"s2c"`` or ``"both"``."""
        path = self.paths[index]
        if direction == "both":
            return [path.c2s, path.s2c]
        return [getattr(path, direction)]

    def flap_path(self, index, at, duration=None, direction="both"):
        """Scripted outage on path ``index`` starting at ``at`` for
        ``duration`` seconds (``None`` = forever)."""
        end = None if duration is None else at + duration
        for link in self.path_links(index, direction):
            self.scenario.flap_fault(link).add_window(at, end)
        return self

    def set_path_down(self, index, down=True, direction="both"):
        """Immediately force path ``index`` down (or back up)."""
        for link in self.path_links(index, direction):
            self.scenario.flap_fault(link).force(down)
        return self

    def rotate_working(self, period, start=0.0, order=None, until=None):
        """Fig. 9's adversity: exactly one *working* path at a time,
        advancing through ``order`` (default: path order) every
        ``period`` seconds starting at ``start``."""
        order = list(order) if order is not None else [
            p.index for p in self.paths]
        state = {"step": 0}

        def advance():
            working = order[state["step"] % len(order)]
            for path in self.paths:
                self.set_path_down(path.index, path.index != working)
            state["step"] += 1

        self.scenario.at(start).call(advance)
        self.scenario.every(period, start=start + period,
                            until=until).call(advance)
        return self

    def rst_path(self, index, at, direction="s2c", match=None):
        """Arm a one-shot spurious RST on path ``index`` at ``at``;
        returns the injector middlebox."""
        (link,) = self.path_links(index, direction)
        return self.scenario.at(at).rst(link, match=match)

    def burst_loss(self, index, p_gb, p_bg, t0=0.0, t1=None,
                   loss_good=0.0, loss_bad=1.0, seed=None,
                   direction="both"):
        """Gilbert–Elliott bursty loss on path ``index`` during
        ``[t0, t1)``; returns the attached fault objects."""
        faults = []
        for link in self.path_links(index, direction):
            faults.extend(
                self.scenario.between(t0, t1).gilbert(
                    link, p_gb, p_bg, loss_good=loss_good,
                    loss_bad=loss_bad, seed=seed))
        return faults

    def fault_drops(self, index=None):
        """Total fault-layer drops, per path or across the topology."""
        paths = self.paths if index is None else [self.paths[index]]
        total = 0
        for path in paths:
            for link in (path.c2s, path.s2c):
                for reason, n in link.stats.drop_reasons.items():
                    if reason in ("flap", "burst-loss", "corruption"):
                        total += n
        return total


def build_faulty_multipath(sim, scenario=None, **kwargs):
    """:func:`build_multipath` with ``scenario`` (a fresh one by
    default) installed on ``sim``."""
    return build_multipath(sim, scenario=scenario, **kwargs)


class DumbbellTopology:
    """Leaf links feeding shared core links — the fluid population shape.

    ``leaves[i]`` is the access link of flow group ``i``; ``core`` is
    the shared bottleneck every group crosses; ``backup`` (optional) is
    a second core used by failover scenarios after the primary dies.
    The links carry no hosts or sinks: fluid cohorts only consume
    capacities, fault schedules and :class:`~repro.net.link.LinkStats`,
    never packets.
    """

    def __init__(self, sim, leaves, core, backup=None):
        self.sim = sim
        self.leaves = leaves
        self.core = core
        self.backup = backup

    def links(self):
        out = list(self.leaves) + [self.core]
        if self.backup is not None:
            out.append(self.backup)
        return out

    def path(self, leaf_index, via_backup=False):
        """The link list a flow in group ``leaf_index`` crosses."""
        core = self.backup if via_backup else self.core
        return [self.leaves[leaf_index], core]


def build_dumbbell(sim, n_leaves=8, leaf_rate_bps=1_000_000_000,
                   core_rate_bps=10_000_000_000, delay=0.005,
                   leaf_delays=None, backup=False):
    """Build the shared-bottleneck dumbbell used by the 100k-flow fluid
    scenarios (fairness / incast / failover-storm).

    ``leaf_delays`` optionally varies per-leaf one-way delay so RTT
    weighting is observable; ``backup=True`` adds a second core link for
    failover storms.
    """
    leaves = [
        Link(sim, rate_bps=leaf_rate_bps,
             delay=(leaf_delays[i] if leaf_delays else delay),
             name="leaf%d" % i)
        for i in range(n_leaves)
    ]
    core = Link(sim, rate_bps=core_rate_bps, delay=delay, name="core")
    backup_link = None
    if backup:
        backup_link = Link(sim, rate_bps=core_rate_bps, delay=delay,
                           name="core-backup")
    return DumbbellTopology(sim, leaves, core, backup_link)


def build_multipath(sim, n_paths=2, rate_bps=25_000_000, delay=0.010,
                    mtu=1500, queue_bytes=None, families=None,
                    rates=None, delays=None, scenario=None):
    """Build the paper's Mininet-style disjoint-path network.

    Defaults match Sec. 5: each path offers 25 Mbps with 10 ms one-way
    latency.  Path families alternate IPv4 / IPv6 like the paper's
    dual-stack hosts unless ``families`` overrides them.

    Parameters
    ----------
    rates, delays:
        Optional per-path overrides (lists of length ``n_paths``).
    scenario:
        The :class:`Scenario` to install (default: a fresh one).

    Returns a :class:`MultipathTopology`.
    """
    client = Host(sim, "client")
    server = Host(sim, "server")
    paths = []
    for i in range(n_paths):
        family = families[i] if families else (4 if i % 2 == 0 else 6)
        if family == 4:
            c_addr = IPAddress("10.%d.0.1" % i)
            s_addr = IPAddress("10.%d.0.2" % i)
        else:
            c_addr = IPAddress("fd%02x::1" % i)
            s_addr = IPAddress("fd%02x::2" % i)
        rate = rates[i] if rates else rate_bps
        dly = delays[i] if delays else delay
        c2s, s2c = duplex_link(
            sim, client, server, rate_bps=rate, delay=dly,
            queue_bytes=queue_bytes, mtu=mtu, name="path%d" % i,
        )
        c_iface = client.add_interface("c%d" % i, c_addr, tx_link=c2s)
        s_iface = server.add_interface("s%d" % i, s_addr, tx_link=s2c)
        client.add_route(s_addr, c_iface)
        server.add_route(c_addr, s_iface)
        paths.append(PathInfo(i, family, c_addr, s_addr, c2s, s2c))
    return MultipathTopology(sim, client, server, paths, scenario=scenario)
