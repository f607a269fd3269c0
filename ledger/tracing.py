"""The traced run: per-layer self time, counts, unit costs and spans.

Everything here observes the program from outside: a ``cProfile``
profile bucketed by source file, a counting sink on the public event
bus, public counters, and spans the workloads record around their own
calls into the program.
"""

import collections
import contextlib
import os
import time

from env import SRC

LAYERS = ("crypto", "tls", "tcp", "net", "engine", "drivers", "workload",
          "baselines", "obs", "perf", "ebpf", "other")

#: package directory (relative to ``src/repro``) -> layer; the longest
#: matching prefix wins, so ``core/drivers`` is not ``engine``
_PACKAGE_LAYER = (
    ("core/drivers", "drivers"), ("core", "engine"), ("crypto", "crypto"),
    ("tls", "tls"), ("tcp", "tcp"), ("net", "net"),
    ("workload", "workload"), ("baselines", "baselines"), ("obs", "obs"),
    ("qlog", "obs"), ("perf", "perf"), ("ebpf", "ebpf"),
)
_REPRO = os.path.join(SRC, "repro") + os.sep


def layer_of(filename):
    """The layer a profile frame belongs to, from its file path."""
    if not filename.startswith(_REPRO):
        return "other"
    relative = filename[len(_REPRO):].replace(os.sep, "/")
    for prefix, layer in _PACKAGE_LAYER:
        if relative.startswith(prefix + "/"):
            return layer
    return "other"


def _code_layer(code):
    """Layer of one profile entry's code, or None for a C built-in."""
    return None if isinstance(code, str) else layer_of(code.co_filename)


def bucket_profile(entries):
    """Self seconds per layer from ``cProfile.Profile.getstats()``.

    A Python frame's self time goes to the layer of its file.  A C
    built-in (``pow``, ``blake2s``, ``heappush``, ``sum``) has no file,
    so its time is charged to the layers of its callers in proportion
    to the time spent under each -- otherwise 15-50 % of the wall
    lands in "built-in" and crypto's modexp and hash cost vanishes.
    Returns ``(layer -> seconds, total seconds)``.
    """
    self_time = {}
    callers = collections.defaultdict(dict)   # builtin -> caller -> s
    for entry in entries:
        self_time[entry.code] = entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                under = callers[sub.code]
                under[entry.code] = under.get(entry.code, 0.0) \
                    + sub.inlinetime

    shares_memo = {}

    def shares(code, path=()):
        """layer -> fraction of ``code``'s self time charged to it."""
        layer = _code_layer(code)
        if layer is not None:
            return {layer: 1.0}
        if code in shares_memo:
            return shares_memo[code]
        under = callers.get(code)
        total = sum(under.values()) if under else 0.0
        if code in path or total <= 0.0:
            return {"other": 1.0}
        result = collections.defaultdict(float)
        for caller, seconds in under.items():
            for layer, fraction in shares(caller, path + (code,)).items():
                result[layer] += fraction * seconds / total
        shares_memo[code] = dict(result)
        return shares_memo[code]

    layers = dict.fromkeys(LAYERS, 0.0)
    for code, seconds in self_time.items():
        for layer, fraction in shares(code).items():
            layers[layer] += seconds * fraction
    return layers, sum(self_time.values())


def call_count(entries, path_suffix, name):
    """Calls the profile saw of the function ``name`` defined in the
    program file ending ``path_suffix`` (a public method counted from
    outside, where the program keeps no counter of its own)."""
    suffix = path_suffix.replace("/", os.sep)
    return sum(
        entry.callcount for entry in entries
        if not isinstance(entry.code, str)
        and entry.code.co_name == name
        and entry.code.co_filename.endswith(suffix)
    )


class Spans:
    """Benchmark-level spans ``{id, parent, name, t0, t1}``, kept in
    memory; the traced run writes them out when the workload ends.
    The untraced iterations use the same spans to time their phases."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans) + 1,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "name": name, "t0": time.perf_counter() - self._origin,
                  "t1": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter() - self._origin
            self._open.pop()


_TCP_COUNTERS = ("segments_sent", "retransmissions", "trains_sent",
                 "train_segments_sent")


class Observer:
    """Counting sink for the traced iteration.

    A workload hands it every event bus it creates (``watch_bus``) and,
    for simulated workloads, the simulator and topology
    (``watch_sim``); it counts events by ``(category, name)``, sums the
    few event fields the counts need, and keeps every TCP connection it
    sees opened so their public counters can be read at the end.
    """

    def __init__(self):
        self.events = collections.Counter()
        self.aead_bytes = 0
        self.records_replayed = 0
        self.handshakes = 0
        self.table_peak = 0
        self._buses = []
        self._sims = []
        self._hosts = []
        self._tcp = {}

    def watch_bus(self, bus):
        self._buses.append(bus)
        bus.subscribe(self)

    def watch_sim(self, sim, topo):
        self._sims.append(sim)
        self._hosts += (topo.client, topo.server)
        self.watch_bus(sim.bus)

    def on_event(self, event):
        category, name, data = event.category, event.name, event.data
        self.events[category, name] += 1
        if category == "tls":
            if name in ("record_sealed", "record_opened"):
                self.aead_bytes += data["length"]
        elif category == "tcp":
            # a connection's first transition: it is in its stack's
            # table by now and has not yet been forgotten
            if name == "state_changed" and data["old"] == "CLOSED":
                self._collect_tcp()
        elif category == "session":
            if name == "conn_established" and data["role"] == "client":
                self.handshakes += 1
        elif category == "recovery":
            if name == "replay":
                self.records_replayed += data["records"]
        elif category == "mux":
            self.table_peak = max(self.table_peak, data["table"])

    def _collect_tcp(self):
        """A closed connection leaves its stack's table, so remember
        each one while it is still listed."""
        for host in self._hosts:
            stack = host.stack("tcp")
            if stack is not None:
                for conn in stack.connections():
                    self._tcp[id(conn)] = conn

    def counts(self, tag_trials):
        """The per-layer counts of one traced iteration."""
        n = self.events
        tcp = {name: sum(getattr(conn, name) for conn in self._tcp.values())
               for name in _TCP_COUNTERS}
        return {
            "crypto.aead_bytes": self.aead_bytes,
            "tls.handshakes": self.handshakes,
            "tcp.segments_sent": tcp["segments_sent"],
            "tcp.retransmissions": tcp["retransmissions"],
            "tcp.trains_sent": tcp["trains_sent"],
            "tcp.train_segments_sent": tcp["train_segments_sent"],
            "net.packets_forwarded": n["link", "deliver"],
            "net.packets_dropped": n["link", "drop"],
            "net.train_peels": sum(s.train_peels for s in self._sims),
            "net.heap_compactions": sum(s.compactions for s in self._sims),
            "engine.records_sent": n["tls", "record_sealed"],
            "engine.records_received":
                n["tls", "record_opened"] + n["tls", "record_rejected"],
            "engine.tag_trials": tag_trials,
            "engine.records_replayed": self.records_replayed,
            "engine.failovers": n["recovery", "failover"],
            "drivers.accepts": n["mux", "accept"],
            "drivers.teardowns": n["mux", "teardown"],
            "drivers.table_peak": self.table_peak,
            "drivers.budget_pauses": n["mux", "pause"],
            "workload.objects_completed": n["workload", "object_done"],
            "workload.conns_opened": n["workload", "pool_open"],
            "workload.conns_reused": n["workload", "pool_reuse"],
            "obs.events_emitted":
                sum(bus.events_emitted for bus in self._buses),
        }


def _per(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else 0.0


def unit_costs(layers, counts):
    """Self time per unit of work, and the waste ratios."""
    return {
        "crypto.ns_per_aead_byte":
            _per(layers["crypto"], counts["crypto.aead_bytes"], 1e9),
        "tls.ms_per_handshake":
            _per(layers["tls"], counts["tls.handshakes"], 1e3),
        "tcp.us_per_segment":
            _per(layers["tcp"], counts["tcp.segments_sent"], 1e6),
        "tcp.retransmit_ratio":
            _per(counts["tcp.retransmissions"], counts["tcp.segments_sent"]),
        "tcp.segments_per_train":
            _per(counts["tcp.train_segments_sent"],
                 counts["tcp.trains_sent"]),
        "net.us_per_packet":
            _per(layers["net"], counts["net.packets_forwarded"], 1e6),
        "engine.us_per_record":
            _per(layers["engine"], counts["engine.records_received"], 1e6),
        "engine.tag_trials_per_record":
            _per(counts["engine.tag_trials"],
                 counts["engine.records_received"]),
        "drivers.us_per_session":
            _per(layers["drivers"], counts["drivers.accepts"], 1e6),
        "workload.us_per_object":
            _per(layers["workload"],
                 counts["workload.objects_completed"], 1e6),
        "workload.conn_reuse_ratio":
            _per(counts["workload.conns_reused"],
                 counts["workload.conns_opened"]
                 + counts["workload.conns_reused"]),
    }
