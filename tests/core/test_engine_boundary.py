"""Lint: the sans-I/O engine must not reach into the I/O layers.

Walks every module under ``repro.core.engine`` with :mod:`ast` and
rejects any import (top-level *or* nested inside a function) of
``repro.net`` or ``repro.tcp`` -- those belong to drivers.  This is the
acceptance gate for the engine/driver split: the engine only sees the
Transport/Driver interfaces and the clock's ``now``/``schedule``.
"""

import ast
import pathlib
import re

import repro.core.engine

ENGINE_DIR = pathlib.Path(repro.core.engine.__file__).parent
SRC_DIR = ENGINE_DIR.parents[1]     # src/repro
THIS = pathlib.Path(__file__).resolve()
REPO = THIS.parents[2]
FORBIDDEN_PREFIXES = ("repro.net", "repro.tcp")


def _forbidden(name):
    return any(name == prefix or name.startswith(prefix + ".")
               for prefix in FORBIDDEN_PREFIXES)


def _imports_of(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                yield node.module, node.lineno


def test_engine_modules_do_not_import_io_layers():
    offences = []
    for path in sorted(ENGINE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, lineno in _imports_of(tree):
            if _forbidden(module):
                offences.append("%s:%d imports %s"
                                % (path.name, lineno, module))
    assert not offences, (
        "engine modules must stay I/O-agnostic:\n" + "\n".join(offences)
    )


def test_engine_package_is_nonempty():
    modules = list(ENGINE_DIR.glob("*.py"))
    names = {p.stem for p in modules}
    assert {"interfaces", "session", "client", "server", "policy",
            "replay"} <= names


def _identifiers(root):
    """``(path, lineno, name)`` of every definition, attribute, variable,
    argument and imported name in the modules under ``root``."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for field in ("name", "attr", "id", "arg"):
                name = getattr(node, field, None)
                if isinstance(name, str):
                    yield path, getattr(node, "lineno", 0), name


def test_no_segment_train_fork_under_src():
    """One send path: the per-train twin of ``Host.send -> Link.send ->
    Simulator.at`` was deleted and must not grow back."""
    gone = {"send_train", "at_train", "_flush_train", "_fire_train",
            "TrainEvent"}
    offences = ["%s:%d %s" % hit for hit in _identifiers(SRC_DIR)
                if hit[2] in gone]
    assert not offences, "\n".join(offences)


def test_one_clock():
    """Time is one heap: every driver hands the engine a
    :class:`~repro.net.Simulator` whose bus and rng are the driver's,
    no class (nor any other name) ending in ``Clock`` grows back under
    ``src/repro``, and nothing arms a timer through ``call_later``."""
    from repro.core.drivers import SimDriver, SocketDriver, StubDriver
    from repro.net import Simulator

    clocks = ["%s:%d %s" % (path.relative_to(SRC_DIR), lineno, name)
              for path, lineno, name in _identifiers(SRC_DIR)
              if name.endswith("Clock")]
    assert not clocks, clocks
    timers = ["%s:%d" % (path, lineno)
              for path, lineno, line in _lines("src") if "call_later" in line]
    assert not timers, timers

    sockets = SocketDriver()
    try:
        for driver in (SimDriver(Simulator(seed=1), stack=None), sockets,
                       StubDriver()):
            assert type(driver.clock) is Simulator, driver
            assert driver.bus is driver.clock.bus, driver
            assert driver.rng is driver.clock.rng, driver
    finally:
        sockets.close()


def _lines(*tops):
    """``(path, lineno, line)`` of every python source line under the
    repository's ``tops`` directories, this file excepted."""
    for top in tops:
        for path in sorted((REPO / top).rglob("*.py")):
            if path != THIS:
                for lineno, line in enumerate(
                        path.read_text().splitlines(), 1):
                    yield path.relative_to(REPO), lineno, line


def test_one_executor_one_point_list_one_gate():
    """The evaluation stack has one of each: the second executor, the
    second point list and the second gate's option were deleted and
    must not grow back, in code or in prose."""
    gone = ("run_sweep", "default_points", "SweepPoint", "sweep_to_json",
            "sweep_points")
    offences = ["%s:%d %s" % (path, lineno, name)
                for path, lineno, line in _lines("src", "benchmarks", "tests")
                for name in gone if name in line]
    for script, option in (("runner.py", "--matrix"),
                           ("gate.py", "--metric")):
        if option in (REPO / "benchmarks" / script).read_text():
            offences.append("%s defines %s" % (script, option))
    assert not offences, "\n".join(offences)


def test_no_fluid_hooks_in_the_protocol_layers():
    """The fluid model is a cohort-level simulator feature
    (``repro.net.fluid``, ``repro.perf.loadgen``): the TCPLS engine and
    the TCP stack carry no state for it, and the hybrid bridge that once
    needed such state must not grow back anywhere."""
    gone = {"SessionFluidAdapter", "attach_download_fluid",
            "multipath_links_for"}
    protocol = {SRC_DIR / "core", SRC_DIR / "tcp"}
    offences = ["%s:%d %s" % (path, lineno, name)
                for path, lineno, name in _identifiers(SRC_DIR)
                if name in gone or ("fluid" in name.lower()
                                    and protocol & set(path.parents))]
    assert not offences, "\n".join(offences)


def _definitions_containing(kind, predicate):
    """``path:name`` of every ``kind`` (function or class) definition
    under ``src/repro`` with a node satisfying ``predicate`` in it."""
    return {
        "%s:%s" % (path.relative_to(SRC_DIR), definition.name)
        for path in sorted(SRC_DIR.rglob("*.py"))
        for definition in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(definition, kind)
        and any(predicate(node) for node in ast.walk(definition))}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def test_one_way_into_a_session():
    """A connection enters a session through ``TcplsEngine.attach_conn``
    and nowhere else: one function makes a session ready, at most two
    build a ``ConnectionState`` (opened, accepted), the serving layer
    composes the server engine instead of subclassing it, and the
    wrappers and second credential store that stood in for the missing
    unit stay deleted -- in code and in prose."""
    sets_ready = _definitions_containing(ast.FunctionDef, lambda n: (
        isinstance(n, ast.Assign)
        and any(_name(target) == "ready" for target in n.targets)
        and isinstance(n.value, ast.Constant) and n.value.value is True))
    assert sets_ready == {"core/engine/session.py:attach_conn"}

    builds_conn = _definitions_containing(ast.FunctionDef, lambda n: (
        isinstance(n, ast.Call) and _name(n.func) == "ConnectionState"))
    assert len(builds_conn) <= 2, builds_conn

    subclasses = _definitions_containing(ast.ClassDef, lambda n: (
        isinstance(n, ast.ClassDef)
        and any(_name(base) == "TcplsServerEngine" for base in n.bases)))
    assert not subclasses, subclasses

    gone = re.compile(r"\b(CookieCache|_MuxServerEngine|TcplsSession|"
                      r"_BareSimDriver|TcplsServerSession|session_cls|"
                      r"ShardLayout|issued_cookies)\b")
    offences = ["%s:%d %s" % (path, lineno, match.group(0))
                for path, lineno, line in _lines("src", "benchmarks",
                                                 "examples", "tests")
                for match in [gone.search(line)] if match]
    assert not offences, "\n".join(offences)
    for module in ("session", "client", "server"):
        assert not (SRC_DIR / "core" / (module + ".py")).exists()


def _table_names(node):
    """Every ``CTRL_*`` / ``RECORD_TYPE_*`` name compared under ``node``."""
    return {name for sub in ast.walk(node) if isinstance(sub, ast.Compare)
            for part in ast.walk(sub)
            for name in [_name(part)] if isinstance(name, str)
            and name.startswith(("CTRL_", "RECORD_TYPE_"))}


def test_one_table_for_the_control_plane():
    """Record types and CONTROL opcodes are dispatched through one table
    (``TcplsEngine.ROWS``) and decoded by the codecs
    in ``core/record.py``: the engine parses no bytes itself, no
    ``if``/``elif`` chain on a type or opcode grows back, and the rows
    nothing sent stay deleted."""
    offences = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                for name in _table_names(node.test):
                    offences.append("%s:%d compares %s" % (
                        path.relative_to(SRC_DIR), node.lineno, name))
        if ENGINE_DIR in path.parents:
            offences += ["%s:%d imports struct" % (path.name, lineno)
                         for module, lineno in _imports_of(tree)
                         if module == "struct"]
    gone = re.compile(r"\b(CTRL_CONN_CLOSE|CTRL_ENABLE_TCPLS|"
                      r"CTRL_STREAM_CLOSE|encode_stream_close|"
                      r"_handle_inner|_handle_control)\b")
    offences += ["%s:%d %s" % (path, lineno, match.group(0))
                 for path, lineno, line in _lines("src")
                 for match in [gone.search(line)] if match]
    assert not offences, "\n".join(offences)


def _assigned_attributes(tree):
    """``(lineno, attr)`` of every attribute assigned under ``tree``,
    through ``=``, ``+=`` or ``setattr(obj, "name", ...)``, except in a
    property setter (which passes its caller's own assignment on)."""
    setters = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and any(_name(d) == "setter" for d in node.decorator_list)]
    skipped = {id(sub) for setter in setters for sub in ast.walk(setter)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and _name(node.func) == "setattr" \
                and len(node.args) > 1:
            name = node.args[1]
            if not isinstance(name, ast.Constant):
                yield node.lineno, "setattr(<computed name>)"
            else:
                yield node.lineno, name.value
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute):
                    yield sub.lineno, sub.attr


#: what left ``TcplsEngine`` for each collaborator, and may be defined
#: nowhere else under ``core``
MOVED = {
    "pump.py": {"Pump", "UNSENT_TARGET", "run", "write", "drain", "drop",
                "send_typed", "send_control", "_seal_batch", "_conn_budget",
                "_pump_stream", "_pump_group", "_pick_targets",
                "_chunk_size"},
    "failover.py": {"Failover", "maybe_ack", "reack", "send_ack", "fail",
                    "resolve", "_failover_target",
                    "_do_failover", "_migrate", "_replay_unacked",
                    "_has_pending_transfer", "on_ack", "on_sync",
                    "on_enable_failover", "peer_closed", "timed_out"},
    "demux.py": {"Demux", "renew", "candidates", "find", "opened"},
}
#: the engine methods and state that forwarded to, or were, the above
GONE_FROM_ENGINE = {"_pump", "_drain", "_conn_write", "_send_typed",
                    "_send_control", "_maybe_ack", "_send_ack", "_on_ack",
                    "_on_sync", "_on_enable_failover", "_conn_failed",
                    "_abort_conn", "_conn_closed", "_on_user_timeout",
                    "_resolve_pending_failover", "_pending_failover",
                    "transport", "_demux_candidates", "_demux_epoch"}
SESSION_CEILING = 900


def _scoped(tree):
    """``(node, enclosing function names)`` for every node under
    ``tree``, outermost function first."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope += (node.name,)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _defined(node, scope):
    """Names ``node`` defines: a function or class, a module constant,
    or an attribute assigned on ``self``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [_name(t) for t in node.targets
                if (isinstance(t, ast.Name) and not scope) or (
                    isinstance(t, ast.Attribute) and _name(t.value) == "self")]
    return []


def _is_forwarder(function):
    """A method whose body (docstring aside) is one call to a method of
    ``self.pump``, ``self.demux`` or ``self.failover``, passing its own
    arguments on."""
    body = [s for s in function.body if not (
        isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    if len(body) != 1 or not isinstance(body[0], (ast.Expr, ast.Return)):
        return False
    call = body[0].value
    params = [a.arg for a in function.args.args[1:]]
    return (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Attribute)
            and _name(call.func.value.value) == "self"
            and call.func.value.attr in ("pump", "demux", "failover")
            and [_name(a) for a in call.args]
            + [k.arg for k in call.keywords] == params)


def test_engine_is_a_composition_root():
    """The send pump (``engine/pump.py``), the tag-trial demultiplexer
    (``engine/demux.py``) and record-level failover
    (``engine/failover.py``) own what left ``TcplsEngine``: their names
    are defined nowhere else in ``core``, the engine keeps no method
    that only forwards to them, only the pump writes a connection's
    ``pending_out`` queue, only the failure body (``Failover.fail``)
    marks a connection failed, and ``session.py`` stays under its
    ceiling.  The I/O-layer lint above walks every one of their modules."""
    offences = []
    mutators = {"append", "appendleft", "extend", "clear", "pop", "popleft"}
    owner = {name: module for module, names in MOVED.items()
             for name in names}
    for path in sorted((SRC_DIR / "core").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = "%s:%%d" % path.relative_to(SRC_DIR)
        for node, scope in _scoped(tree):
            for name in _defined(node, scope):
                if owner.get(name, path.name) != path.name:
                    offences.append((where + " defines %s") % (
                        node.lineno, name))
                if name in GONE_FROM_ENGINE and path.parent == ENGINE_DIR:
                    offences.append((where + " defines %s again") % (
                        node.lineno, name))
            declaring = scope[-2:] == ("ConnectionState", "__init__")
            targets = [node.func.value] if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in mutators) else []
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets += getattr(node, "targets", None) or [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr in ("pending_out", "pending_out_bytes") \
                        and path.name != "pump.py" and not declaring:
                    offences.append((where + " writes %s") % (
                        node.lineno, target.attr))
                if target.attr == "failed" and isinstance(node, ast.Assign) \
                        and not declaring and scope[-2:] != ("Failover",
                                                             "fail"):
                    offences.append((where + " assigns .failed") %
                                    node.lineno)
    session = ast.parse((ENGINE_DIR / "session.py").read_text())
    offences += ["session.py forwards %s" % node.name
                 for node in ast.walk(session)
                 if isinstance(node, ast.FunctionDef) and _is_forwarder(node)]
    lines = len((ENGINE_DIR / "session.py").read_text().splitlines())
    if lines > SESSION_CEILING:
        offences.append("session.py has %d lines (ceiling %d)"
                        % (lines, SESSION_CEILING))
    linted = {path.name for path in ENGINE_DIR.glob("*.py")}
    offences += ["%s escapes the I/O-layer lint" % module
                 for module in MOVED if module not in linted]
    assert not offences, "\n".join(offences)


def test_one_event_vocabulary():
    """Library code subscribes to :class:`SessionEvent`s: nothing under
    ``core`` or ``qlog`` assigns an application's ``on_<event>`` slot,
    the re-wiring and chaining that did stays deleted, and the two
    workload drivers subscribe once, not in the handlers that ran on
    every join."""
    from repro.core import SessionEvent
    from repro.core.api import TcplsConnection

    slots = {"on_" + event.name.lower() for event in SessionEvent}
    offences = []
    for top in ("core", "qlog"):
        for path in sorted((SRC_DIR / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            offences += ["%s:%d assigns %s" % (
                path.relative_to(SRC_DIR), lineno, attr)
                for lineno, attr in _assigned_attributes(tree)
                if attr in slots or attr.startswith("setattr")]
    gone = {"_wire", "_on_session_ready", "chain", "_notify_drain"}
    offences += ["%s:%d %s" % (path.relative_to(SRC_DIR), lineno, name)
                 for path, lineno, name in _identifiers(SRC_DIR)
                 if name in gone]
    if hasattr(TcplsConnection, "EVENTS"):
        offences.append("TcplsConnection.EVENTS")
    for module, function in (("perf/loadgen.py", "_join"),
                             ("workload/fetchers.py", "on_client_ready")):
        tree = ast.parse((SRC_DIR / module).read_text())
        for definition in ast.walk(tree):
            if isinstance(definition, ast.FunctionDef) \
                    and definition.name == function:
                offences += ["%s:%s registers a handler" % (module, function)
                             for node in ast.walk(definition)
                             if _name(node) == "subscribe"
                             or (_name(node) in slots
                                 and isinstance(node.ctx, ast.Store))]
    assert not offences, "\n".join(offences)
