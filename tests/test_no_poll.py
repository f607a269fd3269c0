"""Lint: protocol code reacts to events; it does not poll.

Walks every module of the protocol packages (``tcp``, ``core``, ``tls``,
``baselines``) with :mod:`ast` and rejects a function that hands itself
to ``schedule``/``at`` -- a timer that re-arms itself on a grid whether
or not anything happened.  A timeout is a ``Simulator.timer`` armed at
its deadline, and a check runs when the event that can change its answer
does.  Scenario scripting (``Scenario.every``) and ``run_until``'s
predicate probe live in ``repro.net`` and are not protocol code.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
PROTOCOL_PACKAGES = ("tcp", "core", "tls", "baselines")
SCHEDULERS = ("schedule", "at")


def _names(node):
    """Every bare name and attribute name ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _self_schedulers(tree):
    """``(lineno, name)`` of each function that passes itself to a
    ``schedule``/``at`` call in its own body."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in SCHEDULERS
                    and any(func.name in _names(arg) for arg in call.args)):
                yield call.lineno, func.name
                break


def _protocol_modules():
    for package in PROTOCOL_PACKAGES:
        yield from sorted((SRC / package).rglob("*.py"))


def test_no_protocol_function_reschedules_itself():
    offences = [
        "%s:%d %s" % (path.relative_to(SRC), lineno, name)
        for path in _protocol_modules()
        for lineno, name in _self_schedulers(
            ast.parse(path.read_text(), str(path)))
    ]
    assert offences == [], (
        "self-rescheduling polls in protocol code:\n" + "\n".join(offences))


def test_the_lint_sees_a_poll():
    poll = ast.parse(
        "class C:\n"
        "    def _tick(self):\n"
        "        self.sim.schedule(0.1, self._tick)\n"
        "    def once(self):\n"
        "        self.sim.at(1.0, self._tick)\n")
    assert list(_self_schedulers(poll)) == [(3, "_tick")]
