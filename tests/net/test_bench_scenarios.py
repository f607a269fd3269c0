"""Scenario smoke runs of the Fig. 8 / Fig. 9 matrix points.

Runs the two outage points in fast mode (1 MiB transfers, outages
pulled forward) so a regression in the scenario plumbing fails loudly
in the ordinary test suite, and asserts the acceptance criterion for
the fault layer: identical seeds produce identical metrics -- goodput
series digest, completion time and delivered bytes -- across two runs
of the same scripted outage.

Select just these (plus the rest of the fault suite) with
``pytest -m faults``; ``-m smoke`` narrows to the scenario runs alone.
"""

import os
import sys

import pytest

pytestmark = [pytest.mark.faults, pytest.mark.smoke]

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

from matrix_points import fig8_matrix_point, fig9_rotation_point  # noqa: E402

SMOKE_SIZE = 1 << 20


def twice(fn, **kwargs):
    return [fn(**kwargs) for _ in range(2)]


def test_fig8_blackhole_scenario_is_deterministic():
    runs = twice(fig8_matrix_point, proto="tcpls", outage="blackhole",
                 outage_at=0.3, size=SMOKE_SIZE)
    assert runs[0] == runs[1]
    assert runs[0]["done_at"] > 0.3     # the outage bit mid-run
    assert runs[0]["bytes_delivered"] == SMOKE_SIZE


def test_fig8_rst_scenario_is_deterministic():
    runs = twice(fig8_matrix_point, proto="tcpls", outage="rst",
                 outage_at=0.3, size=SMOKE_SIZE)
    assert runs[0] == runs[1]
    assert runs[0]["done_at"] is not None


def test_fig8_mptcp_scenario_is_deterministic():
    runs = twice(fig8_matrix_point, proto="mptcp", outage="blackhole",
                 outage_at=0.3, size=SMOKE_SIZE)
    assert runs[0] == runs[1]


def test_fig9_rotating_outage_scenario_is_deterministic():
    runs = twice(fig9_rotation_point, rotate_every=1.0,
                 size=4 * SMOKE_SIZE, horizon=20.0)
    assert runs[0] == runs[1]
    assert runs[0]["bytes_delivered"] >= 4 * SMOKE_SIZE   # completed
    assert runs[0]["done_at"] > 1.0     # survived >= 1 rotation
