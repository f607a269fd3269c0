"""Page-load smoke cells under pytest-benchmark.

One scaled-down cell per (stack, policy) pair on the ge-light grid:
deterministic synthetic web pages (dependency graphs of sized objects,
see :mod:`repro.workload`) replayed over TCPLS multipath, QUIC and
MPTCP under a scheduling policy.  The same
:class:`~repro.core.engine.policy.Policy` object that schedules records
inside a coupled group decides which pooled connection carries each
page object, so a cell compares policy quality at page granularity.

The full stack x policy x loss-grid comparison is the ``pageload/*``
family of the experiment matrix (``runner.py --points pageload``),
whose simulated PLT percentiles the gate checks against the committed
envelope; these cells only assert that every page completes and time
the cell for ``make bench``.
"""

import pytest

from repro.perf.pageload import run_pageload_cell

SMOKE_CELLS = [
    ("tcpls", "round-robin"), ("tcpls", "lowest-rtt"),
    ("tcpls", "predictive"), ("quic", "round-robin"),
    ("quic", "predictive"), ("mptcp", "round-robin"),
]


@pytest.mark.workload
@pytest.mark.smoke
@pytest.mark.parametrize("stack,policy", SMOKE_CELLS,
                         ids=["%s-%s" % cell for cell in SMOKE_CELLS])
def test_pageload_smoke(benchmark, stack, policy):
    from conftest import run_once

    metrics = run_once(benchmark, lambda: run_pageload_cell(
        stack=stack, policy=policy, grid="ge-light",
        pages=3, waves=2, n_objects=12, horizon=60.0))
    assert metrics["pages_completed"] == metrics["pages"], \
        "pages stalled: %r" % (metrics,)
