"""Churn/soak run of the C1M load generator (:mod:`repro.perf.loadgen`).

A 2k-session simulated run with joins, a scripted path outage
(failovers) and close/reconnect churn must finish clean -- every
transfer delivered, every session torn down, the mux table empty --
and be **bit-deterministic**: two runs of the same configuration
produce byte-identical aggregate counters.

Marked ``smoke``: this is the heavyweight scenario tier.
"""

import json

import pytest

from repro.perf.loadgen import run_shard

pytestmark = pytest.mark.smoke

CONFIG = dict(sessions=2000, seed=42, failover_sessions=16)


def test_churn_soak_2k_sessions_deterministic():
    first = run_shard(**CONFIG)
    second = run_shard(**CONFIG)

    # Byte-identical aggregate counters across runs.
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)

    # Clean finish: everything started became ready, transferred and
    # tore down; churn replaced a quarter of the population.
    assert first["started"] == first["ready"] == 2500
    assert first["closed"] == 2500
    assert first["transfers_completed"] == 2500 + 16   # failover extras
    assert first["peak_concurrent_sessions"] == 2000
    assert first["failovers"] == 16
    assert first["joins_completed"] > 0

    # No leaks: table and session map returned to zero, every accept
    # was torn down, every session retired.
    assert first["table_end"] == 0
    assert first["sessions_end"] == 0
    assert first["accepts"] == first["teardowns"]
    assert first["retired"] == 2500

    # The latency envelope is populated and sane: psk_ke handshakes
    # stay in the RTT neighbourhood even at the ramp peak.
    assert first["handshake_latency"]["count"] == 2500
    assert 0 < first["handshake_latency"]["p99"] < 0.1
    assert first["transfer_latency"]["p99"] > 0
