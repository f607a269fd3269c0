"""The committed matrix envelope (``benchmarks/baselines/BENCH_matrix.json``)
against the spec that produces it and the gate that reads it.

A broken ``matrix_points.py``, a stale envelope, or a gate whose metric
names match nothing a family's rows carry would otherwise only show in
the CI bench jobs.
"""

import json
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import gate             # noqa: E402
import matrix_points    # noqa: E402

ENVELOPE = os.path.join(BENCH_DIR, "baselines", "BENCH_matrix.json")


def test_envelope_rows_are_the_matrix_spec():
    with open(ENVELOPE) as handle:
        rows = {row["name"]: row for row in json.load(handle)["results"]}
    points = {p.name: p for p in matrix_points.default_matrix()}
    assert set(rows) == set(points)
    for name, row in rows.items():
        assert "error" not in row, name
        assert row["axes"] == points[name].axes, name
    name = "fig7/stack=tcpls/mtu=1500/cipher=aes128gcm/recsize=16384/ack=16"
    assert points[name].run() == rows[name]["metrics"]


def test_gate_reaches_every_family_and_names_no_absent_metric():
    rows = gate.load(ENVELOPE)
    gated_by_family = {}
    for name, row in rows.items():
        gated_by_family.setdefault(name.split("/")[0], set()).update(
            row["gated"])
    assert set(gated_by_family) == {"fig7", "fig8", "fig9", "c1m",
                                    "fluid", "pageload"}
    assert all(gated_by_family.values()), gated_by_family
    carried = set().union(*gated_by_family.values())
    assert carried == gate.LOWER_IS_BETTER | gate.HIGHER_IS_BETTER
