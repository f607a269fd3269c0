"""The committed matrix envelope (``benchmarks/baselines/BENCH_matrix.json``)
against the spec that produces it, the gate that reads it and the
paper's claims (``benchmarks/claims.py``) that judge it.

A broken ``matrix_points.py``, a stale envelope, a gate whose metric
names match nothing a family's rows carry, or a refreshed row that
silently inverts a paper shape would otherwise only show in the CI
bench jobs.
"""

import copy
import json
import os
import random
import sys

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
BENCH_DIR = os.path.join(REPO, "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import claims           # noqa: E402
import gate             # noqa: E402
import matrix_points    # noqa: E402

ENVELOPE = os.path.join(BENCH_DIR, "baselines", "BENCH_matrix.json")


def envelope_rows():
    with open(ENVELOPE) as handle:
        return {row["name"]: row for row in json.load(handle)["results"]}


def family(name):
    return name.split("/", 1)[0]


def test_envelope_rows_are_the_matrix_spec():
    rows = envelope_rows()
    points = {p.name: p for p in matrix_points.default_matrix()}
    assert set(rows) == set(points)
    for name, row in rows.items():
        assert "error" not in row, name
        assert row["axes"] == points[name].axes, name
    name = "fig7/stack=tcpls/mtu=1500/cipher=aes128gcm/recsize=16384/ack=16"
    assert points[name].run() == rows[name]["metrics"]


#: the cheapest rows of every family, with the MPTCP and QUIC stacks
#: (fig10, fig11 and fig13 have no row under 2 s)
ONE_PROCESS_ROWS = (
    "table1/proto=mptcp", "table1/proto=quic",
    "fig7/stack=tcpls/mtu=1500/cipher=aes128gcm/recsize=16384/ack=16",
    "fig7/stack=quicly/mtu=1500",
    "fig8/proto=tcpls/outage=rst/at=0.45",
    "fig8/proto=mptcp/outage=rst/at=0.2",
    "fig9/rotate=0.8/paths=2", "fig10/mib=60", "fig11/proto=tcpls",
    "fig13/records=16384", "sec45/mode=tfo", "sec52/device=nat",
    "sec51/buffers=tuned", "c1m/sessions=120/failover=8",
    "fluid/scenario=incast/flows=2000",
    "pageload/stack=tcpls/policy=round-robin/grid=ge-light",
    "pageload/stack=mptcp/policy=predictive/grid=clean",
    "pageload/stack=quic/policy=lowest-rtt/grid=clean",
    "ablation/demux=interleaved/streams=4",
    "ablation/framing=end-of-record",
)


@pytest.mark.parametrize("seed", [1, 2])
def test_rows_run_one_after_another_in_one_process(seed):
    """Matrix workers live for the whole run, so a row must not depend
    on what its process ran before it: rows of every family, run in one
    process in a seeded shuffle, are the envelope's."""
    assert {family(name) for name in ONE_PROCESS_ROWS} == \
        {family(name) for name in envelope_rows()}
    points = {p.name: p for p in matrix_points.default_matrix()}
    rows = envelope_rows()
    names = list(ONE_PROCESS_ROWS)
    random.Random(seed).shuffle(names)
    for name in names:
        metrics = json.loads(json.dumps(points[name].run()))
        assert metrics == rows[name]["metrics"], name


def test_gate_reaches_every_family_and_names_no_absent_metric():
    """Every family is gated for drift or read by a claim (or both), and
    every metric name the gate knows is carried by some row."""
    rows = gate.load(ENVELOPE)
    gated_by_family = {}
    for name, row in rows.items():
        gated_by_family.setdefault(family(name), set()).update(row["gated"])
    claimed = {family(pattern) for claim in claims.CLAIMS
               for pattern in claim.rows}
    families = {family(p.name) for p in matrix_points.default_matrix()}
    assert set(gated_by_family) == families
    assert {f for f in families
            if not gated_by_family[f] and f not in claimed} == set()
    carried = set().union(*gated_by_family.values())
    assert carried == gate.LOWER_IS_BETTER | gate.HIGHER_IS_BETTER


def test_every_claim_holds_on_the_envelope():
    outcome = claims.evaluate(envelope_rows())
    assert outcome.skipped == []
    assert [(c.id, why) for c, why, _rows in outcome.failed] == []
    assert outcome.evaluated == [claim.id for claim in claims.CLAIMS]
    assert sorted(outcome.known) == sorted(claims.KNOWN_WRONG)


#: family -> (row, metric, value) that inverts a paper shape
INVERSIONS = {
    "table1": ("table1/proto=tcpls", "migration", False),
    "fig7": (claims.f7("tcpls"), "gbps", 1.0),
    "fig8": (claims.f8("tcpls", "blackhole"), "recovery_s", 3.0),
    "fig9": (claims.F9 % "tcpls", "stalled_s", 200.0),
    "fig10": ("fig10/mib=60", "window_peak_mbps", [20.0, 20.0]),
    "fig11": (claims.F11 % "tcpls", "stddev_mbps", 0.1),
    "fig13": (claims.F13 % 1500, "stddev_mbps", 5.0),
    "sec45": (claims.S45 % "tfo", "ready_s", 0.05),
    "sec52": (claims.S52 % "nat", "tcpls", False),
    "c1m": ("c1m/sessions=120/failover=0", "table_end", 3),
    "fluid": ("fluid/scenario=incast/flows=2000", "flows_completed", 1999),
    "pageload": ("pageload/stack=tcpls/policy=round-robin/grid=clean",
                 "plt_p50", 1.0),
    "sec51": (claims.S51 % "untuned", "gbps", 5.0),
    "ablation": (claims.FRAMING % "end-of-record", "bytes_moved", 16384),
}


def test_inversions_cover_every_family():
    assert set(INVERSIONS) == {family(name) for name in envelope_rows()}


@pytest.mark.parametrize("fam", sorted(INVERSIONS))
def test_an_inverted_row_fails_a_claim(fam):
    rows = copy.deepcopy(envelope_rows())
    name, metric, value = INVERSIONS[fam]
    rows[name]["metrics"][metric] = value
    outcome = claims.evaluate(rows)
    failed = [(claim.id, [n for n, _entry in read])
              for claim, _why, read in outcome.failed]
    assert failed and all(name in read for _cid, read in failed), failed
    assert all(cid.startswith(fam + ".") for cid, _read in failed), failed


def test_c1m_claim_fails_on_leaked_sessions():
    """A C1M row that drains its connection table but leaves sessions
    behind fails ``c1m.table-drains`` too."""
    rows = copy.deepcopy(envelope_rows())
    name = "c1m/sessions=120/failover=0"
    assert rows[name]["metrics"]["table_end"] == 0
    rows[name]["metrics"]["sessions_end"] = 3
    outcome = claims.evaluate(rows)
    failed = [(claim.id, [n for n, _entry in read])
              for claim, _why, read in outcome.failed]
    assert [cid for cid, _read in failed] == ["c1m.table-drains"]
    assert name in failed[0][1]


def test_known_wrong_is_strict():
    assert set(claims.KNOWN_WRONG) <= {c.id for c in claims.CLAIMS}
    row = "fig9/rotate=0.35/paths=4"
    listed = dict(claims.KNOWN_WRONG, **{"fig9.tcpls-completes": (row,)})
    outcome = claims.evaluate(envelope_rows(), known_wrong=listed)
    assert [(c.id, why, [n for n, _e in read])
            for c, why, read in outcome.failed] == [
        ("fig9.tcpls-completes", "holds, but KNOWN_WRONG lists it",
         [row])]
    assert outcome.known == {}
    rows = copy.deepcopy(envelope_rows())
    rows[row]["metrics"]["done_at"] = None
    outcome = claims.evaluate(rows, known_wrong=listed)
    assert outcome.failed == []
    assert outcome.known == {"fig9.tcpls-completes": [row]}

    stale = dict(claims.KNOWN_WRONG,
                 **{"fig7.link-bound": ("fig7/stack=mvfst/*",)})
    outcome = claims.evaluate(envelope_rows(), known_wrong=stale)
    assert [(c.id, why) for c, why, _read in outcome.failed] == [
        ("fig7.link-bound",
         "KNOWN_WRONG pattern 'fig7/stack=mvfst/*' matches none of its rows")]


def write(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"results": list(rows.values())}))
    return str(path)


def test_gate_prints_a_failed_claim_with_its_rows(tmp_path, capsys,
                                                 monkeypatch):
    row = "fig9/rotate=0.35/paths=4"
    monkeypatch.setitem(claims.KNOWN_WRONG, "fig9.tcpls-completes", (row,))
    rows = envelope_rows()
    base = write(tmp_path, "base.json", rows)
    bad = copy.deepcopy(rows)
    bad[claims.f8("mptcp", "blackhole")]["metrics"]["recovery_s"] = 0.5
    bad[row]["metrics"]["done_at"] = None
    assert gate.main([base, write(tmp_path, "bad.json", bad)]) == 1
    out = capsys.readouterr().out
    assert "CLAIM FAILED fig8.mptcp-blackhole-slower" in out
    assert claims.f8("tcpls", "blackhole") in out
    assert "known-wrong fig9.tcpls-completes: %s" % row in out
    assert "(1 failed, 1 known-wrong)" in out


def test_filtered_run_lists_the_claims_it_did_not_evaluate(tmp_path, capsys):
    rows = envelope_rows()
    base = write(tmp_path, "base.json", rows)
    fig7 = {n: r for n, r in rows.items() if family(n) == "fig7"}
    assert gate.main([base, write(tmp_path, "fig7.json", fig7)]) == 0
    out = capsys.readouterr().out
    n_fig7 = sum(claim.id.startswith("fig7.") for claim in claims.CLAIMS)
    assert "%d claims evaluated (0 failed, 0 known-wrong), %d not evaluated" \
        % (n_fig7, len(claims.CLAIMS) - n_fig7) in out
    assert "claim not evaluated" in out


def test_one_place_per_claim():
    """A paper experiment runs as a matrix row and its claim lives in
    claims.py: the deleted per-figure pytest modules and their scale and
    trace knobs are named nowhere a reader would look for them."""
    gone = ["bench_%s" % name for name in (
        "fig7_throughput", "fig8_failover", "fig9_outages",
        "fig10_migration", "fig11_aggregation", "fig13_record_size",
        "sec45_establishment", "sec52_middlebox", "table1_features")]
    gone += ["bench_ablations", "bench_sec51_buffers", "bench_c1m"]
    gone += ["REPRO_SCALE", "REPRO_QLOG", "--qlog", "--fluid"]
    paths = [os.path.join(BENCH_DIR, entry)
             for entry in sorted(os.listdir(BENCH_DIR))
             if os.path.isfile(os.path.join(BENCH_DIR, entry))]
    paths += [os.path.join(REPO, doc) for doc in (
        "Makefile", "README.md", "EXPERIMENTS.md", "DESIGN.md",
        os.path.join(".claude", "skills", "verify", "SKILL.md"))]
    found = []
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        found += [(os.path.relpath(path, REPO), word)
                  for word in gone if word in text]
    assert found == []
