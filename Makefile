PYTHON ?= python
export PYTHONPATH := src

# Worker processes for the matrix (make bench-matrix JOBS=8).  Output
# is byte-identical for any JOBS value; see repro/perf/matrix.py.
JOBS ?= 1

.PHONY: test test-obs bench bench-check bench-matrix ledger \
        trace-demo loc

test:
	$(PYTHON) -m pytest -x -q

test-obs:
	$(PYTHON) -m pytest -m obs -q

# The pytest benches the matrix does not hold yet (Fig. 12, Sec. 5.1,
# ablations) and the micro hot-path suite.
bench:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q -s --benchmark-only --json BENCH_all.json

# Perf-regression gate: run the micro hot-path suite and fail if any
# benchmark slowed >20% against the committed baseline
# (benchmarks/baselines/BENCH_micro.json; regenerate it with the same
# pytest command when a slowdown is intended).
bench-check:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest bench_micro_hotpaths.py -q -s --benchmark-only --benchmark-disable-gc --benchmark-min-rounds=7 --json BENCH_micro.json
	$(PYTHON) benchmarks/gate.py benchmarks/baselines/BENCH_micro.json benchmarks/BENCH_micro.json $(BENCH_GATE_FLAGS)

# Full experiment matrix (211 scenario x topology x cipher x scheduler
# points, the paper's tables and figures but Fig. 12), sharded over $(JOBS) worker processes, with the
# content-addressed result cache: unchanged points are served from
# .bench_cache (override with --cache-dir or REPRO_BENCH_CACHE), so an
# immediately repeated run is ~100% cache hits and finishes in under a
# second.  Failures are never cached, so re-running this target is how
# an interrupted run resumes and a failed point re-runs.  The gate diffs
# the whole matrix against the committed envelope, grouping regressions
# by axis value, then checks every paper claim of benchmarks/claims.py;
# refresh benchmarks/baselines/BENCH_matrix.json when a drift is intended.
bench-matrix:
	$(PYTHON) benchmarks/runner.py --jobs $(JOBS) \
	    --json benchmarks/BENCH_matrix.json \
	    --stats-json benchmarks/BENCH_matrix.stats.json
	$(PYTHON) benchmarks/gate.py \
	    benchmarks/baselines/BENCH_matrix.json \
	    benchmarks/BENCH_matrix.json

# Wall-clock ledger smoke: one quick cycle of all six workloads (every
# iteration checks its output), then the ledger's own tests.  The
# ledger imports repro.* internals by their public names, so this is
# what notices a rename under it; BENCHMARK.json is its contract.
ledger:
	$(PYTHON) ledger/run.py --quick
	$(PYTHON) -m pytest ledger -q

# Raw and code lines (blank, comment and docstring lines excluded,
# counted with tokenize) per src/repro package; information, not a gate.
loc:
	$(PYTHON) benchmarks/loc.py

# Run the Fig. 8 failover scenario with the full observability stack
# armed and write trace_failover.qlog (inspect with QVIS).
trace-demo:
	$(PYTHON) examples/trace_failover.py trace_failover.qlog
