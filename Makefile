# Convenience targets for development and reproduction.

PYTHON ?= python

.PHONY: install test bench bench-json bench-cache bench-scale overhead-check chaos spec-overhead-check golden-check report experiments experiments-quick examples clean

install:
	pip install -e . --no-build-isolation || \
	echo "$(CURDIR)/src" > $$($(PYTHON) -c "import site; print(site.getsitepackages()[0])")/repro.pth

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Micro-benchmark results as json, for tracking the perf trajectory
# across PRs (compare BENCH_micro.json mean/ops between revisions).
# pytest-benchmark writes a fresh payload to a temp file; annotate_bench
# folds it into the history-bearing BENCH_micro.json (bounded `history`
# list, schema version, host metadata) so past runs survive re-runs and
# `repro report` can diff the last two entries.
bench-json:
	$(PYTHON) -m pytest benchmarks/test_bench_micro.py --benchmark-only \
		--benchmark-json=BENCH_micro.new.json
	$(PYTHON) benchmarks/annotate_bench.py BENCH_micro.json \
		--payload BENCH_micro.new.json
	rm -f BENCH_micro.new.json

# Result-cache macro-benchmark (docs/CACHE.md): cold vs warm quick
# run-all against a fresh store.  Asserts a fully-warm second pass with
# byte-identical output, a >= 5x warm speedup, and < 2% dispatch
# overhead when the cache is disabled; emits BENCH_runall.json.
bench-cache:
	$(PYTHON) benchmarks/bench_cache.py --assert-warm --assert-speedup 5 \
		--assert-overhead-pct 2 --out BENCH_runall.json

# Scale-backend gate (docs/SCALE.md): the N=10^6 fluid sweep must
# finish under a second, and a sharded N=10^5 DES run over the pool
# must merge byte-identically with the monolithic run and (on
# multi-core hosts) beat it by >= 2x; emits BENCH_scale.json.
bench-scale:
	$(PYTHON) benchmarks/bench_scale.py --assert-fluid-seconds 1 \
		--assert-speedup 2 --assert-identical --out BENCH_scale.json

# CI gate: tracing+span hooks must cost < 3% on the kernel when
# disabled, and the sampling profiler < 10% when enabled.
overhead-check:
	$(PYTHON) benchmarks/overhead_check.py --assert-pct 3 \
		--assert-enabled-pct 10

# Property-based chaos smoke (docs/SPEC.md): hypothesis-generated fault
# schedules run with live invariant checking; the fixed seed makes the
# report byte-identical across runs, shrinking pins any failure to a
# minimal schedule.
chaos:
	PYTHONPATH=$(CURDIR)/src $(PYTHON) -m repro chaos --runs 20 --seed 0 --jobs 2

# CI gate: live invariant checking (CheckingSink) must add < 5% to a
# traced quick run-all (docs/SPEC.md "Overhead").
spec-overhead-check:
	$(PYTHON) benchmarks/spec_overhead_check.py --assert-pct 5

# Read-only golden check: recompute every experiment render and both
# fan-out digests at the committed seeds and compare them with
# benchsuite/golden.json, which this never writes (`suite.py
# update-golden` is its only writer).  Exits 1 on any mismatch.
golden-check:
	PYTHONPATH=$(CURDIR)/src:$(CURDIR)/benchsuite $(PYTHON) -c "import sys, workloads as w; \
	want = w.load_golden(); got = w.golden_digests(want['seeds']); \
	bad = [(part, name, seed) for part in ('experiments', 'fanout') \
	       for name in sorted(set(want[part]) | set(got[part])) \
	       for seed in range(want['seeds']) \
	       if (want[part].get(name) or [None] * want['seeds'])[seed] \
	       != (got[part].get(name) or [None] * want['seeds'])[seed]]; \
	[print('MISMATCH', *row) for row in bad]; \
	print('golden-check:', 'FAIL' if bad else 'ok', len(bad), 'mismatches'); \
	sys.exit(1 if bad else 0)"

# Cross-run regression report: diffs results/*/telemetry.json and the
# BENCH_*.json history against the previous snapshot (docs/SPANS.md).
report:
	PYTHONPATH=$(CURDIR)/src $(PYTHON) -m repro report

experiments:
	$(PYTHON) -m repro.experiments

experiments-quick:
	$(PYTHON) -m repro.experiments --quick

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis .benchmarks
