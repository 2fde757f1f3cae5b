# Developer entry points. Everything is pure Python; no build step.

PYTHON ?= python

.PHONY: install test bench examples quicktest lint staticcheck-cache \
	staticcheck-fixtures staticcheck-fix autogen-check fuzz fuzz-smoke \
	perfbench perfbench-pr8 perfbench-compare replay-smoke obs-smoke obs-overhead chaos-smoke \
	sweep sweep-smoke layerbench-test layerbench-smoke layerbench-trace-smoke \
	layerbench-ab clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

quicktest:
	$(PYTHON) -m pytest tests/ -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Static analysis (docs/analysis-tools.md): one whole-program run of
# every rule (the AST rules: typed errors, PM write discipline,
# determinism, ...; the flow rules: persist-order dominance, determinism
# taint, PM-escape) against the committed baseline.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck src/repro

# Summary-cache drill: a cold whole-program run followed by a warm one.
# The warm run must analyze zero modules and produce byte-identical
# findings JSON, or the summary cache is broken.
staticcheck-cache:
	rm -rf /tmp/staticcheck-cache-drill
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck \
		--cache-dir /tmp/staticcheck-cache-drill --no-baseline \
		--format json src/repro > /tmp/staticcheck-cold.json; \
		test $$? -eq 1
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck \
		--cache-dir /tmp/staticcheck-cache-drill --no-baseline \
		--format json src/repro 2>/tmp/staticcheck-warm.log \
		> /tmp/staticcheck-warm.json; test $$? -eq 1
	grep -q "re-analyzed 0/" /tmp/staticcheck-warm.log
	cmp /tmp/staticcheck-cold.json /tmp/staticcheck-warm.json

# Fixture self-test: each seeded-violation package must still exit 1
# (findings), or an analysis has gone blind.
staticcheck-fixtures:
	@for pkg in structures taint escape; do \
		rc=0; \
		PYTHONPATH=src $(PYTHON) -m repro.staticcheck --no-cache \
			--no-baseline tests/fixtures/staticcheck/$$pkg || rc=$$?; \
		if [ "$$rc" -ne 1 ]; then \
			echo "fixture $$pkg: expected exit 1 (findings), got $$rc" >&2; \
			exit 1; \
		fi; \
	done

# Auto-fix round trip: copy the seeded persist-order fixture into a
# scratch tree, preview the fix as a diff, apply it, check the tree
# comes back clean, and check a second run is a byte-level no-op (the
# idempotence guarantee).
FIXTREE = /tmp/staticcheck-fixtree
staticcheck-fix:
	rm -rf $(FIXTREE) && mkdir -p $(FIXTREE)/structures
	cp tests/fixtures/staticcheck/structures/*.py $(FIXTREE)/structures/
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck --no-baseline \
		--fix-diff $(FIXTREE) | tee $(FIXTREE)-preview.patch
	test -s $(FIXTREE)-preview.patch
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck --no-baseline \
		--fix $(FIXTREE)
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck --no-baseline \
		--select persist-order $(FIXTREE)
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck --no-baseline \
		--fix-diff $(FIXTREE) > $(FIXTREE)-second-run.patch
	@if [ -s $(FIXTREE)-second-run.patch ]; then \
		echo "fixer is not idempotent:" >&2; \
		cat $(FIXTREE)-second-run.patch >&2; \
		exit 1; \
	fi

# The committed generated backend (repro/baselines/_autopass_gen.py)
# must be byte-identical to a fresh regeneration by the fixer.
autogen-check:
	PYTHONPATH=src $(PYTHON) -m repro.staticcheck.autogen --check

# Crash-consistency fuzzing (crash point x fault plan x structure); see
# docs/faults.md. `fuzz` is the full seeded sweep, `fuzz-smoke` a fast
# fixed-seed subset suitable for CI. SANITIZE=1 attaches PaxSan, the
# dynamic persist-order checker, to every iteration.
SANITIZE ?= 0
ifeq ($(SANITIZE),1)
FUZZ_FLAGS = --sanitize
else
FUZZ_FLAGS =
endif

fuzz:
	PYTHONPATH=src $(PYTHON) -m repro.crashtest.fuzz --iterations 500 --seed 1234 $(FUZZ_FLAGS)
	PYTHONPATH=src $(PYTHON) -m repro.crashtest.fuzz --target autopass --sanitize --iterations 500 --seed 1234 --progress 0

fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.crashtest.fuzz --iterations 50 --seed 7 --progress 0 $(FUZZ_FLAGS)
	PYTHONPATH=src $(PYTHON) -m repro.crashtest.fuzz --target autopass --sanitize --iterations 50 --seed 7 --progress 0

# Wall-clock performance of the simulator itself (not simulated time);
# see docs/performance.md. `perfbench` regenerates the committed
# baseline BENCH_PR3.json; `perfbench-compare` grades a fresh run
# against it and fails on >30% throughput regression or any simulated-
# time drift.
perfbench:
	PYTHONPATH=src $(PYTHON) -m repro.perfbench --out BENCH_PR3.json

# Both engines (access + trace replay); regenerates the committed
# replay-era baseline. BENCH_PR3.json stays access-only on purpose so
# the PR3 comparison keeps its original shape.
perfbench-pr8:
	PYTHONPATH=src $(PYTHON) -m repro.perfbench --engine access,replay --repeats 3 --out BENCH_PR8.json

perfbench-compare:
	PYTHONPATH=src $(PYTHON) -m repro.perfbench --out /tmp/perfbench-current.json --compare BENCH_PR3.json

# Trace record/replay smoke (docs/performance.md, "Trace replay"):
# record a fixed-seed perfbench cell, replay it through both engines,
# and fail unless fingerprints and the recorded sim_ns all agree.
replay-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.replay record --workload store_heavy \
		--backend pax --ops 4000 --records 800 --seed 7 --out /tmp/replay-smoke.trace
	PYTHONPATH=src $(PYTHON) -m repro.replay info /tmp/replay-smoke.trace
	PYTHONPATH=src $(PYTHON) -m repro.replay verify /tmp/replay-smoke.trace

# Observability (docs/observability.md): `obs-smoke` traces a fixed-seed
# perfbench microworkload, summarizes it, and schema-checks the Chrome
# trace export; `obs-overhead` asserts the tracing-off overhead budget
# and that tracing never moves simulated time.
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.perfbench --ops 2000 --records 400 \
		--workloads store_heavy,mixed --backends pax,pmdk \
		--out /tmp/obs-smoke.json --trace /tmp/obs-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs summarize /tmp/obs-trace.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs convert /tmp/obs-trace.jsonl --to chrome -o /tmp/obs-trace.json
	PYTHONPATH=src $(PYTHON) -m repro.obs validate /tmp/obs-trace.json

obs-overhead:
	PYTHONPATH=src $(PYTHON) -m repro.obs overhead

# Chaos drill (docs/serving.md): live YCSB traffic through the serving
# harness with 10 mid-traffic crash/recover cycles and a link storm,
# PaxSan attached and events traced. Fails on any lost acknowledged
# write, sanitizer finding, or recovery-deadline breach; the Prometheus
# exposition and JSON record land in /tmp for artifact upload.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve --clients 4 --ops 200 \
		--crashes 10 --storms 2 --seed 42 --deadline-ns 50000000 \
		--sanitize --trace /tmp/chaos-trace.jsonl \
		--metrics /tmp/chaos-metrics.prom --json /tmp/chaos-drill.json

# Experiment grids (docs/experiments.md): a declarative spec expands to
# a backend x workload x mechanism x LLC-size matrix, run record-once/
# replay-many with every replayed cell fingerprint-verified against the
# per-access engine. Both targets exit nonzero on any fingerprint
# mismatch. `sweep` reproduces the full paper grid into SWEEP.json;
# `sweep-smoke` is the reduced deterministic CI grid, whose report is
# byte-identical across same-seed reruns.
sweep:
	PYTHONPATH=src $(PYTHON) -m repro.sweep specs/full-grid.toml \
		--out SWEEP.json --markdown SWEEP.md

sweep-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.sweep specs/smoke-grid.toml \
		--out sweep-smoke.json --markdown sweep-smoke.md

# The repository benchmark (layerbench/README.md, BENCHMARK.json):
# `layerbench-test` runs its own unit tests, `layerbench-smoke` runs all
# three workloads for 0.5 s each with the correctness gate on, and fails
# on any wrong result or failed operation. `layerbench-trace-smoke` adds
# the traced pass, which also fails when its simulated results differ
# from the untraced run's.
layerbench-test:
	$(PYTHON) -m pytest -q layerbench/test_layerbench.py

layerbench-smoke:
	$(PYTHON) layerbench/run.py --workload all --seconds 0.5 --trace 0

layerbench-trace-smoke:
	$(PYTHON) layerbench/run.py --workload all --seconds 0.5 --trace 1

# A/B against a git ref (benchmarks/layerbench_ab.py): exports REF with
# git archive into a temporary directory, alternates base and change runs
# one at a time, and prints each end-to-end metric's median, IQR and win
# count.
REF ?= HEAD
WORKLOAD ?= pax_spill
PAIRS ?= 5
SEED ?= 1
AB_SECONDS ?= 10
layerbench-ab:
	$(PYTHON) benchmarks/layerbench_ab.py --ref $(REF) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED) --seconds $(AB_SECONDS)

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis examples/ht.pool
	find . -name __pycache__ -type d -exec rm -rf {} +
