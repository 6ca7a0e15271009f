# Convenience targets for the repro library.

.PHONY: install test test-faults bench bench-smoke bench-full serve-smoke serve-scale-smoke serve-chaos-smoke scenario-smoke experiments examples clean docs-check profile lint typecheck check check-tape bench-contract ci

install:
	pip install -e .

test:
	pytest tests/

test-faults:
	pytest tests/test_faults_recovery.py -q

docs-check:
	pytest tests/test_docs_examples.py tests/test_api_quality.py -q

lint:
	python -m repro lint
	python tools/check_mypy.py

typecheck:
	python tools/check_mypy.py

check:
	python -m repro check

# Tape-IR audit smoke: record one forward+backward per zoo model on the
# default preset and gate on zero mutation-hazard (T002) / dead-value (T003)
# findings plus IR-vs-measured byte consistency (T001).
check-tape:
	python -m repro check tape --dataset metr-la-sim

# The repo benchmark's own contract (perfbench/): every workload runs at
# the tiny size, traced and untraced, and its hooks — matmul op counts,
# module scopes, serving spans — must still observe the program.  A src/
# change that breaks them fails here instead of in the next benchmark run.
bench-contract:
	python3 -m pytest perfbench -q

ci: lint docs-check test-faults test bench-smoke serve-smoke serve-scale-smoke serve-chaos-smoke scenario-smoke check-tape bench-contract

profile:
	python -m repro profile --dataset metr-la-sim --model d2stgnn --out benchmarks/results/profile.json

bench:
	pytest benchmarks/ --benchmark-only

# The *-smoke targets run their bench's gates at the tiny profile, which
# writes no result file: tracked records in benchmarks/results/ come from the
# bench/full profiles only.

# Fast-path regression gate at the tiny scale: bit-identity of the backward
# fast paths and the vectorized gather, cheap enough to run on every CI pass.
bench-smoke:
	REPRO_BENCH_PROFILE=tiny pytest benchmarks/bench_train_step.py --benchmark-only -q

# Serving regression gate: replays a request trace through the online
# inference stack and asserts batched forwards are bit-identical to (and at
# least 3x faster than) sequential single-request forwards; every forward,
# batched or single, runs under the NaN/Inf anomaly guard, as in serving.
serve-smoke:
	REPRO_BENCH_PROFILE=tiny pytest benchmarks/bench_serve.py --benchmark-only -q

# Sharded serving gate at the tiny scale: a K=2 loopback run asserting that
# K=1 sharded serving stays bit-identical to the plain engine and that
# scaling is alive; the strict throughput ratios are gated at the bench/full
# profiles, which also write benchmarks/results/serve_scale.json.
serve-scale-smoke:
	REPRO_BENCH_PROFILE=tiny pytest benchmarks/bench_serve_scale.py --benchmark-only -q

# Self-healing gate at the tiny scale: a K=2 process-worker run with a seeded
# mid-run SIGKILL asserting zero unanswered requests, at least one supervised
# restart, and model-tier serving after the supervisor settles; the
# unsupervised arm must stay permanently degraded on the same schedule.
# The bench/full profiles add hang arms and write
# benchmarks/results/serve_chaos.json.
serve-chaos-smoke:
	REPRO_BENCH_PROFILE=tiny pytest benchmarks/bench_serve_chaos.py --benchmark-only -q

# Scenario-engine gate at the tiny scale: the closure-rush event scenario
# (surge + incident + mid-stream road-closure graph rewrite) through K=2
# sharded serving, asserting every request answered, the rewritten adjacency
# published and restored, conditional MAE separating affected from
# unaffected traffic, and quiet-day parity with replay_split; the bench/full
# profiles write benchmarks/results/serve_scenarios.json.
scenario-smoke:
	REPRO_BENCH_PROFILE=tiny pytest benchmarks/bench_serve_scenarios.py --benchmark-only -q

bench-full:
	REPRO_BENCH_PROFILE=full pytest benchmarks/ --benchmark-only

experiments:
	cd benchmarks && python make_experiments_md.py > ../EXPERIMENTS.md

examples:
	python examples/quickstart.py
	python examples/baseline_comparison.py
	python examples/decoupling_analysis.py
	python examples/dynamic_graph_demo.py
	python examples/sensor_outage_robustness.py
	python examples/framework_instantiations.py
	python examples/scenario_shift.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
