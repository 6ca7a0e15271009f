"""Serving throughput — the regression gate for the micro-batching engine.

Measures the one claim the serving subsystem stands on: coalescing requests
into a batched forward beats serving them one at a time.  Sixteen distinct
request windows from the metr-la-sim tail are served twice through the same
:class:`~repro.serve.MicroBatcher` — sequentially (sixteen batch-1 forwards)
and coalesced (one batch-16 forward) — and the coalesced leg must be at
least 3x faster *and* bit-identical per request (a batched numpy matmul
against 2-D weights is the same per-sample GEMMs stacked, so batching is
exact, not approximate).

The same sixteen batch-1 forwards are also timed under
:func:`~repro.check.detect_anomaly`, in alternated best-of legs, against
``run_batch``: the batcher checks each batch once and re-runs only a
failed one under the per-op guard, so its forward must never lose to the
guarded one (ratio ≥ 0.85, the margin for noise on a shared host).
A fourth alternated leg serves each request twice, as a batch-1
``run_batch`` and then as a lone ``submit().result()`` through the
batcher's worker thread: with nothing else queued, the median lone submit
must cost no more than its ``run_batch`` forward plus 1 ms
(``submit_overhead_ms``), so no straggler timer holds it.  Each pair runs
back to back, so a burst of load on the host lands on both sides of its
difference.

A full-stack replay through :class:`~repro.serve.ServingEngine` then
records end-to-end latency percentiles, cache hit counters and a forced
outage-degradation, landing in ``benchmarks/results/serve.json``.  The CLI
equivalent for one-off runs is ``repro serve``.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import get_data, profile, profile_name, save_results
from repro.check import detect_anomaly
from repro.models import build_model
from repro.serve import (
    ForecastRequest,
    MicroBatcher,
    ModelRegistry,
    ServeConfig,
    ServingEngine,
    SlidingWindowStore,
    make_servable,
    replay_split,
)
from repro.utils.seed import set_seed
from repro.utils.timer import now

MODEL = "D2STGNN"
DATASET = "metr-la-sim"
BATCH = 16
TIMING_ROUNDS = 3
REPLAY_STEPS = 12
# The batch-level check must not lose to the per-op guard it replaces;
# below 1.0 only by the noise margin of bench_train_step.py's gate.
GUARD_RATIO_MIN = 0.85
# A lone submit pays the hand-off to the batcher's thread, not a wait.
SUBMIT_OVERHEAD_MAX_MS = 1.0
REQUESTS_PER_STEP = 4


def _distinct_requests(data, history: int, count: int) -> list[ForecastRequest]:
    """``count`` distinct request windows from the tail of the series."""
    series = data.dataset.series
    values, tod, dow = series.values, series.time_of_day, series.day_of_week
    total = values.shape[0]
    requests = []
    for index in range(count):
        start = total - history - count + index
        window = data.scaler.transform(values[start : start + history])
        requests.append(
            ForecastRequest(
                x=window[None, :, :, None],
                tod=tod[start : start + history][None, :].astype(np.int64),
                dow=dow[start : start + history][None, :].astype(np.int64),
            )
        )
    return requests


def _bench_microbatch(registry, requests) -> dict:
    """Sequential batch-1 forwards vs one coalesced forward, same batcher."""
    batcher = MicroBatcher(registry.resolve, max_batch=BATCH)

    sequential_outputs = [batcher.run_batch([request])[0][0] for request in requests]
    batched_outputs, _ = batcher.run_batch(requests)
    identical = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(sequential_outputs, batched_outputs)
    )

    _, model, _ = registry.resolve()

    def guarded(request):
        with model.inference(), detect_anomaly():
            return model(request.x, request.tod, request.dow)

    submit_overheads = []

    def lone_submit_overhead(request):
        begin = now()
        batcher.run_batch([request])
        middle = now()
        batcher.submit(request).result()
        submit_overheads.append((now() - middle) - (middle - begin))

    legs = {
        "sequential": lambda: [batcher.run_batch([request]) for request in requests],
        "batched": lambda: batcher.run_batch(requests),
        "guarded_sequential": lambda: [guarded(request) for request in requests],
        "lone_submit": lambda: [lone_submit_overhead(request) for request in requests],
    }
    best = dict.fromkeys(legs, float("inf"))
    try:
        for _ in range(TIMING_ROUNDS):  # alternated, so drift loads every leg alike
            for name, run in legs.items():
                begin = now()
                run()
                best[name] = min(best[name], now() - begin)
    finally:
        batcher.stop()
    return {
        "batch_size": len(requests),
        "bitwise_identical": identical,
        "sequential_ms": best["sequential"] * 1000.0,
        "batched_ms": best["batched"] * 1000.0,
        "speedup": best["sequential"] / best["batched"],
        "guarded_sequential_ms": best["guarded_sequential"] * 1000.0,
        "guard_ratio": best["guarded_sequential"] / best["sequential"],
        "submit_overhead_ms": float(np.median(submit_overheads)) * 1000.0,
    }


def _bench_engine(data, registry, bundle) -> dict:
    """Full-stack replay: latency percentiles, cache and fallback counters."""
    store = SlidingWindowStore.for_bundle(bundle)
    with ServingEngine(registry, store, ServeConfig(max_wait_s=0.001)) as engine:
        summary = replay_split(
            engine, data, steps=REPLAY_STEPS, requests_per_step=REQUESTS_PER_STEP
        )
        # Force the degradation path: a full window of zero-coded outage
        # rows pushes outage_fraction to 1.0, above any sane threshold.
        last_tod, last_dow = store.last_time()
        dark = np.zeros(store.num_nodes, dtype=np.float32)
        for step in range(store.history):
            engine.observe(dark, (last_tod + 1 + step) % bundle.spec.steps_per_day, last_dow)
        outage_result = engine.forecast()
        telemetry = engine.telemetry_report()
    return {
        "replay": {key: summary[key] for key in ("steps", "requests", "sources", "fallback_reasons")},
        "outage_source": outage_result.source,
        "outage_reason": outage_result.reason,
        "telemetry": {
            key: telemetry[key]
            for key in (
                "requests", "batches", "mean_batch_size",
                "latency_ms_p50", "latency_ms_p95", "latency_ms_p99",
                "queue_depth_max", "cache_hits", "cache_misses",
                "cache_hit_rate", "fallbacks", "fallback_reasons",
                "served_by_model", "served_by_cache", "active_version",
            )
        },
    }


def test_serve_throughput(benchmark):
    data = get_data(DATASET)
    p = profile()
    set_seed(0)
    model, _ = build_model(MODEL, data, hidden=p.hidden_dim, layers=p.num_layers)
    bundle = make_servable(
        MODEL, model, data, hidden=p.hidden_dim, layers=p.num_layers
    )
    registry = ModelRegistry()
    registry.publish(bundle)
    requests = _distinct_requests(data, bundle.spec.history, BATCH)

    def run():
        return {
            "microbatch": _bench_microbatch(registry, requests),
            "engine": _bench_engine(data, registry, bundle),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    m = results["microbatch"]
    t = results["engine"]["telemetry"]
    print(f"\n=== Serving throughput ({MODEL} on {DATASET}, {profile_name()} profile) ===")
    print(f"micro-batch: {m['sequential_ms']:.2f} ms sequential vs "
          f"{m['batched_ms']:.2f} ms batched at batch {m['batch_size']} "
          f"(x{m['speedup']:.2f}, bit-identical: {m['bitwise_identical']})")
    print(f"batch check: {m['sequential_ms']:.2f} ms vs {m['guarded_sequential_ms']:.2f} ms "
          f"under the per-op guard (x{m['guard_ratio']:.2f})")
    print(f"lone submit: {m['submit_overhead_ms']:+.3f} ms over its batch-1 run_batch "
          f"(median of {TIMING_ROUNDS * m['batch_size']} back-to-back pairs)")
    print(f"engine:      p50 {t['latency_ms_p50']:.2f} / p95 {t['latency_ms_p95']:.2f} / "
          f"p99 {t['latency_ms_p99']:.2f} ms, cache hit rate {t['cache_hit_rate']:.2f}, "
          f"fallbacks {t['fallbacks']} {t['fallback_reasons']}")

    assert m["bitwise_identical"], "batched forward diverged from single-request forwards"
    assert m["speedup"] >= 3.0, f"micro-batching speedup x{m['speedup']:.2f} below the 3x gate"
    assert m["guard_ratio"] >= GUARD_RATIO_MIN, (
        f"batch-level check x{m['guard_ratio']:.2f} against the per-op guard, "
        f"below the {GUARD_RATIO_MIN} gate"
    )
    assert m["submit_overhead_ms"] <= SUBMIT_OVERHEAD_MAX_MS, (
        f"a lone submit costs {m['submit_overhead_ms']:.3f} ms more than its forward, "
        f"above the {SUBMIT_OVERHEAD_MAX_MS} ms gate"
    )
    assert results["engine"]["outage_source"] == "fallback"
    assert results["engine"]["outage_reason"] == "outage"
    assert t["cache_hits"] > 0, "replay produced no cache hits"
    assert t["fallbacks"] > 0, "forced outage did not register as a fallback"

    payload = {
        "schema": "repro.bench.serve/v1",
        "dataset": DATASET,
        "model": MODEL,
        "profile": profile_name(),
        **results,
    }
    save_results("serve", payload)
