"""Train-step throughput — the regression gate for the engine's fast paths.

Times full optimisation steps (gather → forward → loss → backward → clip →
update) per model on metr-la-sim under the engine's fast backward
configuration, the reference configuration and each fast-path switch turned
off on its own, with the legs alternated in rounds, and benchmarks
vectorized batch assembly against the per-sample reference loop.  Both fast
paths must be *bit-identical* to their slow counterparts — that is asserted
here on top of the dedicated equivalence suite
(``tests/test_fast_path_equivalence.py``).

Results land in ``benchmarks/results/train_step.json`` (summarised in
EXPERIMENTS.md); the CLI
equivalent for one-off runs is ``repro profile --train-step``.  The
``seed_baseline`` block records a one-time A/B measurement against the
pre-fast-path tree, which the self-contained toggle comparison understates
(several engine optimisations — gradient donation, forward rewrites — are
not behind toggles); see docs/performance.md.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import build_model, get_data, profile, profile_name, save_results
from repro.obs import compare_fast_reference, FAST_CONFIG, REFERENCE_CONFIG, train_step
from repro.optim import Adam
from repro.tensor import configure_fast_backward, fast_backward_config
from repro.utils.seed import set_seed
from repro.utils.timer import now

MODELS = ("D2STGNN", "GraphWaveNet", "DCRNN")
DATASET = "metr-la-sim"
TIMED_STEPS = 4  # per leg and round
GATHER_BATCHES = 50
GATHER_BATCH_SIZE = 64

# One-time alternated A/B against the pre-fast-path tree (commit 90e48ea,
# the seed this PR started from), measured on the same machine with the same
# harness: 4 interleaved runs per leg, pooled minima, bench profile,
# D2STGNN × metr-la-sim, batch 32.  Kept as data because the seed tree is
# not part of this checkout; the toggle comparison below is re-measurable.
SEED_BASELINE = {
    "commit": "90e48ea",
    "seed_step_ms_min": 138.23,
    "current_step_ms_min": 113.68,
    "seed_backward_ms_min": 79.25,
    "current_backward_ms_min": 60.22,
    "speedup_end_to_end": 1.22,
    "speedup_backward": 1.32,
    "note": (
        "pooled minima over 4 alternated runs per tree; single-core "
        "OpenBLAS machine with +/-40% load drift, so medians vary more "
        "than minima"
    ),
}


def _grads_after_steps(name: str, data, config: dict, steps: int = 2) -> list[bytes]:
    """Deterministically train ``steps`` steps under ``config``; return grads.

    Rebuilds the model from a fixed seed so two calls differ only in the
    engine configuration — the grads (and therefore every update along the
    way) must match bit-for-bit between the fast and reference paths.
    """
    previous = fast_backward_config()
    configure_fast_backward(**config)
    try:
        set_seed(0)
        model, _ = build_model(name, data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        loader = data.loader("train", batch_size=profile().batch_size, shuffle=False)
        iterator = iter(loader)
        for _ in range(steps):
            train_step(model, optimizer, next(iterator), data.scaler)
        return [p.grad.tobytes() for p in model.parameters()]
    finally:
        configure_fast_backward(**previous)


def _bench_gather(data) -> dict:
    """Vectorized gather vs the per-sample reference loop, same indices."""
    dataset = data.windows
    rng = np.random.default_rng(0)
    size = min(GATHER_BATCH_SIZE, len(dataset))
    index_sets = rng.integers(0, len(dataset), size=(GATHER_BATCHES, size))

    fast_batch = dataset.gather(index_sets[0])
    loop_batch = dataset.gather_loop(index_sets[0])
    identical = all(
        getattr(fast_batch, field).tobytes() == getattr(loop_batch, field).tobytes()
        for field in ("x", "y", "tod", "dow")
    )

    def run(gather) -> float:
        best = float("inf")
        for _ in range(3):
            begin = now()
            for indices in index_sets:
                gather(indices)
            best = min(best, now() - begin)
        return best / len(index_sets)

    fast_us = run(dataset.gather) * 1e6
    loop_us = run(dataset.gather_loop) * 1e6
    return {
        "batch_size": size,
        "bitwise_identical": identical,
        "vectorized_us_per_batch": fast_us,
        "loop_us_per_batch": loop_us,
        "speedup": loop_us / fast_us,
    }


def test_train_step_throughput(benchmark):
    data = get_data(DATASET)

    def run():
        results = {"models": {}, "gather": _bench_gather(data)}
        for name in MODELS:
            set_seed(0)
            model, _ = build_model(name, data)
            timing = compare_fast_reference(
                model, data, batch_size=profile().batch_size, steps=TIMED_STEPS, warmup=1,
            )
            timing["grads_bit_identical"] = (
                _grads_after_steps(name, data, FAST_CONFIG)
                == _grads_after_steps(name, data, REFERENCE_CONFIG)
            )
            results["models"][name] = timing
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Train-step throughput ({DATASET}, {profile_name()} profile) ===")
    print(f"{'model':<14} {'fast ms':>9} {'ref ms':>9} {'e2e x':>7} "
          f"{'fast bwd us':>12} {'ref bwd us':>12} {'bwd x':>7}")
    for name in MODELS:
        t = results["models"][name]
        print(f"{name:<14} {t['fast']['step_ms_min']:>9.2f} "
              f"{t['reference']['step_ms_min']:>9.2f} {t['speedup_end_to_end']:>7.2f} "
              f"{t['fast']['backward_us_min']:>12.0f} "
              f"{t['reference']['backward_us_min']:>12.0f} {t['speedup_backward']:>7.2f}")
    print("all-on speedup over one switch off (end to end / backward):")
    for name in MODELS:
        switches = results["models"][name]["switches"]
        print(f"{name:<14} " + "  ".join(
            f"{switch} x{t['speedup_end_to_end']:.2f}/x{t['speedup_backward']:.2f}"
            for switch, t in switches.items()
        ))
    g = results["gather"]
    print(f"gather: vectorized {g['vectorized_us_per_batch']:.1f} us/batch vs "
          f"loop {g['loop_us_per_batch']:.1f} us/batch (x{g['speedup']:.1f})")

    for name in MODELS:
        t = results["models"][name]
        assert t["grads_bit_identical"], f"{name}: fast paths changed numerics"
        assert t["fast"]["samples_per_sec"] > 0
        # Noise guard, not a speedup claim: the fast paths must never make
        # the step slower than the reference configuration.
        assert t["speedup_end_to_end"] > 0.85, (name, t["speedup_end_to_end"])
    assert g["bitwise_identical"], "vectorized gather diverged from the loop"
    assert g["speedup"] > 1.5, g

    payload = {
        "schema": "repro.bench.train_step/v1",
        "dataset": DATASET,
        "profile": profile_name(),
        "seed_baseline": SEED_BASELINE,
        **results,
    }
    save_results("train_step", payload)
