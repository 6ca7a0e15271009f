"""Figure 6 — average training time per epoch on METR-LA.

Times steady-state training batches of each model at identical batch size
(two warm-up batches excluded, since first-touch allocation costs would
otherwise dominate at this scale) and scales to a per-epoch figure.

Substrate caveat, recorded in EXPERIMENTS.md: the paper's headline gap —
parallel convolutional models (GWNet, MTGNN) far cheaper than step-recurrent
seq2seq models (DGCRN, GMAN) — comes from GPU parallelism across the time
axis, which a CPU numpy engine does not enjoy; on this substrate the models
are much closer together.  The *intra-model* claim that is substrate-robust
and asserted here: dropping the dynamic graph learner (D2STGNN†) does not
make D2STGNN more expensive — the learner is pure overhead at fixed
accuracy machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import build_model, get_data, profile, save_results
from benchmarks.paper_reference import FIG6_EPOCH_SECONDS
from repro.obs import train_step
from repro.optim import Adam
from repro.utils.seed import set_seed
from repro.utils.timer import now

MODELS = ("GraphWaveNet", "MTGNN", "GMAN", "DGCRN", "D2STGNN+", "D2STGNN")

WARMUP_BATCHES = 2
TIMED_BATCHES = 8


def _steady_state_epoch_seconds(name: str, data) -> float:
    """Per-epoch training time extrapolated from steady-state batches."""
    set_seed(0)
    model, _ = build_model(name, data)
    optimizer = Adam(model.parameters(), lr=0.001)
    batch_size = profile().batch_size
    loader = data.loader("train", batch_size=batch_size, shuffle=False)
    batches = []
    for batch in loader:
        batches.append(batch)
        if len(batches) >= WARMUP_BATCHES + TIMED_BATCHES:
            break
    scaler = data.scaler

    for batch in batches[:WARMUP_BATCHES]:
        train_step(model, optimizer, batch, scaler)
    # Two timed passes, keeping the faster one: wall-clock measurements on a
    # shared host are right-skewed by background load, so min-of-passes is
    # the robust estimator of the model's intrinsic cost.
    per_batch = float("inf")
    for _ in range(2):
        start = now()
        for batch in batches[WARMUP_BATCHES:]:
            train_step(model, optimizer, batch, scaler)
        elapsed = (now() - start) / max(1, len(batches) - WARMUP_BATCHES)
        per_batch = min(per_batch, elapsed)
    batches_per_epoch = int(np.ceil(len(data.train) / batch_size))
    return per_batch * batches_per_epoch


def test_fig6_training_efficiency(benchmark):
    data = get_data("metr-la-sim")

    def run():
        return {name: _steady_state_epoch_seconds(name, data) for name in MODELS}

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Figure 6: avg training time per epoch (metr-la-sim) ===")
    print(f"{'model':<14} {'measured s':>10}   {'paper s (GPU)':>13}")
    for name in MODELS:
        print(f"{name:<14} {seconds[name]:>10.2f}   {FIG6_EPOCH_SECONDS[name]:>13}")
    scale = max(seconds.values())
    for name in sorted(seconds, key=seconds.get):
        bar = "#" * max(1, int(40 * seconds[name] / scale))
        print(f"{name:<14} {bar}")

    # Substrate-robust shape checks (see module docstring).
    assert seconds["D2STGNN+"] <= seconds["D2STGNN"] * 1.15, (
        "removing dynamic graph learning should not make training slower"
    )
    assert all(value > 0 for value in seconds.values())
    # No model is an outlier by more than ~an order of magnitude: the paper's
    # Fig. 6 spread is within 7x, and ours should be in the same ballpark.
    assert max(seconds.values()) < 12 * min(seconds.values()), seconds

    save_results("fig6_efficiency", seconds)
