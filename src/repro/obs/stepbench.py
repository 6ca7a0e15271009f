"""Train-step throughput measurement: samples/sec and backward time.

The harness behind ``benchmarks/bench_train_step.py`` and
``repro profile --train-step``.  It times *full* optimisation steps —
batch gather, forward, loss, backward, gradient clipping, optimizer
update — because that is the quantity the ROADMAP's "as fast as the
hardware allows" north star is judged on; the backward slice is timed
separately since the engine's fast paths concentrate there.

``compare_fast_reference`` times the same model under the engine's fast
backward paths, under the reference configuration and with each fast-path
switch turned off on its own, in alternated rounds, giving every run a
self-contained before/after and a per-switch ablation (see
docs/performance.md for how they relate to the pre-fast-path baseline).
"""

from __future__ import annotations

import numpy as np

from ..optim import Adam, clip_grad_norm
from ..tensor import Tensor, configure_fast_backward, fast_backward_config
from ..tensor import functional as F
from ..utils.timer import now

__all__ = [
    "FAST_CONFIG",
    "REFERENCE_CONFIG",
    "compare_fast_reference",
    "time_train_steps",
    "train_step",
]

# The engine's fast backward paths, and the reference ("slow") configuration
# they are measured against.  Both switches are bit-identical rewrites, so
# the two legs must produce the same gradients.
FAST_CONFIG = {"scatter": True, "inplace": True}
REFERENCE_CONFIG = {"scatter": False, "inplace": False}
# Global gradient-norm bound of every timed optimisation step.
GRAD_CLIP = 5.0


def train_step(model, optimizer, batch, scaler) -> float:
    """Run one optimisation step on ``batch``; return the backward's seconds.

    The step every training harness here times: zero grads, forward with the
    prediction unscaled to raw units, masked MAE, backward, clip to
    :data:`GRAD_CLIP`, optimizer update.
    """
    optimizer.zero_grad()
    prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
    loss = F.masked_mae_loss(prediction, Tensor(batch.y))
    begin = now()
    loss.backward()
    backward = now() - begin
    clip_grad_norm(model.parameters(), GRAD_CLIP)
    optimizer.step()
    return backward


def time_train_steps(
    model,
    data,
    *,
    batch_size: int = 32,
    steps: int = 8,
    warmup: int = 2,
    split: str = "train",
    lr: float = 1e-3,
) -> dict:
    """Time ``steps`` full optimisation steps; return throughput statistics.

    Each step gathers its own batch (round-robin over ``split``), so the
    vectorized batching path is part of what is measured.  Minima are the
    headline numbers — on a noisy machine the minimum is the least-biased
    estimate of the achievable step time — with medians recorded alongside.
    """
    if steps < 1 or warmup < 0:
        raise ValueError("steps must be >= 1 and warmup >= 0")
    optimizer = Adam(model.parameters(), lr=lr)
    scaler = data.scaler
    subset = {"train": data.train, "val": data.val, "test": data.test}[split]
    batch_size = min(batch_size, len(subset))
    span = max(1, len(subset) - batch_size)
    order = np.arange(len(subset))

    def step(i: int) -> float:
        batch = subset.gather(order[(i * batch_size) % span :][:batch_size])
        return train_step(model, optimizer, batch, scaler)

    for i in range(warmup):
        step(i)
    totals, backwards = [], []
    for i in range(steps):
        begin = now()
        backward = step(warmup + i)
        totals.append(now() - begin)
        backwards.append(backward)
    totals.sort()
    backwards.sort()
    mid = len(totals) // 2
    return {
        "batch_size": batch_size,
        "steps": steps,
        "step_ms_min": totals[0] * 1e3,
        "step_ms_median": totals[mid] * 1e3,
        "backward_us_min": backwards[0] * 1e6,
        "backward_us_median": backwards[mid] * 1e6,
        "samples_per_sec": batch_size / totals[0],
    }


# The switches timed one at a time, each turned off against FAST_CONFIG.
SWITCH_ABLATIONS = ("scatter", "inplace")
# Alternated rounds per comparison; every leg runs once in each round.
ROUNDS = 4


def _pool_rounds(runs: list[dict]) -> dict:
    """Pool one leg's :func:`time_train_steps` rounds: minima of minima,
    medians of medians."""
    pooled = {
        "batch_size": runs[0]["batch_size"],
        "steps": sum(run["steps"] for run in runs),
        "rounds": len(runs),
    }
    for key in ("step_ms", "backward_us"):
        pooled[f"{key}_min"] = min(run[f"{key}_min"] for run in runs)
        pooled[f"{key}_median"] = float(np.median([run[f"{key}_median"] for run in runs]))
    pooled["samples_per_sec"] = pooled["batch_size"] / (pooled["step_ms_min"] / 1e3)
    return pooled


def compare_fast_reference(model, data, **kwargs) -> dict:
    """Time the model under the reference, fast and one-switch-off configurations.

    The legs alternate: each of :data:`ROUNDS` rounds runs every leg once, as one
    :func:`time_train_steps` call with ``kwargs``, rotating which leg goes
    first, and each leg pools its rounds.  Legs run back to back instead
    would let load drift between them read as a speedup or a loss.

    Returns ``{"reference": ..., "fast": ...}`` (pooled
    :func:`time_train_steps` dicts) plus end-to-end and backward speedups,
    and under ``"switches"`` one entry per :data:`SWITCH_ABLATIONS` switch:
    its ``off`` timing and the speedups of all-on over it.  The engine
    configuration active on entry is restored afterwards.
    """
    legs = {"reference": REFERENCE_CONFIG, "fast": FAST_CONFIG}
    for switch in SWITCH_ABLATIONS:
        legs[switch] = {**FAST_CONFIG, switch: False}
    names = list(legs)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    previous = fast_backward_config()
    try:
        for r in range(ROUNDS):
            start = r % len(names)
            for name in names[start:] + names[:start]:
                configure_fast_backward(**legs[name])
                runs[name].append(time_train_steps(model, data, **kwargs))
    finally:
        configure_fast_backward(**previous)
    timing = {name: _pool_rounds(runs[name]) for name in names}
    fast = timing["fast"]

    def speedups(slow: dict) -> dict:
        return {
            "speedup_end_to_end": slow["step_ms_min"] / fast["step_ms_min"],
            "speedup_backward": slow["backward_us_min"] / fast["backward_us_min"],
        }

    return {
        "reference": timing["reference"],
        "fast": fast,
        **speedups(timing["reference"]),
        "switches": {
            switch: {"off": timing[switch], **speedups(timing[switch])}
            for switch in SWITCH_ABLATIONS
        },
    }
