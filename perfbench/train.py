"""``train-d2stgnn``: a closed loop of full D²STGNN optimisation steps.

Each step is gather → forward → masked MAE → backward → clip → Adam on
metr-la-sim at the ``full`` profile sizes.  The dataset is the preset
recording and the model's initial weights come from a fixed seed; the
run's seed picks the batch order.
"""

from __future__ import annotations

import numpy as np

from repro.core import D2STGNN, D2STGNNConfig
from repro.data import build_forecasting_data, load_dataset
from repro.obs import Profiler, annotate_model_scopes
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, backward_tape_stats
from repro.tensor import functional as F
from repro.training import evaluate_split
from repro.utils.seed import set_seed
from repro.utils.timer import now

from .common import (
    Outcome, SetupProbes, Tracer, beyond, check, chunk_rates, mean_ms, median,
    peak_rss_mb, percentile_ms, span_report,
)

SIZES = {
    "full": dict(nodes=32, steps=4032, hidden=32, embed=12, layers=2, heads=4, batch=32),
    "tiny": dict(nodes=8, steps=900, hidden=8, embed=4, layers=1, heads=2, batch=8),
}
DATASET = "metr-la-sim"
# The initial weights are part of the workload, like the served bundle of
# the serving workloads.  Seeded per run, they moved the scored MAE by 10%
# between seeds (by 3% with the batch order alone).
INIT_SEED = 0
WARMUP_STEPS = 2
# Steps re-run from scratch after the timed loop: their losses must repeat
# bit for bit, and the model they produce is the one scored on validation.
CHECK_STEPS = 8
# ~80 steps fit in a run, so p80 is the highest percentile with ten
# samples beyond it.
TAIL_Q = 80
# Throughput is the median over chunks of this many consecutive steps.
RATE_CHUNK = 8
GRAD_CLIP = 5.0

# Module-scope groups of the model tree, by dotted-path prefix.
SCOPE_GROUPS = {
    "embed": ("embeddings", "input_projection", "dropout"),
    "graph": ("graph_learner",),
    "head": ("head",),
}


def _scope_group(scope: str) -> str:
    for group, prefixes in SCOPE_GROUPS.items():
        if scope.split(".")[0] in prefixes:
            return group
    parts = scope.split(".")
    if parts[0] == "layers" and len(parts) > 2 and parts[2] in ("diffusion", "inherent"):
        return parts[2]
    return "other"


def build(size: dict):
    """Dataset, model and optimiser, ready for the first step."""
    dataset = load_dataset(DATASET, num_nodes=size["nodes"], num_steps=size["steps"])
    data = build_forecasting_data(dataset)
    set_seed(INIT_SEED)
    config = D2STGNNConfig(
        num_nodes=size["nodes"], steps_per_day=data.steps_per_day,
        hidden_dim=size["hidden"], embed_dim=size["embed"],
        num_layers=size["layers"], num_heads=size["heads"], dropout=0.0,
    )
    model = D2STGNN(config, data.adjacency)
    return data, model, Adam(model.parameters(), lr=1e-3)


def _batches(seed: int, count: int, batch: int):
    rng = np.random.default_rng([seed, 1])
    while True:
        yield rng.integers(0, count, size=batch)


class _Loop:
    """The train step, with a span at every layer boundary."""

    def __init__(self, data, model, optimizer, seed: int, batch: int, tracer: Tracer):
        self.data, self.model, self.optimizer = data, model, optimizer
        self.params = list(model.parameters())
        self.indices = _batches(seed, len(data.train), batch)
        self.tracer = tracer
        self.steps = 0

    def step(self) -> float:
        span, data = self.tracer.span, self.data
        self.steps += 1
        with span("train.step", rid=self.steps):
            with span("data.gather"):
                batch = data.train.gather(next(self.indices))
            with span("optim.zero_grad"):
                self.optimizer.zero_grad()
            with span("core.forward"):
                out = self.model(batch.x, batch.tod, batch.dow)
            with span("loss"):
                loss = F.masked_mae_loss(out * data.scaler.std + data.scaler.mean, Tensor(batch.y))
            with span("tensor.backward"):
                loss.backward()
            with span("optim.clip"):
                clip_grad_norm(self.params, GRAD_CLIP)
            with span("optim.adam"):
                self.optimizer.step()
        return float(loss.data)


def _timed_steps(loop: _Loop, seconds: float, min_steps: int, probes=None):
    """Step for ``seconds`` of step time (and at least ``min_steps``).

    Set-up probes run between steps, outside the step time.
    """
    times, losses = [], []
    spent = 0.0
    while spent < seconds or len(times) < min_steps:
        start = now()
        losses.append(loop.step())
        times.append(now() - start)
        spent += times[-1]
        if probes is not None:
            probes.catch_up(spent / seconds)
    return times, losses


def run(seed: int, seconds: float, trace: bool, size_name: str = "full") -> Outcome:
    size = SIZES[size_name]
    probes = SetupProbes(lambda: _time_build(size))
    try:
        return _run(probes, size, seed, seconds, trace)
    finally:
        probes.stop()


def _run(probes: SetupProbes, size: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    data, model, optimizer = build(size)

    quiet = Tracer(enabled=False)
    loop = _Loop(data, model, optimizer, seed, size["batch"], quiet)
    timed = seconds / 2 if trace else seconds
    times, losses = _timed_steps(loop, timed, WARMUP_STEPS + CHECK_STEPS, probes)
    setups = probes.close()
    untraced = times[WARMUP_STEPS:]

    if trace:
        tracer = Tracer(enabled=True)
        loop.tracer = tracer
        annotate_model_scopes(model)
        tape_before = backward_tape_stats()
        with Profiler() as prof:
            traced_times, traced_losses = _timed_steps(loop, seconds - timed, 2)
        tape_after = backward_tape_stats()
        losses += traced_losses

    # Correctness: the first steps repeat bit for bit from a fresh build,
    # and that model's validation MAE is the reported forecast error.
    check_data, check_model, check_optimizer = build(size)
    check_loop = _Loop(check_data, check_model, check_optimizer, seed, size["batch"], quiet)
    repeat = [check_loop.step() for _ in range(CHECK_STEPS)]
    check(repeat == losses[:CHECK_STEPS],
          f"train losses do not repeat for seed {seed}: {repeat} vs {losses[:CHECK_STEPS]}")
    mae = evaluate_split(check_model, check_data, split="val")["avg"]["mae"]
    check(bool(np.isfinite(mae)) and mae > 0, f"validation MAE is not a positive number: {mae}")
    finite = int(np.isfinite(losses).sum())
    check(finite == len(losses), f"{len(losses) - finite} train steps gave a non-finite loss")

    rates = chunk_rates(np.concatenate(([0.0], np.cumsum(untraced))), RATE_CHUNK)
    outcome = Outcome(attempted=len(losses), failed=len(losses) - finite)
    outcome.detail = {
        "steps_timed": len(untraced),
        "tail_percentile": TAIL_Q,
        "samples_beyond_tail": beyond(len(untraced), TAIL_Q),
        "setup_samples_s": setups,
        "check_losses": repeat,
    }
    outcome.end_to_end = {
        "setup_s": (median(setups), "s"),
        "latency_ms_p50": (percentile_ms(untraced, 50), "ms"),
        "latency_ms_tail": (percentile_ms(untraced, TAIL_Q), "ms"),
        "throughput_per_s": (size["batch"] * median(rates), "1/s"),
        "forecast_mae": (float(mae), "raw"),
        "availability": (finite / len(losses), "share"),
        "peak_rss_mb": (peak_rss_mb(["self"]), "MB"),
    }
    if trace:
        report = span_report(tracer.spans, "train.step")
        steps = len(traced_times)
        scopes: dict[str, float] = {}
        for stat in prof.scopes.values():
            group = _scope_group(stat.scope)
            scopes[group] = scopes.get(group, 0.0) + stat.self_time
        matmuls = {phase: prof.ops[("matmul", phase)].count / steps
                   for phase in ("forward", "backward") if ("matmul", phase) in prof.ops}
        hits = tape_after["hits"] - tape_before["hits"]
        lookups = hits + tape_after["misses"] - tape_before["misses"]
        outcome.per_layer = {
            "data.gather_ms": (mean_ms(report, "data.gather"), "ms"),
            "core.forward_ms": (mean_ms(report, "core.forward"), "ms"),
            **{
                f"core.scope.{group}_ms": (scopes.get(group, 0.0) / steps * 1e3, "ms")
                for group in ("embed", "graph", "diffusion", "inherent", "head")
            },
            "tensor.matmul_fwd_count": (matmuls.get("forward", 0.0), "count"),
            "tensor.matmul_bwd_count": (matmuls.get("backward", 0.0), "count"),
            "tensor.backward_ms": (mean_ms(report, "tensor.backward"), "ms"),
            "tensor.tape_hit_ratio": (hits / lookups if lookups else 0.0, "share"),
            "optim.clip_ms": (mean_ms(report, "optim.clip"), "ms"),
            "optim.adam_ms": (mean_ms(report, "optim.adam"), "ms"),
            "trace.coverage": (report["coverage"], "share"),
            "trace.unexplained_ms": (report["unexplained_ms_per_op"], "ms"),
            "trace.overhead_ms": (
                percentile_ms(traced_times, 50) - percentile_ms(untraced, 50), "ms"
            ),
        }
        outcome.detail["spans"] = report
        outcome.detail["scope_other_ms"] = scopes.get("other", 0.0) / steps * 1e3
        outcome.spans = tracer.spans
    return outcome


def _time_build(size: dict) -> float:
    start = now()
    build(size)
    return now() - start
