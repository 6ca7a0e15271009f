"""Op-level profile baseline — where do training steps spend their time?

Not a table or figure of the paper: this bench produces the *measurement
baseline* that future performance work is judged against (the paper's own
Fig. 6 / Table 3 efficiency numbers presuppose exactly this plumbing).  For
D2STGNN and two baselines it profiles steady-state training steps with
:class:`repro.obs.Profiler` and records the hottest ops (count / inclusive
time / bytes, forward and backward) plus the module-scope breakdown.

Asserted shape: the profiler sees a rich op mix for D2STGNN (>= 10 distinct
ops), both phases are represented, and ``matmul`` — the op a numpy substrate
ultimately reduces to — is among the hottest for every model.

Results land in ``benchmarks/results/profile_ops.json`` (summarised in
EXPERIMENTS.md); the CLI equivalent for one-off runs is ``repro profile``.
"""

from __future__ import annotations

from benchmarks.common import build_model, get_data, profile, save_results
from repro.obs import Profiler, annotate_model_scopes, train_step
from repro.optim import Adam
from repro.utils.seed import set_seed

MODELS = ("D2STGNN", "GraphWaveNet", "DCRNN")

WARMUP_BATCHES = 1
PROFILED_BATCHES = 2
TOP_K = 10


def _profile_model(name: str, data) -> dict:
    """Profile steady-state training steps of one model; return the summary."""
    set_seed(0)
    model, _ = build_model(name, data)
    annotate_model_scopes(model)
    optimizer = Adam(model.parameters(), lr=0.001)
    scaler = data.scaler
    loader = data.loader("train", batch_size=profile().batch_size, shuffle=False)
    batches = []
    for batch in loader:
        batches.append(batch)
        if len(batches) >= WARMUP_BATCHES + PROFILED_BATCHES:
            break

    for batch in batches[:WARMUP_BATCHES]:
        train_step(model, optimizer, batch, scaler)
    with Profiler() as prof:
        for batch in batches[WARMUP_BATCHES:]:
            train_step(model, optimizer, batch, scaler)

    summary = prof.to_dict()
    summary["ops"] = summary["ops"][:TOP_K]
    summary["scopes"] = summary["scopes"][:TOP_K]
    summary["model"] = name
    summary["batches"] = len(batches) - WARMUP_BATCHES
    return summary


def test_profile_ops_baseline(benchmark):
    data = get_data("metr-la-sim")

    def run():
        return {name: _profile_model(name, data) for name in MODELS}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Op-level profile baseline (metr-la-sim, top ops by time) ===")
    for name in MODELS:
        summary = results[name]
        print(f"\n{name}: {summary['distinct_ops']} distinct ops, "
              f"{summary['elapsed_seconds']:.3f}s over {summary['batches']} steps")
        print(f"  {'op':<14} {'phase':<9} {'count':>7} {'time s':>9} {'MB':>9}")
        for row in summary["ops"][:5]:
            print(f"  {row['op']:<14} {row['phase']:<9} {row['count']:>7} "
                  f"{row['time']:>9.4f} {row['bytes'] / 1e6:>9.2f}")

    for name in MODELS:
        summary = results[name]
        phases = {row["phase"] for row in summary["ops"]}
        hottest = {row["op"] for row in summary["ops"][:TOP_K]}
        assert {"forward", "backward"} <= phases, f"{name}: missing a phase in {phases}"
        assert "matmul" in hottest, f"{name}: matmul not among hottest ops"
        assert all(
            row["count"] > 0 and row["time"] >= 0 and row["bytes"] >= 0
            for row in summary["ops"]
        ), name
    assert results["D2STGNN"]["distinct_ops"] >= 10, results["D2STGNN"]["distinct_ops"]

    save_results("profile_ops", results)
