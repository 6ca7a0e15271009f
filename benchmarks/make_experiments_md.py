"""Generate EXPERIMENTS.md from the benchmark results in benchmarks/results/.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/make_experiments_md.py > EXPERIMENTS.md

The file records, for every table and figure of the paper, the paper's
numbers next to this reproduction's measurements, plus the qualitative
verdict each benchmark asserts.
"""

from __future__ import annotations

import json
from pathlib import Path

from paper_reference import (
    FIG6_EPOCH_SECONDS,
    TABLE2,
    TABLE3,
    TABLE4_METR_LA_MAE,
    TABLE5_MAE,
)

RESULTS = Path(__file__).parent / "results"

PAPER_NAME = {
    "metr-la-sim": "METR-LA",
    "pems-bay-sim": "PEMS-BAY",
    "pems04-sim": "PEMS04",
    "pems08-sim": "PEMS08",
}


def load(name: str) -> dict | None:
    path = RESULTS / f"{name}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def emit_header() -> None:
    print("# EXPERIMENTS — paper vs measured")
    print()
    print(
        "Every table and figure of the paper's evaluation (Sec. 6), regenerated\n"
        "by `pytest benchmarks/ --benchmark-only` on the simulated datasets at the\n"
        "`bench` scale profile (12 nodes, ~5 days of 5-minute data, hidden dim 16,\n"
        "4 epochs — see DESIGN.md §6).  Absolute numbers are **not comparable** to\n"
        "the paper's (different data, different scale, numpy instead of CUDA); the\n"
        "claim being validated is the *shape* of each result, which the benchmark\n"
        "suite asserts programmatically.  This file was generated by\n"
        "`python benchmarks/make_experiments_md.py`."
    )
    print()


def emit_table2() -> None:
    stats = load("table2_datasets")
    print("## Table 2 — dataset statistics")
    print()
    if stats is None:
        print("_results missing — run bench_table2_datasets.py_")
        return
    print("| dataset | kind | nodes (sim/paper) | edges (sim/paper) | steps (sim/paper) |")
    print("|---|---|---|---|---|")
    for name, row in stats.items():
        ref = TABLE2[PAPER_NAME[name]]
        print(
            f"| {name} | {row['kind']} | {row['nodes']} / {ref['nodes']} "
            f"| {row['edges']} / {ref['edges']} | {row['steps']} / {ref['steps']} |"
        )
    print()
    print(
        "Verdict: **holds** — two speed + two flow datasets, 5-minute sampling, "
        "directed sensor graphs; sizes intentionally scaled down.\n"
    )


def emit_table3() -> None:
    print("## Table 3 — main performance comparison")
    print()
    for dataset in PAPER_NAME:
        reports = load(f"table3_{dataset}")
        if reports is None:
            print(f"_missing results for {dataset}_\n")
            continue
        print(f"### {dataset}")
        print()
        print("| method | H3 MAE (meas/paper) | H6 MAE (meas/paper) | H12 MAE (meas/paper) |")
        print("|---|---|---|---|")
        ranked = sorted(reports, key=lambda m: reports[m]["avg"]["mae"])
        for method in reports:
            ref = TABLE3[dataset][method]
            r = reports[method]
            print(
                f"| {method} | {r['3']['mae']:.2f} / {ref['3'][0]:.2f} "
                f"| {r['6']['mae']:.2f} / {ref['6'][0]:.2f} "
                f"| {r['12']['mae']:.2f} / {ref['12'][0]:.2f} |"
            )
        print()
        print(f"Measured ranking by average MAE (best first): {', '.join(ranked)}")
        print()
    print(
        "Verdict: **shape holds** — deep spatial-temporal models beat the\n"
        "statistical baselines on every dataset, D2STGNN ranks at/near the top\n"
        "everywhere, and error grows with horizon (all asserted in\n"
        "`bench_table3_performance.py`).  Known deviation: the direct\n"
        "multi-step heads of Graph WaveNet / MTGNN undertrain at the 4-epoch\n"
        "budget, inflating their long-horizon error relative to the paper's\n"
        "100-epoch GPU training; the recurrent decoders (DCRNN, DGCRN,\n"
        "D2STGNN) converge faster and dominate at this scale.\n"
    )


def emit_table4() -> None:
    print("## Table 4 — decoupled vs coupled framework")
    print()
    print("| dataset | GWNet | DGCRN† | D2STGNN‡ (coupled) | D2STGNN† (decoupled) |")
    print("|---|---|---|---|---|")
    for dataset in PAPER_NAME:
        reports = load(f"table4_{dataset}")
        if reports is None:
            continue
        row = [f"{reports[m]['avg']['mae']:.2f}" for m in
               ("GraphWaveNet", "DGCRN+", "D2STGNN#", "D2STGNN+")]
        print(f"| {dataset} | " + " | ".join(row) + " |")
    ref = {m: sum(v.values()) / 3 for m, v in TABLE4_METR_LA_MAE.items()}
    print(
        f"| _paper (METR-LA, mean MAE)_ | {ref['GraphWaveNet']:.2f} | {ref['DGCRN+']:.2f} "
        f"| {ref['D2STGNN#']:.2f} | {ref['D2STGNN+']:.2f} |"
    )
    print()
    print(
        "Verdict: **holds** — the decoupled D2STGNN† beats the coupled D2STGNN‡\n"
        "on every dataset (hard assertion in `bench_table4_decoupled.py`); the\n"
        "framework, not the primary models, carries the gain.\n"
    )


def emit_table5() -> None:
    reports = load("table5_ablation")
    print("## Table 5 — ablation study (metr-la-sim)")
    print()
    if reports is None:
        print("_results missing_")
        return
    print("| variant | avg MAE (measured) | paper MAE (H3/H6/H12) |")
    print("|---|---|---|")
    for name, report in reports.items():
        ref = TABLE5_MAE[name]
        print(
            f"| {name} | {report['avg']['mae']:.3f} "
            f"| {ref['3']:.2f} / {ref['6']:.2f} / {ref['12']:.2f} |"
        )
    print()
    print(
        "Verdict: **shape holds** — `switch` performs on par with the full model\n"
        "(the two blocks are interchangeable, Sec. 6.5); every removal costs\n"
        "accuracy; removing the decoupling entirely is among the most damaging\n"
        "framework ablations (asserted in `bench_table5_ablation.py`).\n"
    )


def emit_fig6() -> None:
    seconds = load("fig6_efficiency")
    print("## Figure 6 — training time per epoch (metr-la-sim)")
    print()
    if seconds is None:
        print("_results missing_")
        return
    print("| model | measured s/epoch (numpy, CPU) | paper s/epoch (PyTorch, RTX 3090) |")
    print("|---|---|---|")
    for name in sorted(seconds, key=seconds.get):
        print(f"| {name} | {seconds[name]:.2f} | {FIG6_EPOCH_SECONDS[name]} |")
    print()
    print(
        "Verdict: **partially holds** — the substrate-robust claim (dropping\n"
        "the dynamic graph learner does not make D2STGNN more expensive) is\n"
        "asserted and holds.  The paper's headline gap — convolutional models\n"
        "(GWNet, MTGNN) several times cheaper than the step-recurrent seq2seq\n"
        "models (DGCRN, GMAN) — does **not** transfer to this substrate: that\n"
        "gap comes from GPU parallelism across the time axis, which a CPU\n"
        "numpy engine does not enjoy, so all models land within ~2.5x of each\n"
        "other here.  The convolutional models are still the cheapest, but\n"
        "D2STGNN's many small ops make it the most expensive per epoch on\n"
        "CPU rather than mid-pack.\n"
    )


def emit_fig7() -> None:
    results = load("fig7_sensitivity")
    print("## Figure 7 — parameter sensitivity (metr-la-sim)")
    print()
    if results is None:
        print("_results missing_")
        return
    for key, label in (("k_s", "spatial kernel k_s"), ("k_t", "temporal kernel k_t"), ("d", "hidden dim d")):
        series = results[key]
        cells = "  ".join(f"{k}→{v:.3f}" for k, v in series.items())
        print(f"* {label}: {cells}")
    print()
    print(
        "Verdict: **shape holds** — small kernels (2-3) are sufficient (the\n"
        "diffusion process is spatio-temporally local, Fig. 7a), and accuracy vs\n"
        "hidden dimension is U-shaped: d=4 underfits, the middle setting wins,\n"
        "the largest dim gains nothing at this training budget (Fig. 7b).\n"
    )


def emit_fig8() -> None:
    result = load("fig8_visualization")
    print("## Figure 8 — prediction visualisation & outage robustness")
    print()
    if result is None:
        print("_results missing_")
        return
    print(f"* horizon-1 MAE on a healthy sensor: {result['node1_h1_mae']:.2f} mph")
    if result.get("outage_mean_prediction") is not None:
        print(
            f"* during an injected 2-hour outage ({result['outage_windows']} windows of "
            f"zero readings) the model keeps predicting "
            f"{result['outage_mean_prediction']:.1f} mph on average"
        )
    print()
    print(
        "Verdict: **holds** — the model tracks the daily pattern closely and, as\n"
        "in the paper's June 13 2012 anecdote for sensor 111, does not chase a\n"
        "failed sensor's zeros (sparkline renderings are printed by\n"
        "`bench_fig8_visualization.py`).\n"
    )


def emit_ablation_dg() -> None:
    result = load("ablation_dynamic_graph")
    print("## Extra ablation — per-window vs per-step dynamic graphs")
    print()
    if result is None:
        print("_results missing — run bench_ablation_dynamic_graph.py_")
        print()
        return
    print("| variant | avg MAE | s/epoch |")
    print("|---|---|---|")
    for name, row in result.items():
        print(f"| {name} | {row['avg_mae']:.3f} | {row['epoch_seconds']:.2f} |")
    print()
    print(
        "Verdict: the paper's cost-saving approximation (one dynamic graph per\n"
        "window, Sec. 5.3) retains the accuracy of the exact per-step graphs at\n"
        "a fraction of the training cost — the design choice is justified.\n"
    )


def emit_ablation_instantiation() -> None:
    result = load("ablation_instantiation")
    print("## Extra ablation — DSTF block instantiations")
    print()
    if result is None:
        print("_results missing — run bench_ablation_instantiation.py_")
        print()
        return
    print("| combination | avg MAE |")
    print("|---|---|")
    for name, value in sorted(result.items(), key=lambda kv: kv[1]):
        print(f"| {name} | {value:.3f} |")
    print()
    print(
        "Verdict: the Sec. 4 framework claim holds — the decoupling machinery\n"
        "trains equally well with a graph-attention diffusion block and/or a\n"
        "TCN inherent block; all four combinations land within a tight band.\n"
        "At this reduced scale the band is too narrow to rank the paper's\n"
        "chosen combination above the alternatives.\n"
    )


def emit_profile_ops() -> None:
    results = load("profile_ops")
    print("## Perf baseline — op-level training-step profile")
    print()
    if results is None:
        print("_results missing — run bench_profile_ops.py_")
        print()
        return
    print(
        "Top ops by inclusive wall time over steady-state training steps on\n"
        "metr-la-sim (`repro.obs.Profiler`; schema and regeneration workflow in\n"
        "`docs/observability.md`).  This is the baseline future perf PRs are\n"
        "measured against."
    )
    print()
    print("| model | distinct ops | hottest (op/phase: seconds) |")
    print("|---|---|---|")
    for name, summary in results.items():
        top = ", ".join(
            f"{row['op']}/{row['phase']}: {row['time']:.4f}" for row in summary["ops"][:3]
        )
        print(f"| {name} | {summary['distinct_ops']} | {top} |")
    print()
    print(
        "Verdict: on the numpy substrate every model bottoms out in `matmul`\n"
        "(asserted in `bench_profile_ops.py`), and backward passes cost the\n"
        "same order as forward — the engine has no fused kernels to hide\n"
        "gradient work in.\n"
    )


def emit_train_step() -> None:
    result = load("train_step")
    print("## Perf baseline — train-step throughput and the engine fast paths")
    print()
    if result is None:
        print("_results missing — run bench_train_step.py_")
        print()
        return
    print(
        f"Full optimisation steps on {result['dataset']} "
        f"(`{result['profile']}` profile), timed under the engine's fast\n"
        "backward configuration vs the reference configuration — see\n"
        "`docs/performance.md` for what each fast path does and why this\n"
        "toggle comparison understates the PR-level win."
    )
    print()
    print("| model | fast step ms (min) | ref step ms (min) | e2e speedup | bwd speedup | grads bit-identical |")
    print("|---|---|---|---|---|---|")
    for name, t in result["models"].items():
        print(
            f"| {name} | {t['fast']['step_ms_min']:.1f} | {t['reference']['step_ms_min']:.1f} "
            f"| {t['speedup_end_to_end']:.2f}x | {t['speedup_backward']:.2f}x "
            f"| {t['grads_bit_identical']} |"
        )
    print()
    switches = list(next(iter(result["models"].values()))["switches"])
    print("All-on end-to-end speedup over each switch turned off on its own:")
    print()
    print("| model | " + " | ".join(f"no `{s}`" for s in switches) + " |")
    print("|---|" + "---|" * len(switches))
    for name, t in result["models"].items():
        print(f"| {name} | " + " | ".join(
            f"{t['switches'][s]['speedup_end_to_end']:.2f}x" for s in switches
        ) + " |")
    print()
    g = result["gather"]
    print(
        f"* vectorized batch gather: {g['vectorized_us_per_batch']:.0f} µs/batch vs "
        f"{g['loop_us_per_batch']:.0f} µs/batch for the per-sample loop "
        f"({g['speedup']:.1f}x, bitwise identical: {g['bitwise_identical']})"
    )
    base = result.get("seed_baseline")
    if base:
        print(
            f"* one-time A/B vs the pre-fast-path tree ({base['commit']}): "
            f"{base['speedup_end_to_end']:.2f}x end to end, "
            f"{base['speedup_backward']:.2f}x backward-only"
        )
    print()
    print(
        "Verdict: both fast paths are bit-identical to their reference\n"
        "implementations (hard assertion in `bench_train_step.py`); the\n"
        "remaining step time is the single-core GEMM floor the fast paths\n"
        "deliberately do not touch.\n"
    )


def emit_serve_scenarios() -> None:
    result = load("serve_scenarios")
    print("## Beyond the paper — serving under city-scale scenarios")
    print()
    if result is None:
        print("_results missing — run bench_serve_scenarios.py_")
        print()
        return
    report = result["scenario"]
    serving = report["serving"]
    print(
        f"The `closure-rush` event scenario (demand surge + upstream incident\n"
        f"+ a road closure that rewrites the adjacency mid-stream) driven\n"
        f"through K={result['num_shards']} sharded serving of {result['model']} "
        f"on {result['dataset']}\n"
        f"(N={result['num_nodes']}, `{result['profile']}` profile) by\n"
        "`repro.serve.run_scenario` — see `docs/scenarios.md` for the event\n"
        "model and conditional-metric semantics."
    )
    print()
    print("| metric | value |")
    print("|---|---|")
    print(f"| requests answered | {serving['requests']} |")
    print(f"| model+cache availability | {result['availability']:.2f} "
          f"(floor {result['availability_floor']:.2f}) |")
    print(f"| fallback rate | {serving['fallback_rate']:.2f} |")
    print(f"| mid-stream graph updates | {len(report['graph_updates'])} "
          f"(closure + restore, each published) |")
    print(f"| overall MAE | {report['overall']['mae']:.3f} over "
          f"{report['overall']['scored_ticks']} scored ticks |")
    surge_label = next(
        label for label in report["conditional"] if label.startswith("demandsurge")
    )
    surge = report["conditional"][surge_label]
    print(f"| surge MAE, affected-during / unaffected-during | "
          f"{surge['affected_during']['mae']:.2f} / "
          f"{surge['unaffected_during']['mae']:.2f} |")
    print(f"| latency p50 / p99 | {serving['latency_ms']['p50']:.2f} / "
          f"{serving['latency_ms']['p99']:.2f} ms |")
    print(f"| quiet-day parity with `replay_split` | "
          f"{result['quiet_day_matches_replay']} |")
    print()
    print(
        "Verdict: the conditional quadrants separate — the event's ground-truth\n"
        "effect mask points at measurably harder-to-forecast traffic — and a\n"
        "mid-stream graph rewrite rolls out without losing a request\n"
        "(asserted in `bench_serve_scenarios.py`, smoke arm `make\n"
        "scenario-smoke`).\n"
    )


def main() -> None:
    emit_header()
    emit_table2()
    emit_table3()
    emit_table4()
    emit_table5()
    emit_fig6()
    emit_fig7()
    emit_fig8()
    emit_ablation_dg()
    emit_ablation_instantiation()
    emit_profile_ops()
    emit_train_step()
    emit_serve_scenarios()


if __name__ == "__main__":
    main()
