"""Command-line interface.

    python -m repro list                      # available models and datasets
    python -m repro simulate --dataset metr-la-sim --out data.npz
    python -m repro train --dataset metr-la-sim --model D2STGNN --epochs 4 \
                          --checkpoint model.npz --resume state.npz
    python -m repro evaluate --checkpoint model.npz --dataset metr-la-sim
    python -m repro serve --dataset metr-la-sim --model STGCN --replay-steps 32
    python -m repro scenario list             # named event scenarios
    python -m repro scenario run --name closure-rush --workers 2
    python -m repro profile --dataset metr-la-sim --model d2stgnn
    python -m repro lint                      # repo-specific AST lint (R001-R011)
    python -m repro check --dataset metr-la-sim   # model zoo static analysis

Everything the CLI does is a thin layer over the public API; see
examples/ for the same flows in code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .check.linter import DEFAULT_LINT_PATHS
from .data import PRESETS, build_forecasting_data, load_dataset
from .data.io import load_dataset_file, save_dataset
from .models import MODEL_NAMES, STATISTICAL, build_model, canonical_model
from .training import Trainer, TrainerConfig, format_horizon_report
from .utils.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .utils.seed import set_seed


def _canonical_model(name: str) -> str:
    """Resolve a case-insensitive model name, exiting on unknown names."""
    try:
        return canonical_model(name)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None


def _get_data(args):
    if args.dataset.endswith(".npz"):
        dataset = load_dataset_file(args.dataset)
    else:
        dataset = load_dataset(
            args.dataset,
            num_nodes=getattr(args, "nodes", None),
            num_steps=getattr(args, "steps", None),
        )
    return build_forecasting_data(dataset)


def _build_model(name: str, data, hidden: int, layers: int):
    try:
        return build_model(name, data, hidden=hidden, layers=layers)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None


def cmd_experiments(args) -> int:
    """``repro experiments``: print the paper's experiment index."""
    from .experiments import EXPERIMENTS

    for spec in EXPERIMENTS.values():
        print(f"{spec.experiment_id:<16} {spec.paper_artifact:<22} {spec.description}")
        print(f"{'':<16} bench: {spec.bench}")
        print(f"{'':<16} shape: {spec.asserted_shape}")
    return 0


def cmd_list(args) -> int:
    """``repro list``: print models and dataset presets."""
    print("models:")
    for name in MODEL_NAMES:
        kind = "statistical" if name in STATISTICAL else "neural"
        print(f"  {name:<14} ({kind})")
    print("dataset presets:")
    for name, spec in PRESETS.items():
        print(
            f"  {name:<14} {spec.kind:<6} default {spec.num_nodes} nodes x "
            f"{spec.num_steps} steps (paper: {spec.reference_nodes} nodes)"
        )
    return 0


def cmd_simulate(args) -> int:
    """``repro simulate``: generate a dataset preset and write it to .npz."""
    dataset = load_dataset(args.dataset, num_nodes=args.nodes, num_steps=args.steps)
    path = save_dataset(args.out, dataset)
    print(
        f"wrote {dataset.spec.name}: {dataset.num_nodes} nodes, "
        f"{dataset.num_steps} steps, {dataset.num_edges} edges -> {path}"
    )
    return 0


def cmd_train(args) -> int:
    """``repro train``: fit a forecaster, report metrics, save a checkpoint."""
    set_seed(args.seed)
    data = _get_data(args)
    model, config = _build_model(args.model, data, args.hidden, args.layers)
    if args.model in STATISTICAL:
        model.fit(data)
        print(f"fit {args.model} (no gradient training needed)")
    else:
        from .obs import FileSink

        print(f"training {args.model} ({model.num_parameters():,} parameters)")
        sink = FileSink(args.telemetry) if args.telemetry else None
        trainer = Trainer(
            model, data,
            TrainerConfig(
                epochs=args.epochs, batch_size=args.batch_size, verbose=True,
                seed=args.seed, detect_anomaly=args.detect_anomaly,
            ),
            sink=sink,
        )
        if args.resume:
            resume_path = Path(args.resume)
            if resume_path.exists():
                print(f"resuming from {resume_path}")
                trainer.fit(resume_from=resume_path, state_path=resume_path)
            else:
                print(f"no state at {resume_path} yet; starting fresh")
                trainer.fit(state_path=resume_path)
        else:
            trainer.fit()
        if sink is not None:
            sink.close()
            print(f"telemetry -> {args.telemetry}")
    trainer = Trainer(model, data) if args.model not in STATISTICAL else None
    from .training import evaluate_split

    print()
    print(format_horizon_report(args.model, evaluate_split(model, data, split="test")))
    if args.checkpoint and args.model not in STATISTICAL:
        path = save_checkpoint(
            args.checkpoint, model, config,
            extra={"model": args.model, "dataset": args.dataset},
        )
        print(f"\ncheckpoint -> {path}")
    elif args.checkpoint:
        print("\n(statistical models carry no parameters; checkpoint skipped)")
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: op-level hotspot profile of real training steps.

    Runs a few warm-up steps uninstrumented, then profiles forward +
    backward + optimizer steps under :class:`repro.obs.Profiler`, prints the
    top-k op and module-scope tables, and writes the machine-readable
    baseline (schema ``repro.obs.profile/v1``) to ``--out``.

    With ``--train-step`` it instead times full optimisation steps under the
    engine's fast and reference backward configurations and with each
    fast-path switch off (:func:`repro.obs.compare_fast_reference`) and writes
    ``BENCH_train_step.json`` (schema ``repro.obs.train_step/v1``).
    """
    from .obs import Profiler, annotate_model_scopes, compare_fast_reference
    from .optim import Adam, clip_grad_norm
    from .tensor import Tensor, functional as F

    name = _canonical_model(args.model)
    if name in STATISTICAL:
        raise SystemExit(f"{name} is a statistical model: no tensor ops to profile")
    if args.batches < 1:
        raise SystemExit("--batches must be >= 1")
    if args.warmup < 0:
        raise SystemExit("--warmup must be >= 0")
    set_seed(args.seed)
    data = _get_data(args)
    model, _ = _build_model(name, data, args.hidden, args.layers)
    if args.train_step:
        timing = compare_fast_reference(
            model, data,
            batch_size=args.batch_size, steps=args.batches, warmup=args.warmup,
        )
        fast, reference = timing["fast"], timing["reference"]
        print(f"timed {fast['steps']} training steps per configuration "
              f"({fast['rounds']} alternated rounds) of {name} on {args.dataset} "
              f"(batch size {fast['batch_size']}, {model.num_parameters():,} parameters)")
        print(f"  fast:      {fast['step_ms_min']:8.2f} ms/step min "
              f"({fast['samples_per_sec']:7.1f} samples/s, "
              f"backward {fast['backward_us_min']:9.0f} us)")
        print(f"  reference: {reference['step_ms_min']:8.2f} ms/step min "
              f"({reference['samples_per_sec']:7.1f} samples/s, "
              f"backward {reference['backward_us_min']:9.0f} us)")
        print(f"  speedup:   x{timing['speedup_end_to_end']:.2f} end-to-end, "
              f"x{timing['speedup_backward']:.2f} backward")
        print("  all-on over one switch off: " + ", ".join(
            f"{switch} x{t['speedup_end_to_end']:.2f}"
            for switch, t in timing["switches"].items()
        ))
        payload = {
            "generated_by": "repro profile --train-step",
            "schema": "repro.obs.train_step/v1",
            "model": name,
            "dataset": args.dataset,
            "num_parameters": model.num_parameters(),
            **timing,
        }
        out = Path(args.out if args.out else "BENCH_train_step.json")
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"-> {out}")
        return 0
    annotate_model_scopes(model)
    optimizer = Adam(model.parameters(), lr=0.001)
    scaler = data.scaler
    loader = data.loader("train", batch_size=args.batch_size, shuffle=False)
    batches = []
    for batch in loader:
        batches.append(batch)
        if len(batches) >= args.warmup + args.batches:
            break

    def step(batch) -> None:
        optimizer.zero_grad()
        prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
        loss = F.masked_mae_loss(prediction, Tensor(batch.y))
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()

    for batch in batches[: args.warmup]:
        step(batch)
    profiled = batches[args.warmup :]
    with Profiler() as prof:
        for batch in profiled:
            step(batch)

    print(f"profiled {len(profiled)} training steps of {name} on {args.dataset} "
          f"(batch size {args.batch_size}, {model.num_parameters():,} parameters)\n")
    print(prof.format_table(top=args.top))
    payload = {
        "generated_by": "repro profile",
        "model": name,
        "dataset": args.dataset,
        "batches": len(profiled),
        "batch_size": args.batch_size,
        "num_parameters": model.num_parameters(),
        **prof.to_dict(),
    }
    out = Path(args.out if args.out else "BENCH_profile.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\n{prof.distinct_ops()} distinct ops -> {out}")
    return 0


def cmd_lint(args) -> int:
    """``repro lint``: run the repo-specific AST linter.

    Lints every python file under the given paths with the R001-R010 rules
    (see ``docs/static-analysis.md``); exits 1 only when a finding survives
    suppression comments, so CI can gate on it.  A run where everything is
    ``# lint: disable``-suppressed exits 0 and reports the suppression
    count instead of claiming to be clean.
    """
    from .check import format_findings, lint_paths_report

    run = lint_paths_report(tuple(args.paths), root=args.root)
    if args.json:
        print(json.dumps(
            {
                "findings": [vars(f) for f in run.findings],
                "total": len(run.findings),
                "suppressed": len(run.suppressed),
            },
            indent=2,
        ))
    else:
        print(format_findings(list(run.findings), suppressed=len(run.suppressed)))
    return 0 if run.ok else 1


def cmd_check(args) -> int:
    """``repro check [models|tape]``: static analysis over the model zoo.

    ``models`` (the default) runs every neural model (or ``--model``)
    against dataset presets on a probe batch and reports shape-contract
    breaks, dead parameters and float64 drift.  ``tape`` records one
    forward+backward per (model, preset) and runs the tape-IR audit —
    lifetime/arena consistency (T001), mutation hazards (T002), dead
    values (T003) and fusion candidates (T004, informational).  Both exit
    1 on error findings; ``--json`` prints the machine-readable report
    (``repro.check.models/v1`` / ``repro.check.tape/v1``) and ``--out``
    additionally writes it to a file.
    """
    models = [args.model] if args.model else None
    datasets = [args.dataset] if args.dataset else None
    try:
        if args.target == "tape":
            from .check import audit_models, format_tape_report, tape_report_dict

            audits = audit_models(models=models, datasets=datasets)
            report = tape_report_dict(audits)
            text = format_tape_report(audits)
        else:
            from .check import analyze_models, format_model_report, model_report_dict

            checks = analyze_models(models=models, datasets=datasets)
            report = model_report_dict(checks)
            text = format_model_report(checks)
    except (KeyError, ValueError) as error:
        raise SystemExit(error.args[0]) from None
    print(json.dumps(report, indent=2) if args.json else text)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"-> {args.out}")
    return 1 if report["findings_total"] else 0


def cmd_evaluate(args) -> int:
    """``repro evaluate``: evaluate a saved checkpoint on a dataset split."""
    data = _get_data(args)
    info = load_checkpoint(args.checkpoint)
    name = info["meta"]["extra"].get("model", info["meta"]["model_class"])
    config = info["meta"]["config"] or {}
    hidden = config.get("hidden_dim", 32)
    layers = config.get("num_layers", 2)
    model, _ = _build_model("D2STGNN" if name == "D2STGNN" else name, data, hidden, layers)
    load_checkpoint(args.checkpoint, model)
    from .training import evaluate_split

    print(format_horizon_report(f"{name} ({args.split})", evaluate_split(model, data, split=args.split)))
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: replay a recorded stream through the serving stack.

    Packages the model into a servable bundle (or loads one from
    ``--servable``), publishes it to an in-process registry, then drives a
    :class:`~repro.serve.ServingEngine` over the tail of the dataset:
    streaming ingestion, micro-batched forwards, prediction caching and
    historical-average degradation, with the telemetry summary printed (and
    optionally written as JSON lines via ``--telemetry``).

    ``--workers K`` (K > 1) serves through the sharded stack instead
    (:class:`~repro.serve.ShardedServingEngine`): the graph is partitioned
    into K spatial shards, each behind its own worker over ``--transport``.
    ``--rps`` switches the drive from the closed-loop replay to the
    open-loop Poisson load generator, where ``--max-inflight`` admission
    control and load shedding become observable (see docs/scaling.md).
    ``--supervise`` adds self-healing: dead or hung workers are restarted
    with bounded backoff and re-hydrated from the router's replay journal.
    """
    from .obs import FileSink
    from .serve import (
        DegradationPolicy,
        ModelRegistry,
        ServableBundle,
        ServeConfig,
        ServingEngine,
        ShardedServingEngine,
        SlidingWindowStore,
        SupervisionPolicy,
        make_servable,
        replay_split,
        run_load,
    )

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    set_seed(args.seed)
    data = _get_data(args)
    if args.servable:
        try:
            bundle = ServableBundle.load(args.servable)
        except CheckpointError as error:
            raise SystemExit(str(error)) from None
        name = bundle.spec.model
    else:
        name = _canonical_model(args.model)
        if name in STATISTICAL:
            raise SystemExit(
                f"{name} is a statistical baseline; only neural models are servable"
            )
        model, _ = _build_model(name, data, args.hidden, args.layers)
        if args.checkpoint:
            load_checkpoint(args.checkpoint, model)
        bundle = make_servable(
            name, model, data, hidden=args.hidden, layers=args.layers,
            extra={"dataset": args.dataset},
        )
    if args.save_servable:
        path = bundle.save(args.save_servable)
        print(f"servable bundle -> {path}")
    sink = FileSink(args.telemetry) if args.telemetry else None
    if args.supervise and args.workers <= 1:
        raise SystemExit("--supervise requires --workers > 1 (the sharded stack)")
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        policy=DegradationPolicy(
            outage_threshold=args.outage_threshold,
            max_inflight=args.max_inflight,
            shed_on_overload=not args.no_shed,
        ),
        supervision=SupervisionPolicy() if args.supervise else None,
    )
    if args.workers > 1:
        engine = ShardedServingEngine(
            bundle, num_shards=args.workers, config=config,
            transport=args.transport, halo_hops=args.halo_hops, sink=sink,
        )
        version = engine.active_version
    else:
        registry = ModelRegistry()
        version = registry.publish(bundle)
        store = SlidingWindowStore.for_bundle(bundle)
        engine = ServingEngine(registry, store, config, sink=sink)
    with engine:
        if args.rps:
            result = run_load(
                engine, data,
                rps=args.rps, duration_s=args.duration,
                steps=args.replay_steps, concurrency=args.concurrency,
                seed=args.seed,
            )
            telemetry = engine.emit_telemetry()
            print(f"served {name} {version} open-loop: {result.requests} requests "
                  f"({result.offered_rps:.0f} rps offered, "
                  f"{result.achieved_rps:.0f} achieved), {result.shed} shed")
            print(f"  sources:   {result.sources} {result.fallback_reasons}")
            print(f"  latency:   p50 {result.latency_ms_p50:.2f} ms, "
                  f"p95 {result.latency_ms_p95:.2f} ms, "
                  f"p99 {result.latency_ms_p99:.2f} ms")
        else:
            summary = replay_split(
                engine, data,
                steps=args.replay_steps,
                requests_per_step=args.requests_per_step,
                concurrency=args.concurrency,
            )
            engine.emit_telemetry()
            telemetry = summary["telemetry"]
            print(f"served {name} {version}: {summary['requests']} requests over "
                  f"{summary['steps']} observation ticks")
            print(f"  sources:   model {summary['sources']['model']}, "
                  f"cache {summary['sources']['cache']}, "
                  f"fallback {summary['sources']['fallback']} {summary['fallback_reasons']}")
            print(f"  batching:  {telemetry['batches']} batches, "
                  f"mean size {telemetry['mean_batch_size']:.2f}, "
                  f"max queue depth {telemetry['queue_depth_max']}")
            print(f"  latency:   p50 {telemetry['latency_ms_p50']:.2f} ms, "
                  f"p95 {telemetry['latency_ms_p95']:.2f} ms, "
                  f"p99 {telemetry['latency_ms_p99']:.2f} ms")
            print(f"  cache:     {telemetry['cache_hits']} hits / "
                  f"{telemetry['cache_misses']} misses "
                  f"(hit rate {telemetry['cache_hit_rate']:.2f})")
    if args.workers > 1:
        supervised = " (supervised)" if args.supervise else ""
        print(f"  sharding:  {args.workers} workers over {args.transport} "
              f"transport{supervised}")
    if sink is not None:
        sink.close()
        print(f"  telemetry -> {args.telemetry}")
    return 0


def cmd_scenario(args) -> int:
    """``repro scenario``: named event scenarios against the serving stack.

    ``repro scenario list`` prints the named event scenarios (composable
    timed events — incidents, road closures, demand surges, special
    events, sensor bias, regime shifts; see :mod:`repro.data.events`) and
    the static dataset scenario presets.

    ``repro scenario run`` drives one scenario through a serving engine:
    the events perturb the tail of the dataset's stream, every road
    closure rewrites the adjacency mid-stream (published to the engine as
    a new bundle version plus a graph-version tag that invalidates stale
    cached predictions), and the run is scored *conditionally* — MAE on
    affected vs. unaffected nodes, during vs. outside each event — on top
    of the usual serving telemetry.  ``--out`` writes the full
    ``repro.serve.scenario/v1`` report as JSON.
    """
    import numpy as np

    from .data import EVENT_SCENARIOS, SCENARIOS, event_scenario
    from .serve import (
        ModelRegistry,
        ServeConfig,
        ServingEngine,
        ShardedServingEngine,
        SlidingWindowStore,
        make_servable,
        run_scenario,
        save_scenario_report,
    )

    if args.action == "list":
        print("event scenarios (repro scenario run --name NAME):")
        for name, description in sorted(EVENT_SCENARIOS.items()):
            print(f"  {name:<14} {description}")
        print("dataset scenario presets (repro.data.scenario_config):")
        for name in sorted(SCENARIOS):
            print(f"  {name}")
        return 0

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    set_seed(args.seed)
    data = _get_data(args)
    name = _canonical_model(args.model)
    if name in STATISTICAL:
        raise SystemExit(
            f"{name} is a statistical baseline; only neural models are servable"
        )
    model, _ = _build_model(name, data, args.hidden, args.layers)
    if args.checkpoint:
        load_checkpoint(args.checkpoint, model)
    bundle = make_servable(
        name, model, data, hidden=args.hidden, layers=args.layers,
        extra={"dataset": args.dataset},
    )
    adjacency = np.asarray(data.adjacency)
    try:
        scenario = event_scenario(
            args.name, adjacency, args.replay_steps, seed=args.seed
        )
    except KeyError as error:
        raise SystemExit(error.args[0]) from None
    config = ServeConfig(max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1000.0)
    if args.workers > 1:
        engine = ShardedServingEngine(
            bundle, num_shards=args.workers, config=config, transport=args.transport,
        )
    else:
        registry = ModelRegistry()
        registry.publish(bundle)
        engine = ServingEngine(registry, SlidingWindowStore.for_bundle(bundle), config)
    with engine:
        result = run_scenario(
            engine, data, scenario,
            steps=args.replay_steps,
            requests_per_step=args.requests_per_step,
            concurrency=args.concurrency,
        )
    report = result.report
    print(f"scenario {scenario.name} (seed {scenario.seed}): "
          f"{len(report['events'])} events over {report['steps']} ticks, "
          f"{report['serving']['requests']} requests")
    for update in report["graph_updates"]:
        closed = update["closed_nodes"]
        what = f"closed nodes {closed}" if closed else "graph restored"
        print(f"  graph:     tick {update['tick']}: {what} "
              f"-> version {update['version']}")
    overall = report["overall"]
    mae = "n/a" if overall["mae"] is None else f"{overall['mae']:.3f}"
    print(f"  overall:   mae {mae} over {overall['scored_ticks']} scored ticks")
    for label, cond in report["conditional"].items():
        during = cond["affected_during"]["mae"]
        outside = cond["affected_outside"]["mae"]
        during = "n/a" if during is None else f"{during:.3f}"
        outside = "n/a" if outside is None else f"{outside:.3f}"
        print(f"  {label}: affected-node mae {during} during, {outside} outside "
              f"({cond['affected_nodes']} nodes)")
    serving = report["serving"]
    latency = serving["latency_ms"]
    print(f"  serving:   sources {serving['sources']} "
          f"{serving['fallback_reasons']}, fallback rate "
          f"{serving['fallback_rate']:.2f}")
    print(f"  latency:   p50 {latency['p50']:.2f} ms, p95 {latency['p95']:.2f} ms, "
          f"p99 {latency['p99']:.2f} ms")
    if args.out:
        path = save_scenario_report(result, args.out)
        print(f"  report -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models and dataset presets").set_defaults(fn=cmd_list)
    sub.add_parser(
        "experiments", help="list the paper's experiments and their benches"
    ).set_defaults(fn=cmd_experiments)

    p = sub.add_parser("simulate", help="generate a dataset and save it to .npz")
    p.add_argument("--dataset", default="metr-la-sim", choices=sorted(PRESETS))
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train a forecaster")
    p.add_argument("--dataset", default="metr-la-sim",
                   help="preset name or a .npz written by `repro simulate`")
    p.add_argument("--model", default="D2STGNN", choices=MODEL_NAMES)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None, help="where to save the trained model")
    p.add_argument("--resume", default=None, metavar="STATE",
                   help="training-state file: resume from it if present, and "
                        "keep it updated after every epoch (crash-safe)")
    p.add_argument("--telemetry", default=None,
                   help="write per-epoch JSON-lines telemetry to this file")
    p.add_argument("--detect-anomaly", action="store_true",
                   help="raise on the first NaN/Inf, naming the originating op")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default="metr-la-sim")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("serve", help="replay a stream through the online-inference stack")
    p.add_argument("--dataset", default="metr-la-sim",
                   help="preset name or a .npz written by `repro simulate`")
    p.add_argument("--model", default="D2STGNN",
                   help="model name (case-insensitive); statistical baselines are rejected")
    p.add_argument("--checkpoint", default=None,
                   help="trained checkpoint to serve (default: untrained weights)")
    p.add_argument("--servable", default=None,
                   help="serve an existing bundle instead of packaging one")
    p.add_argument("--save-servable", default=None,
                   help="also write the packaged bundle to this .npz path")
    p.add_argument("--replay-steps", type=int, default=32,
                   help="observation ticks to replay from the series tail")
    p.add_argument("--requests-per-step", type=int, default=4)
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--workers", type=int, default=1,
                   help="spatial shards; >1 serves through the sharded router")
    p.add_argument("--transport", default="process",
                   choices=("process", "loopback"),
                   help="how shard workers are hosted when --workers > 1")
    p.add_argument("--halo-hops", type=int, default=1,
                   help="halo ring width around each shard (see docs/scaling.md)")
    p.add_argument("--supervise", action="store_true",
                   help="self-heal shard workers: health checks, bounded-backoff "
                        "restarts, replay-journal re-hydration (--workers > 1)")
    p.add_argument("--rps", type=float, default=None,
                   help="open-loop Poisson arrival rate; omit for closed-loop replay")
    p.add_argument("--duration", type=float, default=2.0,
                   help="open-loop run length in seconds (with --rps)")
    p.add_argument("--max-inflight", type=int, default=None,
                   help="router admission-control limit; overload arrivals are shed")
    p.add_argument("--no-shed", action="store_true",
                   help="keep the --max-inflight limit visible but let requests queue")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="micro-batcher coalescing window in milliseconds")
    p.add_argument("--outage-threshold", type=float, default=0.5,
                   help="window outage fraction above which requests degrade")
    p.add_argument("--telemetry", default=None,
                   help="write the serving summary record to this JSON-lines file")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "scenario",
        help="run named event scenarios (closures, surges, incidents) "
             "through the serving stack with conditional accuracy",
    )
    p.add_argument("action", choices=("run", "list"),
                   help="'run' drives a scenario through serving; "
                        "'list' prints the available scenario names")
    p.add_argument("--name", default="closure-rush",
                   help="event scenario name (see `repro scenario list`)")
    p.add_argument("--dataset", default="metr-la-sim",
                   help="preset name or a .npz written by `repro simulate`")
    p.add_argument("--model", default="STGCN",
                   help="model name (case-insensitive); statistical baselines are rejected")
    p.add_argument("--checkpoint", default=None,
                   help="trained checkpoint to serve (default: untrained weights)")
    p.add_argument("--replay-steps", type=int, default=48,
                   help="observation ticks; event times are placed within them")
    p.add_argument("--requests-per-step", type=int, default=4)
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--workers", type=int, default=1,
                   help="spatial shards; >1 serves through the sharded router")
    p.add_argument("--transport", default="process",
                   choices=("process", "loopback"),
                   help="how shard workers are hosted when --workers > 1")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="micro-batcher coalescing window in milliseconds")
    p.add_argument("--out", default=None,
                   help="write the repro.serve.scenario/v1 report to this JSON path")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("profile", help="profile op-level hotspots of training steps")
    p.add_argument("--dataset", default="metr-la-sim",
                   help="preset name or a .npz written by `repro simulate`")
    p.add_argument("--model", default="D2STGNN",
                   help="model name (case-insensitive); statistical models are rejected")
    p.add_argument("--batches", type=int, default=2,
                   help="training steps to profile; with --train-step, timed steps "
                        "per configuration per round")
    p.add_argument("--warmup", type=int, default=1,
                   help="uninstrumented steps first; with --train-step, repeated "
                        "before every timed leg")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=10, help="rows in the printed tables")
    p.add_argument("--train-step", action="store_true",
                   help="time full train steps (fast vs reference backward paths) "
                        "instead of op-level profiling")
    p.add_argument("--out", default=None,
                   help="where to write the machine-readable result "
                        "(default BENCH_profile.json, or BENCH_train_step.json "
                        "with --train-step)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("lint", help="run the repo-specific AST linter (rules R001-R011)")
    p.add_argument("paths", nargs="*", default=list(DEFAULT_LINT_PATHS),
                   help="files or directories to lint (default: src examples benchmarks)")
    p.add_argument("--root", default=".", help="repository root the paths are relative to")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("check", help="static analysis: model zoo checks or the tape-IR audit")
    p.add_argument("target", nargs="?", default="models", choices=("models", "tape"),
                   help="'models' = shapes/dtypes/dead parameters (default); "
                        "'tape' = record a step per pair and audit the tape IR "
                        "(rules T001-T004)")
    p.add_argument("--model", default=None,
                   help="analyze one model (case-insensitive; default: all neural models)")
    p.add_argument("--dataset", default=None, choices=sorted(PRESETS),
                   help="analyze against one preset (default: all presets)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (schema repro.check.models/v1 "
                        "or repro.check.tape/v1)")
    p.add_argument("--out", default=None,
                   help="also write the machine-readable report to this path")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
