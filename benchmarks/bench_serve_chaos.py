"""Serving chaos — the regression gate for self-healing sharded serving.

Proves the three claims docs/scaling.md makes for the supervision layer
(:class:`~repro.serve.ShardSupervisor` + :class:`~repro.serve.ReplayJournal`),
using the seeded fault schedules of :mod:`repro.faults.serving` so the
supervised and unsupervised arms face *identical* chaos:

1. **SIGKILL recovery.**  A K-shard closed-loop run with one seeded
   worker kill: with supervision the model tier returns on the killed
   shard within the run (recovery time in requests and seconds is read
   off the load generator's per-request timeline and reported); without
   supervision the same schedule degrades that shard permanently — every
   request after the kill is answered partly from the fallback profile.
2. **Hang containment.**  A seeded worker hang under tight per-op
   timeouts: supervision detects the unresponsive-but-alive worker via
   its consecutive-failure streak, replaces it, and keeps model-tier
   availability high; unsupervised serving pays the forecast timeout on
   every request until the hang passes.
3. **K=1 no-fault serving stays bit-identical** to the plain
   :class:`~repro.serve.ServingEngine` — the self-healing layer costs
   nothing when nothing fails.

Every request in every arm must be *answered* — chaos may degrade
answers, never lose them.

Results land in ``benchmarks/results/serve_chaos.json``.  The tiny profile
is the ``make serve-chaos-smoke`` CI arm: a K=2 process run with
one kill, gating zero unanswered requests and at least one successful
supervised restart.
"""

from __future__ import annotations

from benchmarks.common import profile_name, save_results
from repro.data import build_forecasting_data, load_dataset
from repro.faults import ServeFaultSchedule
from repro.models import build_model_from_parts
from repro.serve import (
    DegradationPolicy,
    ModelRegistry,
    ServeConfig,
    ServingEngine,
    ShardedServingEngine,
    SlidingWindowStore,
    SupervisionPolicy,
    make_servable,
    run_load,
)
from repro.utils.seed import set_seed

DATASET = "pems08-sim"

_SCALE = {
    "tiny": dict(
        model="STGCN", num_nodes=24, num_steps=480, hidden=8, layers=1,
        num_shards=2, steps=24, fault_window=12, hang_arm=False,
        hang_steps=0, hang_seconds=0.0,
    ),
    "bench": dict(
        model="STGCN", num_nodes=48, num_steps=480, hidden=16, layers=1,
        num_shards=4, steps=60, fault_window=30, hang_arm=True,
        hang_steps=40, hang_seconds=3.0,
    ),
    "full": dict(
        model="STGCN", num_nodes=48, num_steps=480, hidden=16, layers=1,
        num_shards=4, steps=80, fault_window=30, hang_arm=True,
        hang_steps=60, hang_seconds=3.0,
    ),
}

# Tight chaos-run deadlines: a worker that cannot forecast in 300 ms is a
# failed shard, and the supervisor reacts on the failure streak quickly.
_OP_TIMEOUTS = {"observe": 0.3, "forecast": 0.3, "telemetry": 2.0}
_SUPERVISION = SupervisionPolicy(
    check_interval_s=0.02, failure_threshold=2, backoff_base_s=0.01,
    backoff_max_s=0.5, max_restarts=8,
)


def _config(supervised: bool) -> ServeConfig:
    return ServeConfig(
        max_wait_s=0.0005,
        policy=DegradationPolicy(),
        op_timeouts_s=dict(_OP_TIMEOUTS),
        supervision=_SUPERVISION if supervised else None,
    )


def _drive(bundle, data, cfg, *, supervised: bool, schedule, steps: int) -> dict:
    """One closed-loop chaos run; returns the summary + recovery readout."""
    engine = ShardedServingEngine(
        bundle, num_shards=cfg["num_shards"], config=_config(supervised),
        transport="process",
    )
    with engine:
        result = run_load(
            engine, data, steps=steps, requests_per_step=1, concurrency=1,
            faults=schedule,
        )
        # Deterministic settle: force one supervision pass (a no-op if the
        # background thread already restarted mid-run), advance the stream by
        # one row so the forecast cannot come from the prediction cache, then
        # ask once more — the tiny CI profile gates on this instead of
        # in-run timing.
        if engine.supervisor is not None:
            engine.supervisor.poll_now()
        series = data.dataset.series
        engine.observe(
            series.values[-1],
            int(series.time_of_day[-1]),
            int(series.day_of_week[-1]),
        )
        settled_source = engine.forecast().source
        report = engine.telemetry_report()
    fault_request = schedule.fired[0]["request"] if schedule.fired else None
    recovery = _recovery(result.timeline, fault_request)
    return {
        "supervised": supervised,
        "requests": result.requests,
        "answered_all": result.requests == steps,
        "availability_model": result.sources.get("model", 0) / max(result.requests, 1),
        "sources": dict(result.sources),
        "fallback_reasons": dict(result.fallback_reasons),
        "latency_ms_p50": result.latency_ms_p50,
        "latency_ms_p99": result.latency_ms_p99,
        "fault_request": fault_request,
        "fired": list(schedule.fired),
        "restarts": report["restarts"],
        "partial_fallbacks": report["partial_fallbacks"],
        "model_tier_after_fault": _model_tier_after(result.timeline, fault_request),
        "settled_source": settled_source,
        **recovery,
    }


def _recovery(timeline, fault_request) -> dict:
    """Requests/seconds from the fault until the model tier answers again."""
    if fault_request is None or fault_request >= len(timeline):
        return {"recovery_requests": None, "recovery_time_s": None}
    fault_t = timeline[fault_request][0]
    for offset, (t, source, _reason) in enumerate(timeline[fault_request:]):
        if source == "model":
            return {"recovery_requests": offset, "recovery_time_s": t - fault_t}
    return {"recovery_requests": None, "recovery_time_s": None}


def _model_tier_after(timeline, fault_request) -> int:
    """How many requests after the fault were answered by the model tier."""
    if fault_request is None:
        return 0
    return sum(1 for _t, source, _r in timeline[fault_request:] if source == "model")


def _bench_identity(bundle, data) -> bool:
    """K=1 sharded loopback (supervision on) vs plain engine: bitwise equal."""
    series = data.dataset.series
    history = bundle.spec.history
    warm = (
        series.values[:history], series.time_of_day[:history],
        series.day_of_week[:history],
    )
    registry = ModelRegistry()
    registry.publish(bundle)
    store = SlidingWindowStore.for_bundle(bundle)
    with ServingEngine(registry, store, ServeConfig(max_wait_s=0.0005)) as plain:
        plain.store.warm_from(*warm)
        reference = plain.forecast()
    with ShardedServingEngine(
        bundle, num_shards=1, config=_config(supervised=True),
        transport="loopback",
    ) as sharded:
        sharded.store.warm_from(*warm)
        result = sharded.forecast()
    return (
        result.source == reference.source == "model"
        and result.values.tobytes() == reference.values.tobytes()
    )


def test_serve_chaos(benchmark):
    profile = profile_name()
    cfg = _SCALE[profile]
    set_seed(0)
    data = build_forecasting_data(
        load_dataset(DATASET, num_nodes=cfg["num_nodes"], num_steps=cfg["num_steps"])
    )
    model, _ = build_model_from_parts(
        cfg["model"],
        num_nodes=cfg["num_nodes"],
        steps_per_day=data.dataset.steps_per_day,
        adjacency=data.adjacency,
        hidden=cfg["hidden"],
        layers=cfg["layers"],
    )
    bundle = make_servable(
        cfg["model"], model, data, hidden=cfg["hidden"], layers=cfg["layers"]
    )

    def kill_schedule():
        # fault_window < steps keeps the kill early enough that recovery
        # has room to land inside the run; both arms share the seed, so
        # they share the schedule.
        return ServeFaultSchedule.seeded(
            cfg["num_shards"], cfg["fault_window"], kills=1, seed=7
        )

    def hang_schedule():
        return ServeFaultSchedule.seeded(
            cfg["num_shards"], cfg["fault_window"], hangs=1, seed=11,
            hang_seconds=cfg["hang_seconds"],
        )

    def run():
        results = {
            "kill_supervised": _drive(
                bundle, data, cfg, supervised=True, schedule=kill_schedule(),
                steps=cfg["steps"],
            ),
            "kill_unsupervised": _drive(
                bundle, data, cfg, supervised=False, schedule=kill_schedule(),
                steps=cfg["steps"],
            ),
            "k1_bitwise_identical": _bench_identity(bundle, data),
        }
        if cfg["hang_arm"]:
            results["hang_supervised"] = _drive(
                bundle, data, cfg, supervised=True, schedule=hang_schedule(),
                steps=cfg["hang_steps"],
            )
            results["hang_unsupervised"] = _drive(
                bundle, data, cfg, supervised=False, schedule=hang_schedule(),
                steps=cfg["hang_steps"],
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    sup, unsup = results["kill_supervised"], results["kill_unsupervised"]
    print(f"\n=== Serving chaos ({cfg['model']} on {DATASET}, "
          f"N={cfg['num_nodes']}, K={cfg['num_shards']} process workers, "
          f"{profile} profile) ===")
    print(f"kill @ request {sup['fault_request']}: "
          f"supervised availability {sup['availability_model']:.2f} "
          f"(recovered after {sup['recovery_requests']} requests, "
          f"{(sup['recovery_time_s'] or 0) * 1000:.0f} ms; "
          f"{sup['restarts']} restart) vs "
          f"unsupervised {unsup['availability_model']:.2f} "
          f"({unsup['model_tier_after_fault']} model-tier answers after the kill)")
    if cfg["hang_arm"]:
        hsup, hunsup = results["hang_supervised"], results["hang_unsupervised"]
        print(f"hang @ request {hsup['fault_request']} "
              f"({cfg['hang_seconds']}s stall, {_OP_TIMEOUTS['forecast']}s deadline): "
              f"supervised availability {hsup['availability_model']:.2f}, "
              f"p50 {hsup['latency_ms_p50']:.1f} ms, p99 {hsup['latency_ms_p99']:.1f} ms "
              f"vs unsupervised {hunsup['availability_model']:.2f}, "
              f"p50 {hunsup['latency_ms_p50']:.1f} ms, "
              f"p99 {hunsup['latency_ms_p99']:.1f} ms")
    print(f"K=1 no-fault serving bit-identical to plain engine: "
          f"{results['k1_bitwise_identical']}")

    # --- gates ---------------------------------------------------------
    for arm, row in results.items():
        if isinstance(row, dict):
            assert row["answered_all"], f"{arm} lost requests: {row['requests']}"
    assert results["k1_bitwise_identical"], (
        "K=1 sharded serving (supervision on) diverged from the plain engine"
    )
    assert sup["restarts"] >= 1, "supervised kill arm never restarted the worker"
    assert sup["settled_source"] == "model", (
        "the restarted worker did not return to model-tier serving"
    )
    assert unsup["restarts"] == 0, "unsupervised arm restarted a worker"
    assert unsup["model_tier_after_fault"] == 0, (
        "unsupervised kill arm served model-tier after the kill — not degraded?"
    )
    assert unsup["settled_source"] == "fallback", (
        "unsupervised arm recovered without supervision — the kill never landed?"
    )
    if profile != "tiny":
        # In-run recovery timing: only the larger profiles leave the
        # supervisor enough post-kill requests to gate wall-clock recovery.
        assert sup["recovery_requests"] is not None, (
            "supervised kill arm never recovered the model tier in-run"
        )
        assert sup["availability_model"] > unsup["availability_model"], (
            "supervision did not improve model-tier availability under the kill"
        )
    if cfg["hang_arm"]:
        hsup, hunsup = results["hang_supervised"], results["hang_unsupervised"]
        assert hsup["restarts"] >= 1, "supervised hang arm never replaced the worker"
        assert hsup["availability_model"] > hunsup["availability_model"], (
            "supervision did not improve model-tier availability under the hang"
        )

    payload = {
        "schema": "repro.bench.serve_chaos/v1",
        "dataset": DATASET,
        "model": cfg["model"],
        "profile": profile,
        "num_nodes": cfg["num_nodes"],
        "num_shards": cfg["num_shards"],
        "op_timeouts_s": dict(_OP_TIMEOUTS),
        "hang_seconds": cfg["hang_seconds"],
        **results,
    }
    save_results("serve_chaos", payload)
