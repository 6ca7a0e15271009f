"""Streaming scenario evaluation: drive event scenarios through serving.

The scenario engine's serving half: take a base recorded stream, apply a
:class:`~repro.data.events.Scenario` (timed, composable events — see
:mod:`repro.data.events`), and drive the perturbed stream through a
:class:`~repro.serve.ServingEngine` or :class:`~repro.serve.ShardedServingEngine`
exactly the way :func:`~repro.serve.replay_split` does — warm window, one
observation per tick, a burst of concurrent forecasts after each tick.

On top of the replay drive, the harness:

* threads every :class:`~repro.data.events.RoadClosure` through serving as
  a **mid-stream graph-version bump**: the closure's rewritten adjacency is
  packaged into a new servable bundle and published/activated on the
  engine (a real version rollout), and the engine's per-tick adjacency tag
  (:meth:`~repro.serve.EngineCore.set_graph_version`) invalidates
  predictions cached against the old graph;
* scores the first forecast of every tick against the *event-applied*
  ground truth, overall and **conditionally** per event — affected vs.
  unaffected nodes, during vs. outside the event — using each event's
  declared effect mask;
* slices serving behaviour per event phase (pre/during/post): fallback
  rate by reason, sources, and p50/p95/p99 latency, so a closure shows up
  as its fallback-and-recovery arc, not a blur in the run average.

The report is JSON-safe under the ``repro.serve.scenario/v1`` schema
(``benchmarks/bench_serve_scenarios.py`` gates it; ``repro scenario run``
prints it).  With an **empty event list** the drive is call-for-call
identical to ``replay_split`` — same warmup, same observe/forecast
ordering — so its outputs are bit-identical to the existing replay path
(pinned by ``tests/test_serve_scenario.py``).

No model is invoked here (lint rules R008/R009): the harness only calls
``observe``/``forecast``/``publish`` on an engine.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..data.events import AppliedScenario, Scenario, apply_events
from ..obs.telemetry import latency_summary_ms
from ..training.metrics import compute_all

__all__ = ["SCENARIO_SCHEMA", "ScenarioRunResult", "run_scenario", "save_scenario_report"]

SCENARIO_SCHEMA = "repro.serve.scenario/v1"


@dataclasses.dataclass
class ScenarioRunResult:
    """One scenario drive: the JSON report plus the raw arrays behind it.

    ``report`` is the ``repro.serve.scenario/v1`` dict; ``forecasts`` holds
    the first (synchronous) forecast of every tick, ``targets`` the
    event-applied ground truth it was scored against, and ``scored`` marks
    the ticks with a full horizon of targets available.
    """

    report: dict
    forecasts: np.ndarray  # (steps, horizon, num_nodes)
    targets: np.ndarray  # (steps, horizon, num_nodes)
    scored: np.ndarray  # (steps,) bool
    applied: AppliedScenario


def _active_bundle(engine):
    """The engine's current full-graph bundle (router or plain engine)."""
    if hasattr(engine, "bundle"):
        return engine.bundle
    return engine.registry.active_bundle()


def _publish(engine, bundle) -> str:
    """Publish + activate a rewritten bundle on either engine flavour."""
    if hasattr(engine, "partition"):  # sharded router: re-shards internally
        return engine.publish(bundle, activate=True)
    return engine.registry.publish(bundle)


def _serving_summary(records: list[tuple[int, str, str | None, float]]) -> dict:
    """Sources, fallback reasons/rate and latency over one request subset."""
    sources: dict[str, int] = {"model": 0, "cache": 0, "fallback": 0}
    reasons: dict[str, int] = {}
    latencies = []
    for _tick, source, reason, latency_s in records:
        sources[source] = sources.get(source, 0) + 1
        if reason is not None:
            reasons[reason] = reasons.get(reason, 0) + 1
        latencies.append(latency_s)
    requests = len(records)
    return {
        "requests": requests,
        "sources": sources,
        "fallback_reasons": reasons,
        "fallback_rate": (sources.get("fallback", 0) / requests) if requests else 0.0,
        "latency_ms": latency_summary_ms(latencies),
    }


def _tick_label(label: str, row_start: int, tick_start: int) -> str:
    """Rebase an applied-event label from row space back to tick space.

    ``apply_events`` labels events by their (shifted) row start; the report
    speaks tick space, where tick 0 is the first live observation.
    """
    head, _, tail = label.rpartition("@")
    suffix = tail[len(str(row_start)):]  # "" or a "#n" dedup suffix
    return f"{head}@{tick_start}{suffix}"


def _conditional_metrics(
    forecasts: np.ndarray,
    targets: np.ndarray,
    select: np.ndarray,
) -> dict:
    """Masked MAE/RMSE/MAPE over one (tick, horizon, node) selection."""
    count = int(select.sum())
    if count == 0:
        return {"count": 0, "mae": None, "rmse": None, "mape": None}
    metrics = compute_all(forecasts[select], targets[select], null_value=0.0)
    return {
        "count": count,
        **{
            key: (None if not np.isfinite(value) else float(value))
            for key, value in metrics.items()
        },
    }


def run_scenario(
    engine,
    data,
    scenario: Scenario,
    *,
    steps: int = 32,
    requests_per_step: int = 4,
    concurrency: int = 4,
    horizon: int | None = None,
    graph_rewrites: bool = True,
) -> ScenarioRunResult:
    """Drive ``scenario`` over the tail of ``data`` through ``engine``.

    Event ``start`` times are in **tick space**: tick 0 is the first live
    observation of the replayed window (the last ``steps`` rows of the
    series), exactly as in ``replay_split``.  Ground truth for scoring is
    the event-applied stream itself — the world the events created is the
    world the forecaster is judged against.

    ``graph_rewrites=True`` publishes each closure's rewritten adjacency as
    a new bundle version (and activates it) the moment the closure begins
    or lifts; ``False`` keeps the original graph being served (the tag-only
    path) for ablations.

    Returns a :class:`ScenarioRunResult`; ``result.report`` follows the
    ``repro.serve.scenario/v1`` schema.
    """
    if steps <= 0 or requests_per_step <= 0:
        raise ValueError("steps and requests_per_step must be positive")
    series = data.dataset.series
    adjacency = np.asarray(data.adjacency)
    history = engine.store.history
    total = series.values.shape[0]
    if total < history + steps:
        raise ValueError(
            f"series has {total} steps; need at least history+steps = {history + steps}"
        )
    start = total - steps
    for event in scenario.events:
        if int(event.start) < 0:
            raise ValueError(f"event {event!r} starts before tick 0")
    # Shift events from tick space into row space and apply them to the
    # full series, so forecast targets beyond the last observed tick carry
    # the events too.
    shifted = tuple(
        dataclasses.replace(event, start=int(event.start) + start)
        for event in scenario.events
    )
    applied = apply_events(series, shifted, adjacency)
    values = applied.series.values
    tod = series.time_of_day
    dow = series.day_of_week
    bundle = _active_bundle(engine)
    if horizon is None:
        horizon = engine.config.horizon or bundle.spec.horizon
    num_nodes = values.shape[1]

    updates = {update.tick: update for update in applied.graph_timeline}

    engine.store.warm_from(
        values[start - history : start],
        tod[start - history : start],
        dow[start - history : start],
    )

    records: list[tuple[int, str, str | None, float]] = []
    forecasts = np.zeros((steps, horizon, num_nodes), dtype=np.float32)
    graph_events: list[dict] = []
    graph_tag = 0

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for step in range(steps):
            row = start + step
            update = updates.get(row)
            if update is not None:
                # A closure boundary: bump the adjacency tag (invalidates
                # stale-graph cache entries even with no new observation),
                # then roll out the rewritten graph as a new version.
                graph_tag += 1
                engine.set_graph_version(graph_tag)
                version = None
                if graph_rewrites:
                    rewritten = dataclasses.replace(
                        bundle,
                        adjacency=np.asarray(update.adjacency, dtype=np.float32),
                    )
                    version = _publish(engine, rewritten)
                graph_events.append({
                    "tick": step,
                    "closed_nodes": list(update.closed_nodes),
                    "graph_tag": graph_tag,
                    "version": version,
                })
            if scenario.events:
                engine.observe(
                    values[row], int(tod[row]), int(dow[row]), graph_version=graph_tag
                )
            else:
                # Empty scenario: keep the call pattern byte-identical to
                # replay_split (no tag argument, no graph ops).
                engine.observe(values[row], int(tod[row]), int(dow[row]))
            result = engine.forecast(horizon)
            records.append((step, result.source, result.reason, result.latency_s))
            forecasts[step] = result.values
            burst = [
                pool.submit(engine.forecast, horizon)
                for _ in range(requests_per_step - 1)
            ]
            for future in burst:
                extra = future.result()
                records.append((step, extra.source, extra.reason, extra.latency_s))

    # ------------------------------------------------------------------
    # Scoring: first forecast per tick vs. the event-applied ground truth.
    # ------------------------------------------------------------------
    rows = start + np.arange(steps)
    target_rows = rows[:, None] + 1 + np.arange(horizon)[None, :]  # (S, H)
    scored = target_rows[:, -1] < total
    safe_rows = np.minimum(target_rows, total - 1)
    targets = values[safe_rows]  # (S, H, N)
    scored_sel = scored[:, None, None] & np.ones(
        (steps, horizon, num_nodes), dtype=bool
    )
    overall = _conditional_metrics(forecasts, targets, scored_sel)
    overall["scored_ticks"] = int(scored.sum())

    conditional: dict[str, dict] = {}
    phases: dict[str, dict] = {}
    display_labels = tuple(
        _tick_label(label, int(row_event.start), int(event.start))
        for event, row_event, label in zip(scenario.events, shifted, applied.labels)
    )
    for event, label, display in zip(scenario.events, applied.labels, display_labels):
        mask = applied.masks[label]  # (T, N), row space
        node_affected = mask.any(axis=0)  # (N,)
        time_active = mask.any(axis=1)  # (T,)
        affected_at_target = mask[safe_rows]  # (S, H, N)
        active_at_target = time_active[safe_rows][:, :, None]
        nodes_sel = np.broadcast_to(node_affected[None, None, :], scored_sel.shape)
        conditional[display] = {
            "affected_nodes": int(node_affected.sum()),
            "affected_during": _conditional_metrics(
                forecasts, targets, scored_sel & affected_at_target
            ),
            "affected_outside": _conditional_metrics(
                forecasts, targets, scored_sel & nodes_sel & ~active_at_target
            ),
            "unaffected_during": _conditional_metrics(
                forecasts, targets, scored_sel & ~nodes_sel & active_at_target
            ),
            "unaffected_outside": _conditional_metrics(
                forecasts, targets, scored_sel & ~nodes_sel & ~active_at_target
            ),
        }
        # Phase split in tick space: requests before / during / after the
        # event window (post is empty for permanent events).
        t0, t1 = event.window(steps)
        phases[display] = {
            "window": [int(t0), int(t1)],
            "pre": _serving_summary([r for r in records if r[0] < t0]),
            "during": _serving_summary([r for r in records if t0 <= r[0] < t1]),
            "post": _serving_summary([r for r in records if r[0] >= t1]),
        }

    report = {
        "schema": SCENARIO_SCHEMA,
        "scenario": scenario.name,
        "seed": int(scenario.seed),
        "steps": int(steps),
        "requests_per_step": int(requests_per_step),
        "horizon": int(horizon),
        "num_nodes": int(num_nodes),
        "events": [
            {"label": display, **event.describe()}
            for event, display in zip(scenario.events, display_labels)
        ],
        "overall": overall,
        "conditional": conditional,
        "phases": phases,
        "serving": _serving_summary(records),
        "graph_updates": graph_events,
        "telemetry": engine.telemetry_report(),
    }
    return ScenarioRunResult(
        report=report,
        forecasts=forecasts,
        targets=targets,
        scored=scored,
        applied=applied,
    )


def save_scenario_report(result: ScenarioRunResult, path: str | Path) -> Path:
    """Write a run's ``repro.serve.scenario/v1`` report as JSON."""
    path = Path(path)
    path.write_text(json.dumps(result.report, indent=2, sort_keys=True) + "\n")
    return path
