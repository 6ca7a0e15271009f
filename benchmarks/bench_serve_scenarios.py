"""Scenario serving — the regression gate for the city-scale scenario engine.

Drives the named ``closure-rush`` event scenario (a demand surge, an
upstream incident, and a road closure that rewrites the adjacency
mid-stream) through K=2 sharded serving with :func:`repro.serve.run_scenario`
and gates the ``repro.serve.scenario/v1`` report:

1. **Availability.**  Every request in the drive is answered, and the
   model/cache tiers stay above the availability floor — a mid-stream
   graph rewrite must not black-hole serving.
2. **Graph rewrite round trip.**  The closure produces exactly two
   mid-stream graph updates (edges out, edges restored), each rolled out
   as a published bundle version.
3. **Conditional-MAE sanity.**  The surge's affected-during MAE exceeds
   its unaffected-during MAE — the conditional quadrants must actually
   separate perturbed from unperturbed traffic, or the effect masks are
   wired to the wrong nodes/ticks.
4. **Replay parity.**  The empty ``quiet-day`` scenario answers requests
   from exactly the same sources as the existing ``replay_split`` path.

Results land in ``benchmarks/results/serve_scenarios.json``.  The tiny
profile is the ``make scenario-smoke`` CI arm.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import profile_name, save_results
from repro.data import build_forecasting_data, load_dataset
from repro.data.events import Scenario, event_scenario
from repro.models import build_model_from_parts
from repro.serve import (
    ServeConfig,
    ShardedServingEngine,
    make_servable,
    replay_split,
    run_scenario,
)
from repro.utils.seed import set_seed

DATASET = "metr-la-sim"

_SCALE = {
    "tiny": dict(
        model="STGCN", num_nodes=16, num_steps=480, hidden=8, layers=1,
        num_shards=2, steps=24, requests_per_step=2,
    ),
    "bench": dict(
        model="STGCN", num_nodes=32, num_steps=600, hidden=16, layers=1,
        num_shards=2, steps=48, requests_per_step=4,
    ),
    "full": dict(
        model="STGCN", num_nodes=48, num_steps=600, hidden=16, layers=1,
        num_shards=4, steps=64, requests_per_step=4,
    ),
}

_AVAILABILITY_FLOOR = 0.9  # model+cache share of answered requests


def _engine(bundle, cfg) -> ShardedServingEngine:
    return ShardedServingEngine(
        bundle, num_shards=cfg["num_shards"],
        config=ServeConfig(max_wait_s=0.0005), transport="loopback",
    )


def test_serve_scenarios(benchmark):
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
    adjacency = np.asarray(data.adjacency)
    scenario = event_scenario("closure-rush", adjacency, cfg["steps"], seed=3)

    def run():
        with _engine(bundle, cfg) as engine:
            result = run_scenario(
                engine, data, scenario,
                steps=cfg["steps"], requests_per_step=cfg["requests_per_step"],
            )
        with _engine(bundle, cfg) as engine:
            quiet = run_scenario(
                engine, data, Scenario("quiet-day", (), seed=0),
                steps=cfg["steps"], requests_per_step=cfg["requests_per_step"],
            )
        with _engine(bundle, cfg) as engine:
            baseline = replay_split(
                engine, data,
                steps=cfg["steps"], requests_per_step=cfg["requests_per_step"],
            )
        return result.report, quiet.report, baseline

    report, quiet, baseline = benchmark.pedantic(run, rounds=1, iterations=1)

    serving = report["serving"]
    expected = cfg["steps"] * cfg["requests_per_step"]
    availability = (
        serving["sources"].get("model", 0) + serving["sources"].get("cache", 0)
    ) / max(serving["requests"], 1)
    surge_label = next(
        label for label in report["conditional"] if label.startswith("demandsurge")
    )
    surge = report["conditional"][surge_label]

    print(f"\n=== Scenario serving ({cfg['model']} on {DATASET}, "
          f"N={cfg['num_nodes']}, K={cfg['num_shards']} loopback shards, "
          f"{profile} profile) ===")
    print(f"closure-rush: {len(report['events'])} events, "
          f"{serving['requests']} requests, availability {availability:.2f}, "
          f"fallback rate {serving['fallback_rate']:.2f}")
    for update in report["graph_updates"]:
        closed = update["closed_nodes"]
        what = f"closed {closed}" if closed else "restored"
        print(f"  graph @ tick {update['tick']}: {what} -> {update['version']}")
    print(f"  overall mae {report['overall']['mae']:.3f} over "
          f"{report['overall']['scored_ticks']} scored ticks")
    print(f"  {surge_label}: affected-during mae "
          f"{surge['affected_during']['mae']:.3f} vs unaffected-during "
          f"{surge['unaffected_during']['mae']:.3f}")
    print(f"  latency p50 {serving['latency_ms']['p50']:.2f} ms, "
          f"p99 {serving['latency_ms']['p99']:.2f} ms")
    print(f"quiet-day parity with replay_split: "
          f"{quiet['serving']['sources'] == baseline['sources']}")

    # --- gates ---------------------------------------------------------
    assert serving["requests"] == expected, (
        f"lost requests: {serving['requests']} answered of {expected}"
    )
    assert availability >= _AVAILABILITY_FLOOR, (
        f"model+cache availability {availability:.2f} under the scenario "
        f"fell below {_AVAILABILITY_FLOOR}"
    )
    updates = report["graph_updates"]
    assert len(updates) == 2, f"expected closure + restore, got {updates}"
    assert updates[0]["closed_nodes"] and not updates[1]["closed_nodes"]
    assert all(u["version"] is not None for u in updates), (
        "the closure's rewritten adjacency was never published"
    )
    assert report["overall"]["mae"] is not None
    assert np.isfinite(report["overall"]["mae"])
    assert surge["affected_during"]["count"] > 0
    assert surge["affected_during"]["mae"] > surge["unaffected_during"]["mae"], (
        "the surge's conditional quadrants did not separate: the effect "
        "mask is not pointing at the perturbed traffic"
    )
    assert quiet["serving"]["sources"] == baseline["sources"], (
        "empty-scenario serving diverged from the replay_split path"
    )
    assert quiet["serving"]["fallback_reasons"] == baseline["fallback_reasons"]

    payload = {
        "schema": "repro.bench.serve_scenarios/v1",
        "dataset": DATASET,
        "profile": profile,
        "model": cfg["model"],
        "num_nodes": cfg["num_nodes"],
        "num_shards": cfg["num_shards"],
        "availability": availability,
        "availability_floor": _AVAILABILITY_FLOOR,
        "quiet_day_matches_replay": quiet["serving"]["sources"] == baseline["sources"],
        "scenario": report,
    }
    save_results("serve_scenarios", payload)
