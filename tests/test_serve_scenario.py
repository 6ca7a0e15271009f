"""The scenario harness: replay parity, graph-version plumbing, reports."""

import json

import numpy as np
import pytest

from repro.data.events import DemandSurge, RoadClosure, Scenario, event_scenario
from repro.models import build_model
from repro.serve import (
    SCENARIO_SCHEMA,
    ModelRegistry,
    ServeConfig,
    ServingEngine,
    ShardedServingEngine,
    SlidingWindowStore,
    make_servable,
    replay_split,
    run_scenario,
    save_scenario_report,
)
from repro.utils.seed import set_seed


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


def _engine(bundle):
    registry = ModelRegistry()
    registry.publish(bundle)
    store = SlidingWindowStore.for_bundle(bundle)
    return ServingEngine(registry, store, ServeConfig(max_wait_s=0.001))


def _sharded(bundle, **kwargs):
    return ShardedServingEngine(
        bundle, num_shards=2, config=ServeConfig(max_wait_s=0.001),
        transport="loopback", **kwargs,
    )


class TestGraphVersionPlumbing:
    """Satellite 2: a stale-graph cache hit cannot survive a closure."""

    def test_store_graph_tag_bumps_signature_once_per_change(self, bundle):
        store = SlidingWindowStore.for_bundle(bundle)
        row = np.zeros(bundle.spec.num_nodes, dtype=np.float32)
        before = store.append(row, 0, 0)
        assert store.set_graph_version(0) == before  # same tag: no-op
        bumped = store.set_graph_version(1)
        assert bumped == before + 1
        assert store.set_graph_version(1) == bumped  # idempotent
        assert store.graph_version == 1

    def test_append_with_changed_tag_double_bumps(self, bundle):
        store = SlidingWindowStore.for_bundle(bundle)
        row = np.zeros(bundle.spec.num_nodes, dtype=np.float32)
        first = store.append(row, 0, 0)
        second = store.append(row, 1, 0, graph_version=7)
        assert second == first + 2  # tag change + the append itself

    @pytest.mark.parametrize("front_door", [_engine, _sharded], ids=["plain", "router"])
    def test_stale_graph_cache_hit_not_served_across_closure(
        self, bundle, tiny_data, front_door
    ):
        series = tiny_data.dataset.series
        with front_door(bundle) as engine:
            history = engine.store.history
            engine.store.warm_from(
                series.values[:history],
                series.time_of_day[:history],
                series.day_of_week[:history],
            )
            assert engine.forecast().source == "model"
            assert engine.forecast().source == "cache"
            # A closure lands between observations: the rewritten graph
            # must invalidate the cached prediction even though no new
            # observation arrived.
            engine.set_graph_version(1)
            assert len(engine.cache) == 0
            assert engine.forecast().source == "model"

    def test_router_graph_rewrite_reaches_no_worker(self, bundle, tiny_data):
        series = tiny_data.dataset.series
        with _sharded(bundle) as engine:
            history = engine.store.history
            engine.store.warm_from(
                series.values[:history],
                series.time_of_day[:history],
                series.day_of_week[:history],
            )
            assert engine.forecast().source == "model"
            assert engine.forecast().source == "cache"
            posts = []
            for worker in engine.workers:
                def recorded(op, payload=(), post=worker.post):
                    posts.append((op, payload))
                    post(op, payload)

                worker.post = recorded
            engine.set_graph_version(1)
            assert posts == []  # the workers keep no cache to invalidate
            assert len(engine.cache) == 0
            assert engine.forecast().source == "model"
            # A tagged row ships the bare row: the router drops the tag.
            engine.observe(
                series.values[history], int(series.time_of_day[history]),
                int(series.day_of_week[history]), graph_version=1,
            )
            observes = [payload for op, payload in posts if op == "observe"]
            assert len(observes) == len(engine.workers)
            assert all(len(payload) == 3 for payload in observes)


class TestReplayParity:
    """Acceptance: empty event list == the existing replay_split path."""

    def test_empty_scenario_matches_replay_split(self, bundle, tiny_data):
        with _engine(bundle) as a:
            base = replay_split(a, tiny_data, steps=6, requests_per_step=3)
            base_signature = a.store.signature()
        with _engine(bundle) as b:
            result = run_scenario(
                b, tiny_data, Scenario("quiet", ()),
                steps=6, requests_per_step=3,
            )
            scenario_signature = b.store.signature()
        serving = result.report["serving"]
        assert serving["sources"] == base["sources"]
        assert serving["fallback_reasons"] == base["fallback_reasons"]
        assert serving["requests"] == base["requests"]
        # Same signature after the drive: same number of appends, no
        # graph-tag bumps — the observe call pattern is identical.
        assert scenario_signature == base_signature
        telemetry = result.report["telemetry"]
        assert telemetry["cache_hits"] == base["telemetry"]["cache_hits"]
        assert telemetry["served_by_model"] == base["telemetry"]["served_by_model"]

    def test_empty_scenario_forecasts_are_reproducible(self, bundle, tiny_data):
        runs = []
        for _ in range(2):
            with _engine(bundle) as engine:
                runs.append(run_scenario(
                    engine, tiny_data, Scenario("quiet", ()),
                    steps=6, requests_per_step=2,
                ))
        np.testing.assert_array_equal(runs[0].forecasts, runs[1].forecasts)
        assert runs[0].applied.series is tiny_data.dataset.series

    def test_empty_scenario_report_has_no_events(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            result = run_scenario(
                engine, tiny_data, Scenario("quiet", ()), steps=6,
            )
        report = result.report
        assert report["events"] == []
        assert report["conditional"] == {} and report["phases"] == {}
        assert report["graph_updates"] == []


class TestScenarioRun:
    def _run(self, bundle, tiny_data, engine, **kwargs):
        adjacency = np.asarray(tiny_data.adjacency)
        scenario = event_scenario("closure-rush", adjacency, 24, seed=3)
        with engine:
            return scenario, run_scenario(
                engine, tiny_data, scenario,
                steps=24, requests_per_step=2, **kwargs,
            )

    def test_closure_rush_through_sharded_serving(self, bundle, tiny_data):
        scenario, result = self._run(bundle, tiny_data, _sharded(bundle))
        report = result.report
        assert report["schema"] == SCENARIO_SCHEMA
        assert {e["type"] for e in report["events"]} == {
            "DemandSurge", "Incident", "RoadClosure"
        }
        # The closure produced a mid-stream rewrite and a restore, each
        # rolled out as a published bundle version.
        assert len(report["graph_updates"]) == 2
        opened, restored = report["graph_updates"]
        assert opened["closed_nodes"] and restored["closed_nodes"] == []
        assert opened["version"] is not None
        assert opened["graph_tag"] == 1 and restored["graph_tag"] == 2
        assert report["telemetry"]["num_shards"] == 2
        json.dumps(report)  # JSON-safe throughout

    def test_conditional_metrics_quadrants(self, bundle, tiny_data):
        _, result = self._run(bundle, tiny_data, _engine(bundle))
        report = result.report
        assert report["overall"]["scored_ticks"] > 0
        assert report["overall"]["mae"] is not None
        for label, cond in report["conditional"].items():
            assert set(cond) == {
                "affected_nodes", "affected_during", "affected_outside",
                "unaffected_during", "unaffected_outside",
            }, label
            assert cond["affected_nodes"] > 0
        # The surge perturbs its nodes during its window, so conditional
        # accuracy must differ from the unaffected quadrant.
        surge = next(
            cond for label, cond in report["conditional"].items()
            if label.startswith("demandsurge")
        )
        assert surge["affected_during"]["count"] > 0
        assert surge["unaffected_during"]["count"] > 0

    def test_phase_split_covers_all_requests(self, bundle, tiny_data):
        _, result = self._run(bundle, tiny_data, _engine(bundle))
        report = result.report
        total = report["serving"]["requests"]
        for label, phases in report["phases"].items():
            assert set(phases) == {"window", "pre", "during", "post"}
            covered = sum(phases[p]["requests"] for p in ("pre", "during", "post"))
            assert covered == total, label
            for phase in ("pre", "during", "post"):
                stats = phases[phase]
                assert set(stats["latency_ms"]) == {"p50", "p95", "p99", "mean"}
                assert 0.0 <= stats["fallback_rate"] <= 1.0

    def test_graph_rewrites_can_be_disabled(self, bundle, tiny_data):
        _, result = self._run(
            bundle, tiny_data, _engine(bundle), graph_rewrites=False
        )
        updates = result.report["graph_updates"]
        assert updates and all(u["version"] is None for u in updates)

    def test_scenario_seed_changes_the_schedule(self, bundle, tiny_data):
        adjacency = np.asarray(tiny_data.adjacency)
        a = event_scenario("closure-rush", adjacency, 24, seed=1)
        b = event_scenario("closure-rush", adjacency, 24, seed=2)
        assert a.events != b.events

    def test_save_scenario_report_roundtrips(self, bundle, tiny_data, tmp_path):
        _, result = self._run(bundle, tiny_data, _engine(bundle))
        path = save_scenario_report(result, tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCENARIO_SCHEMA
        assert loaded["scenario"] == "closure-rush"

    def test_event_starting_past_the_window_is_harmless(self, bundle, tiny_data):
        # An event scheduled after the replayed window clamps to an empty
        # footprint: nothing perturbed, nothing scored conditionally.
        scenario = Scenario(
            "late", (DemandSurge(start=500, nodes=(0,), duration=5, seed=0),)
        )
        with _engine(bundle) as engine:
            result = run_scenario(engine, tiny_data, scenario, steps=6)
        (cond,) = result.report["conditional"].values()
        assert cond["affected_during"]["count"] == 0
        assert cond["affected_during"]["mae"] is None
        np.testing.assert_array_equal(
            result.applied.series.values, tiny_data.dataset.series.values
        )

    def test_negative_event_start_rejected(self, bundle, tiny_data):
        with pytest.raises(ValueError):
            Scenario("bad", (RoadClosure(start=-1, nodes=(0,), seed=0),))
