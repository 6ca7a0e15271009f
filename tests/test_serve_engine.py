"""The assembled serving stack: engine flows, degradation and telemetry."""

import sys
import threading

import numpy as np
import pytest

from repro.check.sanitizers import AnomalyError
from repro.models import build_model
from repro.obs import TELEMETRY_SCHEMA, MemorySink, ServingTally, latency_summary_ms
from repro.serve import (
    DegradationPolicy,
    ForecastRequest,
    ModelRegistry,
    ServableBundle,
    ServeConfig,
    ServingEngine,
    SlidingWindowStore,
    make_servable,
    replay_split,
)
from repro.tensor import is_grad_enabled
from repro.utils.seed import set_seed


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


def _engine(bundle, config=None, sink=None):
    registry = ModelRegistry()
    registry.publish(bundle)
    store = SlidingWindowStore.for_bundle(bundle)
    return ServingEngine(
        registry, store, config or ServeConfig(max_wait_s=0.001), sink=sink
    )


def _warm(engine, tiny_data, steps=None):
    series = tiny_data.dataset.series
    steps = steps if steps is not None else engine.store.history
    engine.store.warm_from(
        series.values[:steps], series.time_of_day[:steps], series.day_of_week[:steps]
    )


class TestForecastFlow:
    def test_model_then_cache(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            first = engine.forecast()
            second = engine.forecast()
        assert first.source == "model" and first.version == "v1"
        assert second.source == "cache"
        np.testing.assert_array_equal(first.values, second.values)
        assert first.values.shape == (
            bundle.spec.horizon, bundle.spec.num_nodes
        )

    def test_new_observation_invalidates_cache(self, bundle, tiny_data):
        series = tiny_data.dataset.series
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            engine.forecast()
            row = engine.store.history
            engine.observe(
                series.values[row], int(series.time_of_day[row]), int(series.day_of_week[row])
            )
            assert len(engine.cache) == 0
            result = engine.forecast()
        assert result.source == "model"

    def test_forecast_without_observations_raises(self, bundle):
        with _engine(bundle) as engine:
            with pytest.raises(RuntimeError, match="observe"):
                engine.forecast()

    def test_invalid_horizon_rejected(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            with pytest.raises(ValueError):
                engine.forecast(horizon=bundle.spec.horizon + 1)

    def test_shorter_horizon_served_from_cache(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            short = engine.forecast(horizon=3)
            full = engine.forecast()
        assert short.values.shape[0] == 3
        assert short.source == "model" and full.source == "cache"
        np.testing.assert_array_equal(short.values, full.values[:3])

    def test_every_horizon_from_one_forward(self, bundle, tiny_data):
        horizon = bundle.spec.horizon
        with _engine(bundle) as engine:
            _warm(engine, tiny_data)
            reads = {h: engine.forecast(h) for h in range(1, horizon + 1)}
            batches = engine.batcher.stats()["batches"]
            # The per-horizon answer of a dedicated batch-1 forward.
            scaled, _ = engine.batcher.run_batch([ForecastRequest(*engine.store.window())])
            scaler = engine.store.scaler
        assert batches == 1
        assert [reads[h].source for h in reads] == ["model"] + ["cache"] * (horizon - 1)
        full = reads[horizon].values
        for h, result in reads.items():
            assert result.values.shape == (h, bundle.spec.num_nodes)
            assert result.values.tobytes() == full[:h].tobytes()
            expected = scaler.inverse_transform(scaled[0][0, :h, :, 0])
            assert result.values.tobytes() == expected.tobytes()
            assert not result.values.flags.writeable

    def test_fallback_values_stay_writeable(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data, steps=2)
            result = engine.forecast(horizon=4)
        assert result.source == "fallback" and result.values.shape[0] == 4
        result.values[:] = 0.0


class TestDegradation:
    def test_cold_start_falls_back(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data, steps=2)  # window not full yet
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "cold_start"
        assert np.isfinite(result.values).all()

    def test_outage_falls_back(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            dark = np.zeros(bundle.spec.num_nodes, np.float32)
            for step in range(bundle.spec.history):
                engine.observe(dark, step, 0)
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "outage"

    def test_nan_weights_fall_back_as_anomaly(self, bundle, tiny_data):
        poisoned_state = {k: v.copy() for k, v in bundle.state.items()}
        first = next(iter(poisoned_state))
        poisoned_state[first][:] = np.nan
        poisoned = ServableBundle(
            spec=bundle.spec, state=poisoned_state, adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile, extra={},
        )
        with _engine(poisoned) as engine:
            _warm(engine, tiny_data)
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "anomaly"
        assert np.isfinite(result.values).all()

    def test_broken_servable_falls_back_as_error(self, bundle, tiny_data):
        broken = ServableBundle(
            spec=bundle.spec,
            state={k: v for k, v in list(bundle.state.items())[:-1]},  # instantiate fails
            adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile,
            extra={},
        )
        with _engine(broken) as engine:
            _warm(engine, tiny_data)
            result = engine.forecast()
        assert result.source == "fallback" and result.reason == "error"

    def test_strict_policy_reraises(self, bundle, tiny_data):
        poisoned_state = {k: np.full_like(v, np.nan) for k, v in bundle.state.items()}
        poisoned = ServableBundle(
            spec=bundle.spec, state=poisoned_state, adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile, extra={},
        )
        config = ServeConfig(
            max_wait_s=0.001,
            policy=DegradationPolicy(fallback_on_nan=False, fallback_on_error=False),
        )
        with _engine(poisoned, config) as engine:
            _warm(engine, tiny_data)
            with pytest.raises(AnomalyError):
                engine.forecast()


class TestHotSwap:
    def test_activate_switches_serving_version(self, bundle, tiny_data):
        set_seed(7)
        model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
        second = make_servable("STGCN", model, tiny_data, hidden=8, layers=1)
        registry = ModelRegistry()
        registry.publish(bundle)
        store = SlidingWindowStore.for_bundle(bundle)
        with ServingEngine(registry, store, ServeConfig(max_wait_s=0.001)) as engine:
            _warm(engine, tiny_data)
            before = engine.forecast()
            registry.publish(second)  # activates v2
            after = engine.forecast()
            registry.activate("v1")
            back = engine.forecast()
        assert before.version == "v1" and before.source == "model"
        assert after.version == "v2" and after.source == "model"
        assert not np.array_equal(before.values, after.values)
        # v1's cached prediction is still keyed under v1 and is served again.
        assert back.version == "v1" and back.source == "cache"
        np.testing.assert_array_equal(back.values, before.values)


class TestReplayAndTelemetry:
    def test_replay_exercises_model_and_cache(self, bundle, tiny_data):
        sink = MemorySink()
        with _engine(bundle, sink=sink) as engine:
            summary = replay_split(
                engine, tiny_data, steps=6, requests_per_step=3, concurrency=3
            )
            engine.emit_telemetry()
        assert summary["requests"] == 18
        assert summary["sources"]["model"] == 6
        assert summary["sources"]["cache"] == 12
        assert summary["sources"]["fallback"] == 0
        [record] = sink.records
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["event"] == "serving"
        assert record["requests"] == 18
        assert record["cache_hits"] == 12
        assert record["served_by_model"] == 6
        assert record["active_version"] == "v1"
        assert record["latency_ms_p50"] <= record["latency_ms_p99"]

    @pytest.mark.parametrize("latencies_s", [
        [],
        [0.004],
        [0.002, 0.010, 0.003, 0.050, 0.001],
        list(np.random.default_rng(3).exponential(0.01, size=257)),
    ])
    def test_latency_summary_matches_numpy(self, latencies_s):
        tally = ServingTally()
        for latency_s in latencies_s:
            tally.add("model", None, latency_s)
        latencies_ms = np.asarray(latencies_s, dtype=np.float64) * 1000.0
        for summary in (latency_summary_ms(latencies_s), tally.summary()["latency_ms"]):
            for q in (50, 95, 99):
                expected = float(np.percentile(latencies_ms, q)) if latencies_s else 0.0
                assert summary[f"p{q}"] == expected
            assert summary["mean"] == (float(latencies_ms.mean()) if latencies_s else 0.0)

    def test_empty_tally_summarises_to_zeros(self):
        assert ServingTally().summary() == {
            "requests": 0,
            "sources": {"model": 0, "cache": 0, "fallback": 0},
            "fallback_reasons": {},
            "fallback_rate": 0.0,
            "latency_ms": {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0},
        }

    def test_tally_counts_sources_reasons_and_fallback_rate(self):
        tally = ServingTally()
        answers = [
            ("model", None), ("cache", None), ("cache", None),
            ("fallback", "cold_start"), ("fallback", "outage"),
            ("fallback", "outage"), ("model", None), ("fallback", "shed"),
        ]
        for source, reason in answers:
            tally.add(source, reason, 0.001)
        summary = tally.summary()
        assert summary["requests"] == 8
        assert summary["sources"] == {"model": 2, "cache": 2, "fallback": 4}
        assert summary["fallback_reasons"] == {"cold_start": 1, "outage": 2, "shed": 1}
        assert summary["fallback_rate"] == 0.5

    def test_tally_loses_no_update_under_contention(self):
        tally = ServingTally()
        threads_n, adds = 8, 500
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(index):
                for _ in range(adds):
                    tally.add("fallback", f"reason{index % 2}", 0.001)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        summary = tally.summary()
        total = threads_n * adds
        assert summary["requests"] == total
        assert summary["sources"]["fallback"] == total
        assert summary["fallback_reasons"] == {"reason0": total // 2, "reason1": total // 2}

    def test_fallbacks_counted_in_telemetry(self, bundle, tiny_data):
        with _engine(bundle) as engine:
            _warm(engine, tiny_data, steps=1)
            engine.forecast()  # cold_start fallback
            report = engine.telemetry_report()
        assert report["fallbacks"] == 1
        assert report["fallback_reasons"] == {"cold_start": 1}
        assert report["served_by_model"] == 0


class TestConcurrentEngines:
    def test_two_guarded_engines_serve_concurrently(self, bundle, tiny_data):
        """Each engine's batcher thread enters its own anomaly guard; two
        guards in two threads must not trip each other."""
        series = tiny_data.dataset.series
        reads = 40
        engines = [_engine(bundle) for _ in range(2)]
        results: list[list] = [[], []]

        def client(engine, out):
            start = engine.store.history
            for row in range(start, start + reads):
                # A fresh observation invalidates the cache: every read is
                # a model forward.
                engine.observe(series.values[row], int(series.time_of_day[row]),
                               int(series.day_of_week[row]))
                out.append(engine.forecast())

        try:
            for engine in engines:
                _warm(engine, tiny_data)
            threads = [threading.Thread(target=client, args=(engine, out))
                       for engine, out in zip(engines, results)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            for engine in engines:
                engine.close()
        assert not any(thread.is_alive() for thread in threads)
        sources = [result.source for out in results for result in out]
        assert len(sources) == 2 * reads
        assert sources.count("model") == 2 * reads
        assert is_grad_enabled()  # the batchers' inference blocks did not leak
