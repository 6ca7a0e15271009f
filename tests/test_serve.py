"""Unit coverage of the serving building blocks.

Registry/bundle round-trips, ring-buffered ingestion, the prediction cache,
micro-batch coalescing and the historical-average fallback math — each in
isolation; ``test_serve_engine.py`` covers the assembled stack.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines import HistoricalAverage
from repro.models import build_model
from repro.serve import (
    ForecastRequest,
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    ServableBundle,
    SlidingWindowStore,
    fallback_forecast,
    make_servable,
)
from repro.utils.checkpoint import CheckpointError
from repro.utils.seed import set_seed


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


class TestServableBundle:
    def test_save_load_round_trip(self, bundle, tmp_path):
        path = bundle.save(tmp_path / "stgcn.npz")
        loaded = ServableBundle.load(path)
        assert loaded.spec == bundle.spec
        assert set(loaded.state) == set(bundle.state)
        for key in bundle.state:
            np.testing.assert_array_equal(loaded.state[key], bundle.state[key])
        np.testing.assert_array_equal(loaded.adjacency, bundle.adjacency)
        np.testing.assert_array_equal(loaded.fallback_profile, bundle.fallback_profile)

    def test_instantiate_restores_parameters(self, bundle):
        model = bundle.instantiate()
        assert not model.training  # ready to serve, dropout off
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, bundle.state[name])

    def test_scaler_round_trips_statistics(self, bundle, tiny_data):
        scaler = bundle.scaler()
        assert scaler.mean == tiny_data.scaler.mean
        assert scaler.std == tiny_data.scaler.std
        assert scaler.mask_nulls == tiny_data.scaler.mask_nulls

    def test_corrupted_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError):
            ServableBundle.load(path)

    def test_truncated_file_raises_checkpoint_error(self, bundle, tmp_path):
        path = bundle.save(tmp_path / "stgcn.npz")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            ServableBundle.load(path)

    def test_foreign_checkpoint_rejected(self, bundle, tiny_data, tmp_path):
        from repro.utils.checkpoint import save_checkpoint

        model = bundle.instantiate()
        path = save_checkpoint(tmp_path / "plain.npz", model)
        with pytest.raises(CheckpointError, match="not a servable"):
            ServableBundle.load(path)

    def test_mismatched_state_raises_on_instantiate(self, bundle):
        broken = ServableBundle(
            spec=bundle.spec,
            state={k: v for k, v in list(bundle.state.items())[:-1]},
            adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile,
            extra={},
        )
        with pytest.raises(CheckpointError):
            broken.instantiate()

    def test_statistical_models_rejected(self, tiny_data):
        ha = HistoricalAverage(tiny_data.dataset.steps_per_day).fit(tiny_data)
        with pytest.raises(ValueError, match="statistical"):
            make_servable("HA", ha, tiny_data)


class TestModelRegistry:
    def test_publish_assigns_monotone_versions(self, bundle):
        registry = ModelRegistry()
        assert registry.publish(bundle) == "v1"
        assert registry.publish(bundle, activate=False) == "v2"
        assert registry.versions() == ("v1", "v2")
        assert registry.active_version == "v1"

    def test_hot_swap_changes_resolution(self, bundle):
        registry = ModelRegistry()
        registry.publish(bundle)
        registry.publish(bundle)
        assert registry.resolve()[0] == "v2"
        registry.activate("v1")
        assert registry.resolve()[0] == "v1"

    def test_resolve_caches_instances(self, bundle):
        registry = ModelRegistry()
        registry.publish(bundle)
        _, first, _ = registry.resolve()
        _, second, _ = registry.resolve()
        assert first is second

    def test_unknown_version_raises(self, bundle):
        registry = ModelRegistry()
        registry.publish(bundle)
        with pytest.raises(KeyError):
            registry.activate("v9")

    def test_duplicate_version_raises(self, bundle):
        registry = ModelRegistry()
        registry.publish(bundle, version="gold")
        with pytest.raises(ValueError):
            registry.publish(bundle, version="gold")

    def test_empty_registry_raises(self):
        with pytest.raises(RuntimeError):
            ModelRegistry().resolve()

    def test_publish_path_round_trips(self, bundle, tmp_path):
        registry = ModelRegistry()
        path = bundle.save(tmp_path / "b.npz")
        version = registry.publish_path(path)
        assert registry.active_bundle().spec == bundle.spec
        assert version == "v1"


class TestSlidingWindowStore:
    def _store(self, tiny_data, history=4):
        return SlidingWindowStore(
            history=history,
            num_nodes=tiny_data.dataset.num_nodes,
            scaler=tiny_data.scaler,
        )

    def test_ring_keeps_latest_history(self, tiny_data):
        store = self._store(tiny_data)
        nodes = tiny_data.dataset.num_nodes
        for step in range(7):  # wraps the 4-slot ring
            store.append(np.full(nodes, 10.0 + step, np.float32), step % 288, 2)
        x, tod, _ = store.window()
        expected = tiny_data.scaler.transform(
            np.stack([np.full(nodes, 10.0 + s, np.float32) for s in range(3, 7)])
        )
        np.testing.assert_array_equal(x[0, :, :, 0], expected)
        assert list(tod[0]) == [3, 4, 5, 6]

    def test_not_ready_until_full(self, tiny_data):
        store = self._store(tiny_data)
        assert not store.ready
        with pytest.raises(RuntimeError, match="not ready"):
            store.window()
        for step in range(4):
            store.append(np.ones(tiny_data.dataset.num_nodes), step, 0)
        assert store.ready and len(store) == 4

    def test_nulls_neutralised_at_ingest(self, tiny_data):
        store = self._store(tiny_data)
        nodes = tiny_data.dataset.num_nodes
        dark = np.full(nodes, 60.0, np.float32)
        dark[0] = 0.0  # one sensor in outage
        for step in range(4):
            store.append(dark, step, 0)
        x, _, _ = store.window()
        assert np.all(x[0, :, 0, 0] == 0.0)  # outage -> scaled-space mean
        healthy = tiny_data.scaler.transform(np.array([60.0], np.float32))[0]
        assert np.all(x[0, :, 1:, 0] == healthy)

    def test_outage_fraction(self, tiny_data):
        store = self._store(tiny_data)
        nodes = tiny_data.dataset.num_nodes
        half_dark = np.full(nodes, 50.0, np.float32)
        half_dark[: nodes // 2] = 0.0
        for step in range(4):
            store.append(half_dark, step, 0)
        assert store.outage_fraction() == pytest.approx(0.5)
        lit = np.full(nodes, 50.0, np.float32)
        for step in range(store.history):  # the ring wraps: the dark rows leave
            store.append(lit, step, 0)
        assert store.outage_fraction() == 0.0
        store.append(half_dark, 0, 0)
        assert store.outage_fraction() == pytest.approx(0.5 / store.history)

    def test_signature_is_monotone(self, tiny_data):
        store = self._store(tiny_data)
        nodes = tiny_data.dataset.num_nodes
        signatures = [store.append(np.ones(nodes), s, 0) for s in range(5)]
        assert signatures == sorted(set(signatures))
        assert store.signature() == signatures[-1]

    def test_last_time_and_warm_from(self, tiny_data):
        store = self._store(tiny_data)
        series = tiny_data.dataset.series
        store.warm_from(series.values[:6], series.time_of_day[:6], series.day_of_week[:6])
        assert store.last_time() == (
            int(series.time_of_day[5]), int(series.day_of_week[5])
        )

    def test_wrong_row_size_raises(self, tiny_data):
        store = self._store(tiny_data)
        with pytest.raises(ValueError):
            store.append(np.ones(3), 0, 0)

    def test_for_bundle_matches_spec(self, bundle):
        store = SlidingWindowStore.for_bundle(bundle)
        assert store.history == bundle.spec.history
        assert store.num_nodes == bundle.spec.num_nodes
        assert store.scaler.mean == bundle.spec.scaler_mean


class TestPredictionCache:
    def test_miss_then_hit(self):
        cache = PredictionCache()
        assert cache.get(("v1", 1)) is None
        cache.put(("v1", 1), np.arange(3.0))
        np.testing.assert_array_equal(cache.get(("v1", 1)), np.arange(3.0))
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_entries_are_frozen(self):
        cache = PredictionCache()
        value = np.arange(3.0)
        cache.put(("v1", 1), value)
        fetched = cache.get(("v1", 1))
        assert fetched is value  # owned and shared, not copied
        for array in (value, fetched, fetched[:2]):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = -1.0
        np.testing.assert_array_equal(cache.get(("v1", 1)), np.arange(3.0))

    def test_lru_eviction(self):
        cache = PredictionCache(capacity=2)
        cache.put(("v1", 1), np.zeros(1))
        cache.put(("v1", 2), np.zeros(1))
        cache.get(("v1", 1))  # refresh 1; 2 becomes LRU
        cache.put(("v1", 3), np.zeros(1))
        assert cache.get(("v1", 2)) is None
        assert cache.get(("v1", 1)) is not None

    def test_invalidate_by_version(self):
        cache = PredictionCache()
        cache.put(("v1", 1), np.zeros(1))
        cache.put(("v2", 1), np.zeros(1))
        assert cache.invalidate("v1") == 1
        assert cache.get(("v1", 1)) is None
        assert cache.get(("v2", 1)) is not None

    def test_invalidate_stale_signatures(self):
        cache = PredictionCache()
        cache.put(("v1", 1), np.zeros(1))
        cache.put(("v1", 2), np.zeros(1))
        assert cache.invalidate_stale(2) == 1
        assert len(cache) == 1
        assert cache.get(("v1", 2)) is not None


class TestMicroBatcher:
    @pytest.fixture()
    def registry(self, bundle):
        registry = ModelRegistry()
        registry.publish(bundle)
        return registry

    def _requests(self, tiny_data, bundle, count):
        series = tiny_data.dataset.series
        history = bundle.spec.history
        requests = []
        for index in range(count):
            window = tiny_data.scaler.transform(series.values[index : index + history])
            requests.append(
                ForecastRequest(
                    x=window[None, :, :, None],
                    tod=series.time_of_day[index : index + history][None, :],
                    dow=series.day_of_week[index : index + history][None, :],
                )
            )
        return requests

    def test_batched_matches_single_request_bitwise(self, tiny_data, bundle, registry):
        batcher = MicroBatcher(registry.resolve, max_batch=8)
        requests = self._requests(tiny_data, bundle, 5)
        batched, version = batcher.run_batch(requests)
        assert version == "v1"
        for request, expected in zip(requests, batched):
            single, _ = batcher.run_batch([request])
            assert single[0].tobytes() == expected.tobytes()

    def test_threaded_submits_are_coalesced(self, tiny_data, bundle, registry):
        batcher = MicroBatcher(registry.resolve, max_batch=8, max_wait_s=0.2)
        requests = self._requests(tiny_data, bundle, 6)
        expected, _ = batcher.run_batch(requests)  # 6 < max_batch: one batch
        start_barrier = threading.Barrier(len(requests))
        results: dict[int, np.ndarray] = {}

        def worker(index):
            start_barrier.wait()
            value, version = batcher.submit(requests[index]).result(timeout=10.0)
            assert version == "v1"
            results[index] = value

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batcher.stop()
        for index, value in results.items():
            assert value.tobytes() == expected[index].tobytes()
        # Everything after run_batch()'s one batch of all six.
        assert batcher.requests_served - len(requests) == len(requests)
        assert batcher.batches - 1 < len(requests), "no coalescing happened"

    def test_forward_errors_reach_every_waiter(self, tiny_data, bundle):
        def broken_resolve():
            raise RuntimeError("registry on fire")

        batcher = MicroBatcher(broken_resolve, max_batch=4)
        pending = batcher.submit(self._requests(tiny_data, bundle, 1)[0])
        with pytest.raises(RuntimeError, match="registry on fire"):
            pending.result(timeout=5.0)
        batcher.stop()

    def test_submit_after_stop_raises(self, tiny_data, bundle, registry):
        batcher = MicroBatcher(registry.resolve)
        batcher.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            batcher.submit(self._requests(tiny_data, bundle, 1)[0])

    @staticmethod
    def _stub_forward(batcher, seconds, sizes):
        """Replace the forward with a fixed-duration echo that logs batch sizes."""

        def run_batch(requests):
            sizes.append(len(requests))
            time.sleep(seconds)
            return [request.x for request in requests], "stub"

        batcher.run_batch = run_batch

    @staticmethod
    def _closed_loop(batcher, request, rounds, start=None):
        """Submit ``rounds`` requests one after another; returns each one's time."""
        if start is not None:
            start.wait()
        times = []
        for _ in range(rounds):
            begin = time.perf_counter()
            batcher.submit(request).result(timeout=10.0)
            times.append(time.perf_counter() - begin)
        return times

    def test_lone_submits_do_not_wait_for_stragglers(self, tiny_data, bundle):
        batcher = MicroBatcher(lambda: None, max_batch=8, max_wait_s=0.5)
        sizes: list[int] = []
        self._stub_forward(batcher, 0.005, sizes)
        request = self._requests(tiny_data, bundle, 1)[0]
        try:
            begin = time.perf_counter()
            self._closed_loop(batcher, request, 10)
            elapsed = time.perf_counter() - begin
        finally:
            batcher.stop()
        assert sizes == [1] * 10
        assert elapsed < 0.5 * 10 / 4, f"10 lone submits took {elapsed:.2f}s"

    def test_two_closed_loop_clients_coalesce(self, tiny_data, bundle):
        # A batcher that never waits phase-locks two closed-loop clients into
        # alternating batches of one; waiting for the client the last cycle
        # saw keeps them together.
        batcher = MicroBatcher(lambda: None, max_batch=8, max_wait_s=0.2)
        sizes: list[int] = []
        self._stub_forward(batcher, 0.01, sizes)
        requests = self._requests(tiny_data, bundle, 2)
        start = threading.Barrier(2)
        threads = [
            threading.Thread(target=self._closed_loop, args=(batcher, request, 20, start))
            for request in requests
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            batcher.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert sum(sizes) == 40
        assert sum(sizes) / len(sizes) >= 1.5, f"batch sizes {sizes}"

    def test_survivor_pays_the_wait_at_most_once(self, tiny_data, bundle):
        batcher = MicroBatcher(lambda: None, max_batch=8, max_wait_s=0.5)
        sizes: list[int] = []
        self._stub_forward(batcher, 0.005, sizes)
        leaver, survivor = self._requests(tiny_data, bundle, 2)
        start = threading.Barrier(2)
        left = threading.Thread(target=self._closed_loop, args=(batcher, leaver, 10, start))
        try:
            left.start()
            self._closed_loop(batcher, survivor, 10, start)
            left.join(timeout=30.0)
            assert not left.is_alive()
            alone = self._closed_loop(batcher, survivor, 10)
        finally:
            batcher.stop()
        waited = [seconds for seconds in alone if seconds >= 0.25]
        assert len(waited) <= 1, f"the lone client waited {len(waited)} times: {alone}"

    def test_stop_fails_queued_requests_at_once(self, tiny_data, bundle):
        batcher = MicroBatcher(lambda: None, max_batch=1, max_wait_s=0.0)
        release = threading.Event()
        entered = threading.Event()

        def run_batch(requests):
            entered.set()
            release.wait(timeout=10.0)
            return [request.x for request in requests], "stub"

        batcher.run_batch = run_batch
        first, second = self._requests(tiny_data, bundle, 2)
        in_forward = batcher.submit(first)
        assert entered.wait(timeout=5.0)
        queued = batcher.submit(second)
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()
        try:
            with pytest.raises(RuntimeError, match="micro-batcher is stopped"):
                queued.result(timeout=1.0)
        finally:
            release.set()
            stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        value, version = in_forward.result(timeout=5.0)  # the batch in its forward is answered
        assert version == "stub" and value is first.x

    def test_stop_under_load_answers_every_request(self, tiny_data, bundle):
        # More submitting threads than cores race stop(): every request that
        # was accepted is answered, served or failed, and none is stranded.
        batcher = MicroBatcher(lambda: None, max_batch=4, max_wait_s=0.001)
        sizes: list[int] = []
        self._stub_forward(batcher, 0.001, sizes)
        request = self._requests(tiny_data, bundle, 1)[0]
        accepted: list[list] = [[] for _ in range(6)]

        def client(mine):
            for _ in range(500):
                try:
                    mine.append(batcher.submit(request))
                except RuntimeError:
                    return

        threads = [threading.Thread(target=client, args=(mine,)) for mine in accepted]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.1)
            batcher.stop()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        outcomes = {"served": 0, "stopped": 0}
        for pending in (pending for mine in accepted for pending in mine):
            try:
                pending.result(timeout=2.0)
                outcomes["served"] += 1
            except RuntimeError as error:
                assert "stopped" in str(error)
                outcomes["stopped"] += 1
        assert outcomes["served"] == sum(sizes)
        assert outcomes["served"] > 0 and outcomes["stopped"] > 0, outcomes


class TestFallbackForecast:
    def test_matches_historical_average_baseline(self, tiny_data, bundle):
        ha = HistoricalAverage(tiny_data.dataset.steps_per_day).fit(tiny_data)
        horizon = 12
        last_tod, last_dow = 280, 4  # rolls over midnight into a weekend
        raw = fallback_forecast(
            ha._profile, last_tod, last_dow, horizon, tiny_data.dataset.steps_per_day
        )
        assert raw.shape == (horizon, tiny_data.dataset.num_nodes)
        x = np.zeros((1, horizon, tiny_data.dataset.num_nodes, 1), np.float32)
        tod = np.full((1, horizon), last_tod)
        dow = np.full((1, horizon), last_dow)
        expected_scaled = ha.forward(x, tod, dow).numpy()[0, :, :, 0]
        np.testing.assert_array_equal(
            tiny_data.scaler.transform(raw), expected_scaled
        )

    def test_uses_bundle_profile(self, bundle):
        raw = fallback_forecast(
            bundle.fallback_profile, 0, 0, 3, bundle.spec.steps_per_day
        )
        assert np.isfinite(raw).all()
        assert raw.shape == (3, bundle.spec.num_nodes)

    def test_invalid_horizon_raises(self, bundle):
        with pytest.raises(ValueError):
            fallback_forecast(bundle.fallback_profile, 0, 0, 0, 288)
