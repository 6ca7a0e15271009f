"""Sharded serving: partition invariants, exactness, transports, shedding."""

import multiprocessing as mp
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.graph import cut_edges, greedy_min_cut, hop_neighborhood
from repro.models import build_model
from repro.serve import (
    DegradationPolicy,
    ModelRegistry,
    ProcessTransport,
    ServableBundle,
    ServeConfig,
    ServingEngine,
    ShardedServingEngine,
    SlidingWindowStore,
    TransportError,
    make_servable,
    partition_graph,
    poisson_arrivals,
    replay_split,
    run_load,
    shard_bundle,
)
from repro.serve import transport as transport_module
from repro.utils.blas import blas_threads
from repro.utils.checkpoint import CheckpointError
from repro.utils.seed import set_seed


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


@pytest.fixture(scope="module")
def bundle_v2(tiny_data):
    set_seed(99)
    model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
    return make_servable("STGCN", model, tiny_data, hidden=8, layers=1)


def _plain_engine(bundle, config=None):
    registry = ModelRegistry()
    registry.publish(bundle)
    store = SlidingWindowStore.for_bundle(bundle)
    return ServingEngine(registry, store, config or ServeConfig(max_wait_s=0.001))


def _warm(engine, data):
    series = data.dataset.series
    history = engine.store.history
    engine.store.warm_from(
        series.values[:history], series.time_of_day[:history],
        series.day_of_week[:history],
    )


# ---------------------------------------------------------------------------
# Partition invariants
# ---------------------------------------------------------------------------
class TestPartitionInvariants:
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_every_node_in_exactly_one_shard(self, tiny_data, num_shards):
        partition = partition_graph(tiny_data.adjacency, num_shards)
        counts = np.zeros(partition.num_nodes, dtype=int)
        for plan in partition.plans:
            counts[plan.owned] += 1
        np.testing.assert_array_equal(counts, 1)
        assert set(partition.assignment.tolist()) == set(range(num_shards))

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_balance_cap(self, tiny_data, num_shards):
        partition = partition_graph(tiny_data.adjacency, num_shards)
        n = partition.num_nodes
        cap = -(-n // num_shards)
        assert all(plan.num_owned <= cap for plan in partition.plans)

    def test_halo_exactly_covers_cut_edges_at_one_hop(self, tiny_data):
        adjacency = tiny_data.adjacency
        partition = partition_graph(adjacency, 2, halo_hops=1)
        crossing = cut_edges(adjacency, partition.assignment)
        for plan in partition.plans:
            owned = set(plan.owned.tolist())
            expected = set()
            for i, j in crossing.tolist():
                if i in owned and j not in owned:
                    expected.add(j)
                elif j in owned and i not in owned:
                    expected.add(i)
            assert set(plan.halo.tolist()) == expected
            assert not owned & set(plan.halo.tolist())

    def test_k1_is_trivial(self, tiny_data):
        partition = partition_graph(tiny_data.adjacency, 1)
        np.testing.assert_array_equal(partition.assignment, 0)
        (plan,) = partition.plans
        assert plan.halo.size == 0
        np.testing.assert_array_equal(plan.owned, np.arange(partition.num_nodes))

    def test_deterministic(self, tiny_data):
        first = greedy_min_cut(tiny_data.adjacency, 2)
        second = greedy_min_cut(tiny_data.adjacency, 2)
        np.testing.assert_array_equal(first, second)

    def test_hop_neighborhood_grows_monotonically(self, tiny_data):
        members = np.array([0, 1])
        previous = set()
        for hops in range(1, 4):
            ring = set(hop_neighborhood(tiny_data.adjacency, members, hops=hops).tolist())
            assert previous <= ring
            previous = ring


# ---------------------------------------------------------------------------
# Bundle sharding
# ---------------------------------------------------------------------------
class TestShardBundle:
    def test_k1_keeps_state_verbatim(self, bundle):
        (plan,) = partition_graph(bundle.adjacency, 1).plans
        sub = shard_bundle(bundle, plan)
        assert sub.spec == bundle.spec
        for name, value in bundle.state.items():
            np.testing.assert_array_equal(sub.state[name], value)
        sub.instantiate()

    def test_graphwavenet_sub_bundle_instantiates(self, tiny_data):
        set_seed(1)
        model, _ = build_model("GraphWaveNet", tiny_data, hidden=8, layers=1)
        bundle = make_servable("GraphWaveNet", model, tiny_data, hidden=8, layers=1)
        n = bundle.spec.num_nodes
        for plan in partition_graph(bundle.adjacency, 2).plans:
            sub = shard_bundle(bundle, plan)
            assert sub.spec.num_nodes == plan.num_local
            sub.instantiate()
            # node-indexed parameters (the adaptive embeddings) are sliced
            # by the plan's global ids; node-independent ones stay verbatim
            sliced = [
                name for name, value in bundle.state.items()
                if sub.state[name].shape != value.shape
            ]
            assert sliced, "GraphWaveNet should have node-indexed parameters"
            for name in sliced:
                full, local = bundle.state[name], sub.state[name]
                axis = next(
                    i for i, (g, w) in enumerate(zip(full.shape, local.shape))
                    if g == n and w == plan.num_local
                )
                np.testing.assert_array_equal(
                    local, np.take(full, plan.local, axis=axis)
                )

    def test_dcrnn_hidden_collision_is_safe(self, tiny_data):
        # With hidden=4 the gate projections have a 2*hidden == 8 == N axis;
        # shape reconciliation must keep those verbatim (the local model
        # expects 2*hidden, not the local node count) instead of slicing
        # every axis that happens to equal N.
        set_seed(2)
        model, _ = build_model("DCRNN", tiny_data, hidden=4, layers=1)
        bundle = make_servable("DCRNN", model, tiny_data, hidden=4, layers=1)
        assert 2 * 4 == bundle.spec.num_nodes  # the collision this test pins
        for plan in partition_graph(bundle.adjacency, 2).plans:
            sub = shard_bundle(bundle, plan)
            sub.instantiate()
            for name, value in bundle.state.items():
                if value.shape == sub.state[name].shape:
                    np.testing.assert_array_equal(sub.state[name], value)

    def test_unreconcilable_parameter_raises(self, bundle):
        (plan, _) = partition_graph(bundle.adjacency, 2).plans
        broken = ServableBundle(
            spec=bundle.spec,
            state={**bundle.state, "bogus": np.zeros((3, 5))},
            adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile,
            extra={},
        )
        with pytest.raises(CheckpointError):
            shard_bundle(broken, plan)


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------
class TestShardedEngine:
    def test_k1_loopback_bit_identical_to_plain_engine(self, bundle, tiny_data):
        with _plain_engine(bundle) as plain:
            _warm(plain, tiny_data)
            reference = plain.forecast()
        with ShardedServingEngine(bundle, num_shards=1, transport="loopback") as sharded:
            _warm(sharded, tiny_data)
            result = sharded.forecast()
        assert result.source == reference.source == "model"
        np.testing.assert_array_equal(result.values, reference.values)

    def test_k1_loopback_mixed_horizons_bit_identical_to_plain_engine(
        self, bundle, tiny_data
    ):
        horizons = (5, 12, 1, 12, 7, 3)
        answers = []
        for engine in (
            _plain_engine(bundle),
            ShardedServingEngine(bundle, num_shards=1, transport="loopback"),
        ):
            with engine:
                _warm(engine, tiny_data)
                row = engine.store.history
                reads = []
                for tick in range(3):
                    if tick:
                        _observe_next(engine, tiny_data, row)
                        row += 1
                    for h in horizons[tick:] + horizons[:tick]:
                        result = engine.forecast(h)
                        reads.append((result.source, result.values.tobytes()))
            answers.append(reads)
        plain, sharded = answers
        assert [source for source, _ in plain] == (["model"] + ["cache"] * 5) * 3
        assert sharded == plain

    def test_k2_matches_full_graph_with_wide_halo(self, bundle, tiny_data):
        # halo_hops large enough that each shard holds the whole dependency
        # ball of its owned nodes — owned-node outputs then equal the
        # full-graph forecast up to GEMM summation order.
        with _plain_engine(bundle) as plain:
            _warm(plain, tiny_data)
            reference = plain.forecast()
        with ShardedServingEngine(
            bundle, num_shards=2, transport="loopback", halo_hops=8
        ) as sharded:
            _warm(sharded, tiny_data)
            result = sharded.forecast()
        assert result.source == "model"
        np.testing.assert_allclose(result.values, reference.values, atol=1e-4)

    def test_replay_split_drives_the_router(self, bundle, tiny_data):
        with ShardedServingEngine(bundle, num_shards=2, transport="loopback") as engine:
            summary = replay_split(engine, tiny_data, steps=3, requests_per_step=2)
        assert summary["requests"] == 6
        assert summary["telemetry"]["num_shards"] == 2
        assert sum(summary["sources"].values()) == 6

    @pytest.mark.parametrize("policy", [
        DegradationPolicy(),
        DegradationPolicy(outage_threshold=-1.0),  # every answer a fallback
    ], ids=["model", "outage"])
    def test_k1_loopback_telemetry_counts_match_plain_engine(
        self, bundle, tiny_data, policy
    ):
        config = ServeConfig(max_wait_s=0.001, policy=policy)
        with _plain_engine(bundle, config) as plain:
            plain_summary = replay_split(plain, tiny_data, steps=3, requests_per_step=3)
        with ShardedServingEngine(
            bundle, num_shards=1, config=config, transport="loopback"
        ) as sharded:
            sharded_summary = replay_split(
                sharded, tiny_data, steps=3, requests_per_step=3
            )
        assert plain_summary["sources"] == sharded_summary["sources"]
        assert plain_summary["fallback_reasons"] == sharded_summary["fallback_reasons"]
        sources = plain_summary["sources"]
        for summary in (plain_summary, sharded_summary):
            record = summary["telemetry"]
            assert record["requests"] == 9
            assert record["served_by_model"] == sources["model"]
            assert record["served_by_cache"] == sources["cache"]
            assert record["fallbacks"] == sources["fallback"]
            assert record["fallback_reasons"] == summary["fallback_reasons"]
        if policy.outage_threshold < 0:
            assert sources == {"model": 0, "cache": 0, "fallback": 9}
            assert plain_summary["fallback_reasons"] == {"outage": 9}
        else:
            assert sources == {"model": 3, "cache": 6, "fallback": 0}

    def test_publish_activate_hot_swap_lockstep(self, bundle, bundle_v2, tiny_data):
        with ShardedServingEngine(bundle, num_shards=2, transport="loopback") as engine:
            _warm(engine, tiny_data)
            first = engine.forecast()
            version = engine.publish(bundle_v2)
            assert version == "v2" and engine.active_version == "v2"
            swapped = engine.forecast()
            engine.activate("v1")
            back = engine.forecast()
        assert first.version == "v1" and swapped.version == "v2"
        assert not np.array_equal(first.values, swapped.values)
        np.testing.assert_array_equal(back.values, first.values)

    def test_activate_unknown_version_raises(self, bundle):
        with ShardedServingEngine(bundle, num_shards=1, transport="loopback") as engine:
            with pytest.raises(KeyError):
                engine.activate("v9")

    def test_activate_unknown_version_after_publish_keeps_active(self, bundle, bundle_v2):
        with ShardedServingEngine(bundle, num_shards=2, transport="loopback") as engine:
            engine.publish(bundle_v2)
            with pytest.raises(KeyError, match="v99"):
                engine.activate("v99")
            assert engine.active_version == "v2"

    def test_admission_control_sheds(self, bundle, tiny_data):
        config = ServeConfig(
            policy=DegradationPolicy(max_inflight=0, shed_on_overload=True)
        )
        with ShardedServingEngine(
            bundle, num_shards=2, config=config, transport="loopback"
        ) as engine:
            _warm(engine, tiny_data)
            result = engine.forecast()
            report = engine.telemetry_report()
        assert result.source == "fallback" and result.reason == "shed"
        assert result.values.shape == (bundle.spec.horizon, bundle.spec.num_nodes)
        assert np.isfinite(result.values).all()
        assert report["shed"] == 1

    def test_shedding_disabled_lets_requests_through(self, bundle, tiny_data):
        config = ServeConfig(
            policy=DegradationPolicy(max_inflight=0, shed_on_overload=False)
        )
        with ShardedServingEngine(
            bundle, num_shards=2, config=config, transport="loopback"
        ) as engine:
            _warm(engine, tiny_data)
            result = engine.forecast()
        assert result.source == "model"

    def test_dead_worker_degrades_to_full_graph_fallback(self, bundle, tiny_data):
        class DeadTransport:
            def post(self, op, payload=()):
                raise TransportError("worker is gone")

            def wait(self):  # pragma: no cover - post always raises first
                raise TransportError("worker is gone")

            def close(self):
                pass

        with ShardedServingEngine(bundle, num_shards=2, transport="loopback") as engine:
            _warm(engine, tiny_data)
            engine.workers[1] = DeadTransport()
            result = engine.forecast()
            assert result.source == "fallback" and result.reason == "error"
            assert np.isfinite(result.values).all()

    def test_dead_worker_raises_in_strict_mode(self, bundle, tiny_data):
        class DeadTransport:
            def post(self, op, payload=()):
                raise TransportError("worker is gone")

            def close(self):
                pass

        config = ServeConfig(policy=DegradationPolicy(fallback_on_error=False))
        with ShardedServingEngine(
            bundle, num_shards=2, config=config, transport="loopback"
        ) as engine:
            _warm(engine, tiny_data)
            engine.workers[1] = DeadTransport()
            with pytest.raises(TransportError):
                engine.forecast()

    def test_rejects_unknown_transport(self, bundle):
        with pytest.raises(ValueError):
            ShardedServingEngine(bundle, num_shards=2, transport="carrier-pigeon")


# ---------------------------------------------------------------------------
# The router's prediction cache
# ---------------------------------------------------------------------------
def _loopback(bundle, num_shards=2, **config):
    return ShardedServingEngine(
        bundle, num_shards=num_shards, transport="loopback",
        config=ServeConfig(max_wait_s=0.001, **config),
    )


def _record_posts(engine):
    """Wrap each worker's ``post`` to record its ops; one list per shard."""
    posts = []
    for worker in engine.workers:
        seen = []

        def recorded(op, payload=(), post=worker.post, seen=seen):
            seen.append(op)
            post(op, payload)

        worker.post = recorded
        posts.append(seen)
    return posts


def _observe_next(engine, data, row):
    series = data.dataset.series
    engine.observe(
        series.values[row], int(series.time_of_day[row]), int(series.day_of_week[row])
    )


class TestRouterCache:
    def test_version_round_trip_never_serves_the_other_version(
        self, bundle, bundle_v2, tiny_data
    ):
        with _loopback(bundle) as engine:
            _warm(engine, tiny_data)
            v1 = engine.forecast()
            engine.publish(bundle_v2)
            v2 = engine.forecast()
            assert (v1.source, v1.version) == ("model", "v1")
            assert (v2.source, v2.version) == ("model", "v2")
            assert not np.array_equal(v1.values, v2.values)
            expected = {"v1": v1.values, "v2": v2.values}
            for version in ("v1", "v2", "v1", "v2"):
                engine.activate(version)
                for _ in range(2):
                    result = engine.forecast()
                    assert result.source == "cache"
                    assert result.version == version
                    np.testing.assert_array_equal(result.values, expected[version])

    @pytest.mark.parametrize("failure", ["closed", "dead"])
    def test_partial_fallback_answer_is_not_cached(self, bundle, tiny_data, failure):
        class DeadTransport:
            def post(self, op, payload=()):
                raise TransportError("worker is gone", shard=1, op=op)

            def close(self):
                pass

        with _loopback(bundle) as engine:
            _warm(engine, tiny_data)
            if failure == "closed":
                engine.workers[1].close()  # its core answers every read with a fallback
            else:
                engine.workers[1] = DeadTransport()
            first, second = engine.forecast(), engine.forecast()
            report = engine.telemetry_report()
        assert (first.source, first.reason) == ("fallback", "error")
        assert (second.source, second.reason) == ("fallback", "error")
        assert report["cache_hits"] == 0 and len(engine.cache) == 0

    def test_repeat_read_is_answered_while_the_rpc_lock_is_held(self, bundle, tiny_data):
        with _loopback(bundle) as engine:
            _warm(engine, tiny_data)
            first = engine.forecast()
            answers = []
            with engine._rpc_lock:
                reader = threading.Thread(target=lambda: answers.append(engine.forecast()))
                reader.start()
                reader.join(timeout=5.0)
                answered = not reader.is_alive()
            reader.join()
        assert answered, "a repeat read waited for the RPC lock"
        assert answers[0].source == "cache"
        np.testing.assert_array_equal(answers[0].values, first.values)

    def test_repeat_read_posts_nothing_to_the_workers(self, bundle, tiny_data):
        with _loopback(bundle) as engine:
            _warm(engine, tiny_data)
            posts = _record_posts(engine)
            assert engine.forecast().source == "model"
            assert posts == [["forecast"], ["forecast"]]
            assert engine.forecast().source == "cache"
            assert posts == [["forecast"], ["forecast"]]

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_every_horizon_from_one_forward(self, bundle, tiny_data, num_shards):
        horizon = bundle.spec.horizon
        with _loopback(bundle, num_shards=num_shards) as engine:
            _warm(engine, tiny_data)
            posts = _record_posts(engine)
            reads = {h: engine.forecast(h) for h in range(1, horizon + 1)}
            report = engine.telemetry_report()
        assert [reads[h].source for h in reads] == ["model"] + ["cache"] * (horizon - 1)
        full = reads[horizon].values
        for h, result in reads.items():
            assert result.values.shape == (h, bundle.spec.num_nodes)
            assert result.values.tobytes() == full[:h].tobytes()
            assert not result.values.flags.writeable
        # One scatter, asked at the full horizon, one batched forward per shard.
        assert [seen.count("forecast") for seen in posts] == [1] * num_shards
        assert [shard["batches"] for shard in report["shards"]] == [1] * num_shards

    def test_concurrent_misses_of_one_key_run_one_scatter(self, bundle, tiny_data):
        with _loopback(bundle) as engine:
            _warm(engine, tiny_data)
            posts = _record_posts(engine)
            put = engine.cache.put

            def slow_put(key, value):
                # An answer stored after the lock is released would now
                # miss the readers waiting on it.
                time.sleep(0.02)
                put(key, value)

            engine.cache.put = slow_put
            with engine._rpc_lock:
                readers = [threading.Thread(target=engine.forecast) for _ in range(4)]
                for reader in readers:
                    reader.start()
                time.sleep(0.05)  # every reader has missed and waits for the lock
            for reader in readers:
                reader.join()
            report = engine.telemetry_report()
        assert [seen.count("forecast") for seen in posts] == [1, 1]  # one scatter
        assert report["served_by_model"] == 1 and report["served_by_cache"] == 3
        assert (report["cache_hits"], report["cache_misses"]) == (3, 1)

    def test_misses_of_the_window_being_scattered_are_not_shed(self, bundle, tiny_data):
        horizon = bundle.spec.horizon
        policy = DegradationPolicy(max_inflight=1, shed_on_overload=True)
        with _loopback(bundle, policy=policy) as engine:
            _warm(engine, tiny_data)
            posts = _record_posts(engine)
            scattering, release = threading.Event(), threading.Event()

            def held(op, payload=(), post=engine.workers[0].post):
                if op == "forecast":
                    scattering.set()
                    release.wait(timeout=5.0)
                post(op, payload)

            engine.workers[0].post = held
            results = {}

            def read(h):
                results[h] = engine.forecast(h)

            leader = threading.Thread(target=read, args=(horizon,))
            leader.start()
            assert scattering.wait(timeout=5.0)
            # The one admitted miss is scattering: every other read of its
            # window, at any horizon, misses the cache now.
            joiners = [threading.Thread(target=read, args=(h,)) for h in range(1, horizon)]
            for joiner in joiners:
                joiner.start()
            time.sleep(0.05)
            release.set()
            for thread in [leader, *joiners]:
                thread.join(timeout=10.0)
            report = engine.telemetry_report()
        assert report["shed"] == 0
        assert results[horizon].source == "model"
        assert {results[h].source for h in range(1, horizon)} == {"cache"}
        for h in range(1, horizon):
            assert results[h].values.tobytes() == results[horizon].values[:h].tobytes()
        assert [seen.count("forecast") for seen in posts] == [1, 1]  # one scatter

    def test_concurrent_reads_and_observes_count_every_read_once(self, bundle, tiny_data):
        readers, reads_each = 6, 30
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _loopback(bundle) as engine:
                _warm(engine, tiny_data)
                posts = _record_posts(engine)

                def read(seed):
                    rng = np.random.default_rng(seed)
                    for h in rng.integers(1, bundle.spec.horizon + 1, size=reads_each):
                        results.append(engine.forecast(int(h)))

                threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
                for thread in threads:
                    thread.start()
                row = engine.store.history
                for _ in range(5):
                    _observe_next(engine, tiny_data, row)
                    row += 1
                    time.sleep(0.01)
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                report = engine.telemetry_report()
        finally:
            sys.setswitchinterval(interval)
        total = readers * reads_each
        assert len(results) == report["requests"] == total
        assert {result.source for result in results} <= {"model", "cache"}
        assert report["cache_hits"] + report["cache_misses"] == total
        assert report["served_by_cache"] == report["cache_hits"]
        # One scatter per miss: one forecast post to each shard.
        for seen in posts:
            assert seen.count("forecast") == report["cache_misses"] == report["served_by_model"]

    def test_telemetry_counts_the_routers_own_cache(self, bundle, tiny_data):
        with _loopback(bundle) as engine:
            summary = replay_split(engine, tiny_data, steps=3, requests_per_step=4)
        record = summary["telemetry"]
        assert summary["sources"] == {"model": 3, "cache": 9, "fallback": 0}
        assert (record["cache_hits"], record["cache_misses"]) == (9, 3)
        assert record["cache_hit_rate"] == pytest.approx(0.75)
        # Workers only ever see the router's misses: no shard caches.
        for shard in record["shards"]:
            assert shard["requests"] == 3
            assert (shard["cache_hits"], shard["cache_misses"]) == (0, 0)

    def test_cache_stays_bounded_and_current(self, bundle, bundle_v2, tiny_data):
        capacity = 4
        horizon = bundle.spec.horizon
        with _loopback(bundle, cache_capacity=capacity) as engine:
            _warm(engine, tiny_data)
            # More versions than entries: the keys of one window outgrow the cap.
            versions = ["v1"] + [
                engine.publish(bundle_v2 if i % 2 == 0 else bundle, activate=False)
                for i in range(capacity + 1)
            ]
            row = engine.store.history
            distinct = 0
            for tick in range(6):
                if tick % 2:
                    _observe_next(engine, tiny_data, row)
                    row += 1
                else:
                    engine.set_graph_version(tick)
                assert len(engine.cache) == 0  # every earlier entry is stale
                for version in versions:
                    engine.activate(version)
                    assert engine.forecast(horizon).source == "model"
                    distinct += 1
                    assert len(engine.cache) <= capacity
                # The newest entry stays answerable at every horizon.
                assert engine.forecast(horizon).source == "cache"
                assert engine.forecast(1).source == "cache"
            assert distinct > 3 * capacity


# ---------------------------------------------------------------------------
# The process transport
# ---------------------------------------------------------------------------
class TestProcessTransport:
    def test_round_trip_and_clean_shutdown(self, bundle, tiny_data):
        engine = ShardedServingEngine(bundle, num_shards=2, transport="process")
        try:
            _warm(engine, tiny_data)
            result = engine.forecast()
            assert result.source == "model"
            assert result.values.shape == (bundle.spec.horizon, bundle.spec.num_nodes)
            report = engine.telemetry_report()
            assert report["transport"] == "process"
            assert len(report["shards"]) == 2
        finally:
            engine.close()
        for worker in engine.workers:
            assert not worker.process.is_alive()
        engine.close()  # idempotent

    @pytest.mark.skipif(
        blas_threads() is None or mp.get_start_method() != "fork",
        reason="needs an OpenBLAS and forked workers (which inherit the probe op)",
    )
    def test_process_workers_split_the_blas_threads(self, bundle, monkeypatch):
        apply = transport_module._apply

        def apply_with_probe(core, op, payload):
            return blas_threads() if op == "blas_threads" else apply(core, op, payload)

        monkeypatch.setattr(transport_module, "_apply", apply_with_probe)
        cores = len(os.sched_getaffinity(0))
        engine = ShardedServingEngine(bundle, num_shards=2, transport="process")
        lone = ProcessTransport(bundle)  # K=1: one worker gets every core
        try:
            budgets = [worker.request("blas_threads") for worker in engine.workers]
            assert budgets == [max(1, cores // 2)] * 2
            assert lone.request("blas_threads") == cores
        finally:
            engine.close()
            lone.close()

    def test_worker_death_surfaces_as_transport_error(self, bundle):
        transport = ProcessTransport(
            bundle, config=ServeConfig(op_timeouts_s={"telemetry": 5.0})
        )
        try:
            transport.process.terminate()
            transport.process.join(timeout=5.0)
            with pytest.raises(TransportError):
                transport.request("telemetry")
        finally:
            transport.close()
        assert not transport.process.is_alive()


# ---------------------------------------------------------------------------
# Registry race safety (hot swap vs slow load)
# ---------------------------------------------------------------------------
class TestRegistryRaceSafety:
    def test_activate_during_slow_load_never_tears_the_triple(
        self, bundle, bundle_v2, monkeypatch
    ):
        registry = ModelRegistry()
        registry.publish(bundle)  # v1
        registry.publish(bundle_v2, activate=False)  # v2

        original = ServableBundle.instantiate
        started = threading.Event()

        def slow_instantiate(self):
            started.set()
            time.sleep(0.2)  # the injected slow load
            return original(self)

        monkeypatch.setattr(ServableBundle, "instantiate", slow_instantiate)

        triples = {}

        def resolve_v1():
            triples["first"] = registry.resolve()

        loader = threading.Thread(target=resolve_v1)
        loader.start()
        assert started.wait(timeout=5.0)
        registry.activate("v2")  # hot swap lands mid-load
        triples["second"] = registry.resolve()
        loader.join(timeout=10.0)
        assert not loader.is_alive()

        # Each resolve returns a consistent (version, model, bundle) triple:
        # the model's parameters are exactly the returned bundle's state.
        expected_bundle = {"first": bundle, "second": bundle_v2}
        for key, (version, model, resolved_bundle) in triples.items():
            assert resolved_bundle is expected_bundle[key]
            state = model.state_dict()
            assert set(state) == set(resolved_bundle.state)
            for name, value in resolved_bundle.state.items():
                np.testing.assert_array_equal(state[name], value)
        assert triples["first"][0] == "v1"
        assert triples["second"][0] == "v2"

    def test_concurrent_resolves_share_one_load(self, bundle, monkeypatch):
        registry = ModelRegistry()
        registry.publish(bundle)
        calls = []
        original = ServableBundle.instantiate

        def counting_instantiate(self):
            calls.append(1)
            time.sleep(0.05)
            return original(self)

        monkeypatch.setattr(ServableBundle, "instantiate", counting_instantiate)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(registry.resolve()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 4
        assert len(calls) == 1  # one load, shared by every waiter
        assert all(r[1] is results[0][1] for r in results)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
class TestLoadGenerator:
    def test_poisson_arrivals_deterministic_and_bounded(self):
        first = poisson_arrivals(100.0, 1.0, seed=7)
        second = poisson_arrivals(100.0, 1.0, seed=7)
        np.testing.assert_array_equal(first, second)
        assert (np.diff(first) > 0).all()
        assert first.size > 0 and first[-1] < 1.0
        assert not np.array_equal(first, poisson_arrivals(100.0, 1.0, seed=8))

    def test_poisson_arrivals_validates_inputs(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, 0.0)

    def test_closed_loop_summary(self, bundle, tiny_data):
        with ShardedServingEngine(bundle, num_shards=2, transport="loopback") as engine:
            result = run_load(engine, tiny_data, steps=3, requests_per_step=2)
        assert result.mode == "closed"
        assert result.requests == 6
        assert result.shed == 0
        assert result.latency_ms_p99 >= result.latency_ms_p50 >= 0.0

    def test_open_loop_sheds_everything_at_zero_inflight(self, bundle, tiny_data):
        config = ServeConfig(
            policy=DegradationPolicy(max_inflight=0, shed_on_overload=True)
        )
        with ShardedServingEngine(
            bundle, num_shards=2, config=config, transport="loopback"
        ) as engine:
            result = run_load(
                engine, tiny_data, rps=100.0, duration_s=0.3, steps=4, seed=3
            )
        assert result.mode == "open"
        assert result.requests > 0
        assert result.shed == result.requests
        assert result.sources == {"model": 0, "cache": 0, "fallback": result.requests}
