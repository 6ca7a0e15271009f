"""Sharded serving scale — the regression gate for the engine/transport split.

Measures the three claims ``docs/scaling.md`` makes for the sharded stack
(:class:`~repro.serve.ShardedServingEngine`):

1. **Throughput scales with workers.**  On one machine the win comes from
   compute reduction, not parallelism: the graph ops are superlinear in the
   node count (the diffusion matmuls are O(N²)), so K shards of ~N/K nodes
   each do strictly less arithmetic than one N-node engine.  The gate is
   ≥1.8x closed-loop throughput at K=2 over K=1 and monotone improvement to
   K=4, measured on DCRNN over a 768-node sparse road graph where the
   quadratic term dominates.
2. **K=1 sharded serving is bit-identical** to the plain
   :class:`~repro.serve.ServingEngine` — the sharded stack is a superset,
   not a fork.
3. **Load shedding beats queueing under overload.**  An open-loop Poisson
   arrival stream at 2x the measured K=2 capacity is served twice — with
   admission control shedding (``max_inflight`` set) and without — and the
   shedding arm must come out with the lower p99.

Results land in ``benchmarks/results/serve_scale.json``.  The tiny profile
is the ``make serve-scale-smoke`` CI arm: a small loopback run that
asserts the identity and that scaling is alive, without gating on exact
ratios the CI box cannot reproduce.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import profile_name, save_results
from repro.data import build_forecasting_data, load_dataset
from repro.models import build_model_from_parts
from repro.serve import (
    DegradationPolicy,
    ModelRegistry,
    ServeConfig,
    ServingEngine,
    ShardedServingEngine,
    SlidingWindowStore,
    make_servable,
    partition_graph,
    run_load,
)
from repro.serve.shard import partition_cut_edges
from repro.utils.seed import set_seed

# The flow presets carry the sparse binary road connectivity (mean degree
# ~6), where a 2-way cut leaves boundary-sized halos and each shard really
# holds ~N/2 nodes.  The speed presets' DCRNN-style Gaussian-kernel
# adjacency is ~33% dense at this scale — its 1-hop halo is nearly the
# whole graph and sharding buys nothing (see docs/scaling.md).
DATASET = "pems08-sim"

# The scaling argument needs the O(N²) diffusion term to dominate, so this
# bench sizes its own graph instead of using the shared profile sizes.
_SCALE = {
    "tiny": dict(
        model="STGCN", num_nodes=48, num_steps=480, hidden=16, layers=1,
        shard_counts=(1, 2), transport="loopback", steps=6,
        overload_duration_s=0.8, speedup_k2_gate=0.3, monotone_gate=False,
    ),
    "bench": dict(
        model="DCRNN", num_nodes=768, num_steps=576, hidden=16, layers=1,
        shard_counts=(1, 2, 4), transport="process", steps=6,
        overload_duration_s=2.0, speedup_k2_gate=1.8, monotone_gate=True,
    ),
    "full": dict(
        model="DCRNN", num_nodes=768, num_steps=576, hidden=16, layers=1,
        shard_counts=(1, 2, 4), transport="process", steps=10,
        overload_duration_s=3.0, speedup_k2_gate=1.8, monotone_gate=True,
    ),
}


def _config(**policy) -> ServeConfig:
    return ServeConfig(max_wait_s=0.0005, policy=DegradationPolicy(**policy))


def _bench_throughput(bundle, data, cfg) -> dict:
    """Closed-loop requests/s for each worker count, same drive each time."""
    throughput = {}
    for num_shards in cfg["shard_counts"]:
        engine = ShardedServingEngine(
            bundle, num_shards=num_shards, config=_config(),
            transport=cfg["transport"],
        )
        with engine:
            result = run_load(
                engine, data, steps=cfg["steps"], requests_per_step=1,
                concurrency=1,
            )
        assert result.sources.get("model", 0) == result.requests, (
            f"K={num_shards} throughput arm left the model path: {result.sources}"
        )
        throughput[str(num_shards)] = {
            "requests": result.requests,
            "duration_s": result.duration_s,
            "requests_per_s": result.achieved_rps,
            "latency_ms_p50": result.latency_ms_p50,
        }
    return throughput


def _bench_identity(bundle, data) -> bool:
    """K=1 sharded loopback vs the plain engine: bitwise-equal forecasts."""
    series = data.dataset.series
    history = bundle.spec.history
    warm = (
        series.values[:history], series.time_of_day[:history],
        series.day_of_week[:history],
    )
    registry = ModelRegistry()
    registry.publish(bundle)
    store = SlidingWindowStore.for_bundle(bundle)
    with ServingEngine(registry, store, _config()) as plain:
        plain.store.warm_from(*warm)
        reference = plain.forecast()
    with ShardedServingEngine(
        bundle, num_shards=1, config=_config(), transport="loopback"
    ) as sharded:
        sharded.store.warm_from(*warm)
        result = sharded.forecast()
    return (
        result.source == reference.source == "model"
        and result.values.tobytes() == reference.values.tobytes()
    )


def _bench_overload(bundle, data, cfg, capacity_rps: float) -> dict:
    """2x-capacity Poisson overload, shedding on vs off, same schedule."""
    offered = 2.0 * capacity_rps
    arms = {}
    for arm, shed in (("shed", True), ("no_shed", False)):
        engine = ShardedServingEngine(
            bundle, num_shards=2,
            config=_config(max_inflight=2, shed_on_overload=shed),
            transport=cfg["transport"],
        )
        with engine:
            # Two knobs keep overload on the model path instead of letting
            # the prediction cache absorb the duplicate arrivals: fast
            # observation ticks keep the window signature moving, and
            # cycling the requested horizon gives consecutive requests
            # distinct cache keys at identical forward cost.
            result = run_load(
                engine, data, rps=offered,
                duration_s=cfg["overload_duration_s"],
                steps=max(cfg["steps"], 8), concurrency=12, seed=17,
                observe_interval_s=0.05,
                horizons=tuple(range(1, bundle.spec.horizon + 1)),
            )
        arms[arm] = {
            "requests": result.requests,
            "achieved_rps": result.achieved_rps,
            "shed": result.shed,
            "sources": result.sources,
            "latency_ms_p50": result.latency_ms_p50,
            "latency_ms_p99": result.latency_ms_p99,
        }
    return {"offered_rps": offered, "capacity_rps": capacity_rps, **arms}


def test_serve_scale(benchmark):
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
    partition = partition_graph(bundle.adjacency, 2)

    def run():
        throughput = _bench_throughput(bundle, data, cfg)
        base = throughput["1"]["requests_per_s"]
        speedups = {
            k: v["requests_per_s"] / base for k, v in throughput.items() if k != "1"
        }
        return {
            "throughput": throughput,
            "speedups": speedups,
            "k1_bitwise_identical": _bench_identity(bundle, data),
            "overload": _bench_overload(
                bundle, data, cfg, throughput["2"]["requests_per_s"]
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print(f"\n=== Sharded serving scale ({cfg['model']} on {DATASET}, "
          f"N={cfg['num_nodes']}, {cfg['transport']} transport, "
          f"{profile} profile) ===")
    for k, row in results["throughput"].items():
        speedup = results["speedups"].get(k)
        note = f" (x{speedup:.2f} vs K=1)" if speedup else ""
        print(f"K={k}: {row['requests_per_s']:7.2f} req/s, "
              f"p50 {row['latency_ms_p50']:.2f} ms{note}")
    print(f"K=1 sharded bit-identical to plain engine: "
          f"{results['k1_bitwise_identical']}")
    o = results["overload"]
    print(f"overload at {o['offered_rps']:.1f} rps "
          f"(2x the {o['capacity_rps']:.1f} rps K=2 capacity): "
          f"p99 {o['shed']['latency_ms_p99']:.1f} ms with shedding "
          f"({o['shed']['shed']} shed) vs "
          f"{o['no_shed']['latency_ms_p99']:.1f} ms without")

    assert results["k1_bitwise_identical"], (
        "K=1 sharded serving diverged from the plain engine"
    )
    speedup_k2 = results["speedups"]["2"]
    assert speedup_k2 >= cfg["speedup_k2_gate"], (
        f"K=2 speedup x{speedup_k2:.2f} below the x{cfg['speedup_k2_gate']} gate"
    )
    if cfg["monotone_gate"]:
        assert results["speedups"]["4"] >= speedup_k2, (
            f"throughput not monotone: K=4 x{results['speedups']['4']:.2f} "
            f"below K=2 x{speedup_k2:.2f}"
        )
    assert o["shed"]["shed"] > 0, "overload arm never triggered shedding"
    assert o["shed"]["latency_ms_p99"] < o["no_shed"]["latency_ms_p99"], (
        "shedding did not lower the overload p99 tail"
    )

    payload = {
        "schema": "repro.bench.serve_scale/v1",
        "dataset": DATASET,
        "model": cfg["model"],
        "profile": profile,
        "num_nodes": cfg["num_nodes"],
        "transport": cfg["transport"],
        "partition": {
            "num_shards": 2,
            "owned_sizes": [p.num_owned for p in partition.plans],
            "halo_sizes": [int(p.halo.shape[0]) for p in partition.plans],
            "cut_edges": int(
                partition_cut_edges(bundle.adjacency, partition).shape[0]
            ),
        },
        **results,
    }
    save_results("serve_scale", payload)
