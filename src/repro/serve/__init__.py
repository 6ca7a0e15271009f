"""Online inference: serve trained forecasters against live observations.

The serving stack (see ``docs/serving.md`` and ``docs/scaling.md``),
bottom to top:

* :class:`ServableBundle` / :class:`ModelRegistry` — package a trained
  model, its build recipe, scaler statistics and a fallback profile into a
  single atomically-written file; publish versions and hot-swap the active
  one between batches.
* :class:`SlidingWindowStore` — ring-buffered ingestion of streaming
  per-node observations, O(1) per append, neutralising zero-coded sensor
  outages at ingest exactly as the training pipeline does.
* :class:`MicroBatcher` — coalesces concurrent requests into one batched
  forward under the tensor engine's inference mode; the only place in this
  package allowed to invoke a model (lint rules R008/R009).
* :class:`PredictionCache` — LRU over (version, window signature, horizon);
  a hot-swap or a new observation makes stale entries unreachable.
* :class:`EngineCore` — the transport-free compute core: the
  cold-start/outage/anomaly/error degradation ladder over store, cache and
  batcher (:class:`DegradationPolicy`).
* :class:`ServingEngine` — the single-process front door: a core plus
  telemetry emission through :func:`repro.obs.serving_record`; the K=1
  special case of the sharded stack.
* :class:`ShardedServingEngine` — the scaled front door: the graph split
  into K spatial shards (:func:`partition_graph`), one worker per shard
  behind a transport (:class:`LoopbackTransport` in-process,
  :class:`ProcessTransport` one process each), halo exchange at ingest,
  admission control with load shedding under overload, and per-shard
  degradation: a dead shard falls back alone while the rest keep serving.
* :class:`ShardSupervisor` / :class:`ReplayJournal` — self-healing
  (``ServeConfig(supervision=SupervisionPolicy(...))``): liveness probes
  and consecutive-failure thresholds trigger bounded-backoff worker
  restarts, re-hydrated from a router-side journal of recent observations
  so the replacement is forecast-ready with no cold-start gap.

Entry points: ``repro serve`` on the command line (``--workers`` selects
the sharded stack, ``--supervise`` turns on self-healing),
:func:`replay_split` for trace-driven drives, :func:`run_scenario` for
event-scenario drives with conditional accuracy and mid-stream graph
rewrites (``repro scenario run``; events from :mod:`repro.data.events`),
:func:`run_load` for open-loop Poisson load generation (``faults=``
injects serving chaos from :mod:`repro.faults.serving`),
``benchmarks/bench_serve.py``, ``benchmarks/bench_serve_scale.py``,
``benchmarks/bench_serve_chaos.py`` and
``benchmarks/bench_serve_scenarios.py`` for the gates tracked in
``benchmarks/results/serve*.json``.
"""

from .cache import PredictionCache
from .degrade import DegradationPolicy, SupervisionPolicy, fallback_forecast
from .engine import DEFAULT_OP_TIMEOUTS, EngineCore, ForecastResult, ServeConfig, ServingEngine
from .loadgen import LoadResult, poisson_arrivals, run_load
from .microbatch import ForecastRequest, MicroBatcher
from .registry import ModelRegistry, ServableBundle, ServableSpec, make_servable
from .replay import replay_split
from .router import ShardedServingEngine
from .scenario import (
    SCENARIO_SCHEMA,
    ScenarioRunResult,
    run_scenario,
    save_scenario_report,
)
from .shard import GraphPartition, ShardPlan, partition_graph, shard_bundle
from .supervise import ReplayJournal, ShardSupervisor
from .transport import (
    LoopbackTransport,
    ProcessTransport,
    TransportError,
    WorkerTransport,
)
from .window_store import SlidingWindowStore

__all__ = [
    "DEFAULT_OP_TIMEOUTS",
    "DegradationPolicy",
    "EngineCore",
    "ForecastRequest",
    "ForecastResult",
    "GraphPartition",
    "LoadResult",
    "LoopbackTransport",
    "MicroBatcher",
    "ModelRegistry",
    "PredictionCache",
    "ProcessTransport",
    "ReplayJournal",
    "SCENARIO_SCHEMA",
    "ScenarioRunResult",
    "ServableBundle",
    "ServableSpec",
    "ServeConfig",
    "ServingEngine",
    "ShardPlan",
    "ShardSupervisor",
    "ShardedServingEngine",
    "SlidingWindowStore",
    "SupervisionPolicy",
    "TransportError",
    "WorkerTransport",
    "fallback_forecast",
    "make_servable",
    "partition_graph",
    "poisson_arrivals",
    "replay_split",
    "run_load",
    "run_scenario",
    "save_scenario_report",
    "shard_bundle",
]
