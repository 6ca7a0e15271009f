"""The serving engine: ingestion, caching, batching and degradation in one.

Since the sharding refactor this module is split along the engine/transport
seam (see docs/scaling.md):

* :class:`EngineCore` is the **pure compute core** — the serving decision
  ladder over a registry, a window store and a micro-batcher, with no
  opinion about where requests come from.  Shard workers run one core
  each, behind whatever transport (:mod:`repro.serve.transport`) carries
  their requests.  A core keeps no prediction cache: the front door in
  front of it answers repeat reads.
* :class:`ServingEngine` is the single-process front door — a core plus
  the deployment's one :class:`~repro.serve.PredictionCache` and telemetry
  emission.  It is the K=1 special case of the sharded stack, whose front
  door (:class:`~repro.serve.ShardedServingEngine`) owns the cache there.

One ``forecast`` call walks the full serving decision ladder:

1. **cold start** — window not yet full → historical-average fallback;
2. **outage** — too many null-coded sensors in the window
   (``DegradationPolicy.outage_threshold``) → fallback;
3. **cache** (front door only) — a full-horizon forecast for this
   (servable version, window signature) already exists → serve its first
   ``horizon`` steps, no forward;
4. **model** — submit to the :class:`~repro.serve.MicroBatcher`, which
   coalesces concurrent requests into one batched forward under the tensor
   engine's inference mode;
5. **degraded model** — the forward raised or returned non-finite values →
   fallback (or re-raise, per policy).

One forward emits every horizon step (Eq. 15), so the model tier computes
the full-horizon forecast once per window and answers each read with a
read-only view of its first ``horizon`` steps: a shorter horizon asked of
an unchanged window is a cache hit, not another forward.

Every answer is a :class:`ForecastResult` in raw units, stamped with its
source, servable version and end-to-end latency, and counted in the
core's :class:`~repro.obs.ServingTally`; :meth:`emit_telemetry` summarises
the run through :func:`repro.obs.serving_record` into any
:class:`~repro.obs.MetricsSink`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..check.sanitizers import AnomalyError
from ..obs.telemetry import ServingTally, serving_record
from ..utils.timer import now
from .cache import PredictionCache
from .degrade import DegradationPolicy, SupervisionPolicy, fallback_forecast
from .microbatch import ForecastRequest, MicroBatcher
from .registry import ModelRegistry
from .window_store import SlidingWindowStore

__all__ = ["DEFAULT_OP_TIMEOUTS", "ServeConfig", "ForecastResult", "EngineCore", "ServingEngine"]

# Per-op transport deadlines (seconds).  A forecast that takes 10 s is a
# dead shard for serving purposes — far below the old blanket 60 s — while
# publish legitimately ships a whole bundle over the pipe and gets longer.
DEFAULT_OP_TIMEOUTS: dict[str, float] = {
    "observe": 10.0,
    "forecast": 10.0,
    "telemetry": 10.0,
    "activate": 30.0,
    "publish": 120.0,
    "ping": 2.0,
    "default": 60.0,
}


@dataclass
class ServeConfig:
    """Engine knobs; defaults match the serve benchmark's tiny profile.

    ``op_timeouts_s`` partially overrides :data:`DEFAULT_OP_TIMEOUTS` for
    the sharded transports (e.g. ``{"forecast": 0.25}`` for a chaos run);
    unlisted ops keep their defaults.  ``supervision`` (a
    :class:`~repro.serve.SupervisionPolicy`) turns on worker supervision
    in the sharded router: health checks, bounded-backoff restarts and
    replay-journal re-hydration.  ``None`` (the default) serves unsupervised.
    """

    horizon: int | None = None  # None: the bundle's trained horizon
    max_batch: int = 16
    max_wait_s: float = 0.002
    request_timeout_s: float = 30.0
    cache_capacity: int = 256  # the front door's PredictionCache
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)
    op_timeouts_s: dict = field(default_factory=dict)
    supervision: SupervisionPolicy | None = None

    def op_timeout_s(self, op: str) -> float:
        """The transport deadline for one op, with partial overrides."""
        if op in self.op_timeouts_s:
            return float(self.op_timeouts_s[op])
        return DEFAULT_OP_TIMEOUTS.get(op, DEFAULT_OP_TIMEOUTS["default"])


@dataclass
class ForecastResult:
    """One answered request, in raw units.

    ``values`` is ``(horizon, num_nodes)``; ``source`` is ``"model"``,
    ``"cache"`` or ``"fallback"`` (with ``reason`` saying why it degraded:
    ``"cold_start"``, ``"outage"``, ``"anomaly"``, ``"error"`` — or, from
    the sharded router, ``"shed"`` under admission control).  A model or
    cache answer's ``values`` is a read-only view of the window's one
    frozen full-horizon forecast, shared by every read of that window;
    copy it before writing to it.
    """

    values: np.ndarray
    source: str
    version: str | None
    reason: str | None
    latency_s: float


class EngineCore:
    """The transport-free serving core: one store, one ladder, one batcher.

    ``registry`` supplies the active servable (hot-swappable between
    batches); ``store`` holds the streaming window.  Everything here is
    pure request-in/result-out compute — the in-process
    :class:`ServingEngine`, the loopback transport and the multiprocess
    shard workers all run the same core, which is what keeps K=1 sharded
    serving bit-identical to the single-process engine.  The core has no
    prediction cache; :meth:`_cached` and :meth:`_remember` are where a
    front door plugs its own in.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        store: SlidingWindowStore,
        config: ServeConfig | None = None,
    ) -> None:
        self.registry = registry
        self.store = store
        self.config = config or ServeConfig()
        self.batcher = MicroBatcher(
            registry.resolve,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
        )
        self.tally = ServingTally()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        values: np.ndarray,
        tod: int,
        dow: int,
        graph_version: int | None = None,
    ) -> int:
        """Ingest one observation row; returns the window's new signature.

        ``graph_version`` optionally tags the tick with the adjacency
        version it was observed under (see
        :meth:`SlidingWindowStore.append`); a changed tag bumps the
        signature once more, so predictions keyed to the previous graph
        can no longer be looked up.
        """
        return self.store.append(values, tod, dow, graph_version=graph_version)

    def set_graph_version(self, graph_version: int) -> int:
        """Absorb a mid-stream graph rewrite with no new observation.

        Bumps the window signature through the store's adjacency tag, so a
        road closure landing between two observations can never be
        answered from a stale-graph cache entry.
        """
        return self.store.set_graph_version(graph_version)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def forecast(self, horizon: int | None = None) -> ForecastResult:
        """Answer one forecast request for the current window."""
        start = now()
        bundle = self.registry.active_bundle()
        if horizon is None:
            horizon = self.config.horizon or bundle.spec.horizon
        if not 1 <= horizon <= bundle.spec.horizon:
            raise ValueError(
                f"horizon must be in [1, {bundle.spec.horizon}], got {horizon}"
            )
        if len(self.store) == 0:
            raise RuntimeError("no observations ingested yet; call observe() first")
        policy = self.config.policy
        if not self.store.ready:
            return self._fallback(bundle, horizon, "cold_start", start)
        if self.store.outage_fraction() > policy.outage_threshold:
            return self._fallback(bundle, horizon, "outage", start)

        signature = self.store.signature()
        key = (self.registry.active_version, signature)
        cached = self._cached(key)
        if cached is not None:
            return self._finish(cached[:horizon], "cache", key[0], None, start)

        x, tod, dow = self.store.window()
        try:
            pending = self.batcher.submit(ForecastRequest(x, tod, dow))
            scaled, version = pending.result(timeout=self.config.request_timeout_s)
        except AnomalyError:
            if policy.fallback_on_nan:
                return self._fallback(bundle, horizon, "anomaly", start)
            raise
        except Exception:
            if policy.fallback_on_error:
                return self._fallback(bundle, horizon, "error", start)
            raise
        # The whole horizon, so every later read of this window can be
        # answered from the one entry; the scaler is elementwise, so a
        # slice of it equals the old per-horizon answer bit for bit.
        prediction = self.store.scaler.inverse_transform(scaled[0, :, :, 0])
        if not np.isfinite(prediction).all():
            if policy.fallback_on_nan:
                return self._fallback(bundle, horizon, "anomaly", start)
            raise AnomalyError("servable produced non-finite forecast values")
        self._remember((version, signature), prediction)
        return self._finish(prediction[:horizon], "model", version, None, start)

    def _cached(self, key: tuple) -> np.ndarray | None:
        """The front door's full-horizon entry for ``key``; a core has none."""
        return None

    def _remember(self, key: tuple, prediction: np.ndarray) -> None:
        """Keep a full-horizon forecast in the front door's cache; a core keeps none."""

    def _fallback(self, bundle, horizon: int, reason: str, start: float) -> ForecastResult:
        last_tod, last_dow = self.store.last_time()
        values = fallback_forecast(
            bundle.fallback_profile, last_tod, last_dow, horizon, bundle.spec.steps_per_day
        )
        return self._finish(values, "fallback", self.registry.active_version, reason, start)

    def _finish(
        self, values: np.ndarray, source: str, version: str | None,
        reason: str | None, start: float,
    ) -> ForecastResult:
        latency = now() - start
        self.tally.add(source, reason, latency)
        return ForecastResult(
            values=values, source=source, version=version, reason=reason, latency_s=latency
        )

    # ------------------------------------------------------------------
    # Telemetry / lifecycle
    # ------------------------------------------------------------------
    def telemetry_report(self) -> dict:
        """The serving summary record (see :func:`repro.obs.serving_record`)."""
        batcher = self.batcher.stats()
        return serving_record(
            self.tally.summary(),
            batches=batcher["batches"],
            mean_batch_size=batcher["mean_batch_size"],
            queue_depth_max=batcher["queue_depth_max"],
            **self._cache_counts(),
            active_version=self.registry.active_version,
        )

    def _cache_counts(self) -> dict:
        """The ``cache_*`` fields of :meth:`telemetry_report`; a core has no cache."""
        return {"cache_hits": 0, "cache_misses": 0, "cache_hit_rate": 0.0}

    def close(self) -> None:
        """Stop the micro-batcher's worker thread."""
        self.batcher.stop()

    def __enter__(self) -> "EngineCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServingEngine(EngineCore):
    """Online forecasts over a live observation stream (single process).

    An :class:`EngineCore` plus the front door's :class:`PredictionCache`
    (sized by ``config.cache_capacity``) and telemetry emission — the K=1
    special case of the sharded serving stack.  Every new observation or
    graph rewrite drops the entries keyed to the old window signature.
    ``sink`` (optional) receives the telemetry summary from
    :meth:`emit_telemetry`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        store: SlidingWindowStore,
        config: ServeConfig | None = None,
        sink=None,
    ) -> None:
        super().__init__(registry, store, config)
        self.cache = PredictionCache(capacity=self.config.cache_capacity)
        self.sink = sink

    def observe(
        self,
        values: np.ndarray,
        tod: int,
        dow: int,
        graph_version: int | None = None,
    ) -> int:
        """Ingest one observation row and drop now-stale predictions."""
        signature = super().observe(values, tod, dow, graph_version)
        self.cache.invalidate_stale(signature)
        return signature

    def set_graph_version(self, graph_version: int) -> int:
        """Absorb a mid-stream graph rewrite and drop now-stale predictions."""
        signature = super().set_graph_version(graph_version)
        self.cache.invalidate_stale(signature)
        return signature

    def _cached(self, key: tuple) -> np.ndarray | None:
        return self.cache.get(key)

    def _remember(self, key: tuple, prediction: np.ndarray) -> None:
        self.cache.put(key, prediction)

    def _cache_counts(self) -> dict:
        return self.cache.record_fields()

    def emit_telemetry(self) -> dict:
        """Build the summary record and emit it to the sink (if any)."""
        report = self.telemetry_report()
        if self.sink is not None:
            self.sink.emit(report)
        return report
