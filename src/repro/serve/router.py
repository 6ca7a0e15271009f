"""The sharded serving front-end: scatter observations, gather forecasts.

:class:`ShardedServingEngine` is the multi-shard counterpart of
:class:`~repro.serve.ServingEngine`: it partitions the road graph
(:func:`repro.serve.shard.partition_graph`), runs one worker per shard
behind a :mod:`transport <repro.serve.transport>` (in-process loopback or
one process per shard), and presents the same ``observe`` / ``forecast`` /
``telemetry_report`` surface — ``replay_split`` and the load generator
drive either engine unchanged.

Responsibilities, top to bottom:

* **Admission control** — ``DegradationPolicy.max_inflight`` bounds the
  requests inside the router; overload arrivals are shed straight to the
  historical-average profile (reason ``"shed"``) instead of queueing into a
  latency collapse.  ``benchmarks/bench_serve_scale.py`` measures the p99
  difference this buys under 2x-capacity overload.
* **Scatter/gather** — one ``observe`` fans each shard its local slice of
  the row (owned + halo columns: the halo exchange); one ``forecast`` fans
  out to every shard and stitches the owned columns of each answer into
  the full ``(horizon, N)`` forecast.
* **Per-shard degradation** — a shard that degrades (cold start, outage,
  anomaly) answers from its local fallback profile, so the stitched
  forecast is still complete; a shard that *dies or times out*
  (:class:`TransportError`) contributes historical-average values for its
  owned nodes only while every healthy shard keeps serving model
  forecasts — one crash no longer drags K−1 healthy shards down with it.
  Strict mode (``fallback_on_error=False``) still re-raises.
* **Self-healing** — every ``observe`` is journalled
  (:class:`~repro.serve.ReplayJournal`) and, with
  ``ServeConfig(supervision=...)``, a :class:`~repro.serve.ShardSupervisor`
  restarts failed workers and re-hydrates them from that journal (see
  docs/scaling.md, "Self-healing & chaos testing").

K=1 with the loopback transport is the plain serving engine wearing a
router hat: same core, same ladder, bit-identical outputs.

No model is invoked here (lint rules R008/R009) — forwards happen inside
each worker's micro-batcher.
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs.telemetry import ServingTally, serving_record
from ..utils.timer import now
from .degrade import fallback_forecast
from .engine import ForecastResult, ServeConfig
from .registry import ServableBundle
from .shard import GraphPartition, partition_graph, shard_bundle
from .supervise import ReplayJournal, ShardSupervisor
from .transport import LoopbackTransport, ProcessTransport, TransportError

__all__ = ["ShardedServingEngine"]

_TRANSPORTS = {"loopback": LoopbackTransport, "process": ProcessTransport}


class _ScatterStore:
    """The store-shaped face of the router.

    ``replay_split`` and the load generator talk to ``engine.store``
    (history, warm_from, last_time); the router has one window store *per
    worker*, so this facade forwards those calls through the scatter path.
    """

    def __init__(self, router: "ShardedServingEngine") -> None:
        self._router = router
        self.history = router.bundle.spec.history
        self.num_nodes = router.bundle.spec.num_nodes

    def warm_from(self, values: np.ndarray, tod: np.ndarray, dow: np.ndarray) -> int:
        values = np.asarray(values)
        signature = 0
        for step in range(values.shape[0]):
            signature = self._router.observe(
                values[step], int(tod[step]), int(dow[step])
            )
        return signature

    def last_time(self) -> tuple[int, int]:
        return self._router.last_time()

    def __len__(self) -> int:
        return min(self._router.observed, self.history)


class ShardedServingEngine:
    """Forecasts over K spatial shards behind one front door.

    ``transport`` is ``"process"`` (one worker process per shard — real
    serving) or ``"loopback"`` (in-process cores — tests, and the exact
    K=1 equivalence).  ``halo_hops`` widens each shard's halo ring; 1
    covers the cut diffusion edges exactly, larger values buy boundary
    accuracy for deeper receptive fields (docs/scaling.md).

    With ``config.supervision`` set, a :class:`~repro.serve.ShardSupervisor`
    thread health-checks the workers and restarts failures with
    replay-journal re-hydration; without it the engine serves unsupervised
    (failed shards stay on their fallback tier).
    """

    def __init__(
        self,
        bundle: ServableBundle,
        num_shards: int = 2,
        config: ServeConfig | None = None,
        *,
        transport: str = "process",
        halo_hops: int = 1,
        partition: GraphPartition | None = None,
        sink=None,
    ) -> None:
        if transport not in _TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; choose from {sorted(_TRANSPORTS)}"
            )
        self.bundle = bundle
        self.config = config or ServeConfig()
        self.partition = partition or partition_graph(
            bundle.adjacency, num_shards, halo_hops=halo_hops
        )
        if self.partition.num_nodes != bundle.spec.num_nodes:
            raise ValueError(
                f"partition covers {self.partition.num_nodes} nodes, "
                f"bundle has {bundle.spec.num_nodes}"
            )
        self.transport_kind = transport
        self.sink = sink
        self._version_counter = 1
        self.active_version = "v1"
        self._bundles = {"v1": bundle}  # publish-ordered full-graph catalog
        transport_cls = _TRANSPORTS[transport]
        self.workers = [
            transport_cls(
                shard_bundle(bundle, plan), version="v1", config=self.config,
                shard=plan.shard, num_shards=self.partition.num_shards,
            )
            for plan in self.partition.plans
        ]
        self.journal = ReplayJournal(
            num_shards=self.partition.num_shards, capacity=bundle.spec.history
        )
        self.store = _ScatterStore(self)
        self._rpc_lock = threading.Lock()  # one scatter/gather round at a time
        self._state_lock = threading.Lock()
        self._inflight = 0
        self.observed = 0
        self._signature = 0
        self._last_time: tuple[int, int] | None = None
        self.tally = ServingTally()
        self._partial_fallbacks = 0
        self._shard_faults: list[dict[str, int]] = [
            {} for _ in range(self.partition.num_shards)
        ]
        self.supervisor: ShardSupervisor | None = None
        if self.config.supervision is not None:
            self.supervisor = ShardSupervisor(self, self.config.supervision)
            self.supervisor.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def build_worker(self, shard: int):
        """A fresh worker for ``shard`` carrying the full version catalog.

        Spawns the transport on the first published bundle, republishes
        every later version (without activating), then activates whatever
        the router currently serves.  The supervisor re-hydrates its window
        store from the replay journal before swapping it live.
        """
        plan = self.partition.plans[shard]
        transport_cls = _TRANSPORTS[self.transport_kind]
        with self._state_lock:
            catalog = list(self._bundles.items())
            active = self.active_version
        first_version, first_bundle = catalog[0]
        worker = transport_cls(
            shard_bundle(first_bundle, plan), version=first_version,
            config=self.config, shard=shard, num_shards=self.partition.num_shards,
        )
        try:
            for version, bundle in catalog[1:]:
                worker.request("publish", (shard_bundle(bundle, plan), version, False))
            if active != first_version or len(catalog) > 1:
                worker.request("activate", (active,))
        except BaseException:
            worker.close()
            raise
        return worker

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------
    def _broadcast_locked(self, op: str, payloads) -> list:
        """Scatter one op to every worker; every posted lane is drained.

        Must be called with ``_rpc_lock`` held.  Returns one outcome per
        shard — the reply value, or the exception that round-trip raised.
        Waiting on *every* posted worker even after a failure is what keeps
        a timeout on one shard from leaving healthy lanes with unread
        replies (the hung-worker poisoning bug this PR fixes).
        """
        outcomes: list = [None] * len(self.workers)
        posted = []
        for shard, (worker, payload) in enumerate(zip(self.workers, payloads)):
            try:
                worker.post(op, payload)
            except BaseException as error:
                outcomes[shard] = error
            else:
                posted.append(shard)
        for shard in posted:
            try:
                outcomes[shard] = self.workers[shard].wait()
            except BaseException as error:
                outcomes[shard] = error
        return outcomes

    def _settle(self, op: str, outcomes: list) -> tuple[list, list]:
        """Split outcomes into (results, transport failures) and account them.

        Non-transport exceptions (application errors the worker answered
        with) are re-raised — after the full drain, so no lane is left
        pending.  Transport failures feed the per-shard fault counters and
        the supervisor.  Called *outside* ``_rpc_lock``.
        """
        failures = []
        for shard, outcome in enumerate(outcomes):
            if isinstance(outcome, TransportError):
                failures.append((shard, outcome))
            elif isinstance(outcome, BaseException):
                raise outcome
        if failures:
            with self._state_lock:
                for shard, _error in failures:
                    counts = self._shard_faults[shard]
                    counts[op] = counts.get(op, 0) + 1
        if self.supervisor is not None:
            for shard, error in failures:
                self.supervisor.note_failure(shard, op, error)
            for shard, outcome in enumerate(outcomes):
                if not isinstance(outcome, BaseException):
                    self.supervisor.note_success(shard)
        return outcomes, failures

    # ------------------------------------------------------------------
    # Ingestion: scatter each row's owned+halo slices to the workers
    # ------------------------------------------------------------------
    def observe(
        self,
        values: np.ndarray,
        tod: int,
        dow: int,
        graph_version: int | None = None,
    ) -> int:
        values = np.asarray(values, dtype=np.float32).reshape(-1)
        if values.shape[0] != self.store.num_nodes:
            raise ValueError(
                f"expected {self.store.num_nodes} node values, got {values.shape[0]}"
            )
        slices = self.partition.scatter_row(values)
        if graph_version is None:
            payloads = [(local, tod, dow) for local in slices]
        else:
            # Per-tick adjacency tag: each shard bumps its window signature
            # when the tag changes, so a mid-stream graph rewrite invalidates
            # its prediction cache (see SlidingWindowStore.append).
            payloads = [(local, tod, dow, int(graph_version)) for local in slices]
        with self._rpc_lock:
            # Journal inside the same round: a supervisor delta-replay can
            # never interleave between a scatter and its journal entry.
            self.journal.record(slices, tod, dow)
            outcomes = self._broadcast_locked("observe", payloads)
        _outcomes, failures = self._settle("observe", outcomes)
        if failures and not self.config.policy.fallback_on_error:
            raise failures[0][1]
        # Router-side stream state advances even when a shard missed the
        # row — the journal holds it, and re-hydration replays it.
        with self._state_lock:
            self.observed += 1
            self._signature += 1
            self._last_time = (int(tod), int(dow))
            return self._signature

    def set_graph_version(self, graph_version: int) -> int:
        """Broadcast a mid-stream graph rewrite to every shard.

        The sharded counterpart of :meth:`EngineCore.set_graph_version`: a
        road closure between two observations must invalidate every
        shard's prediction cache even though no new row arrived.  Shards
        that cannot be reached degrade as usual (their caches are rebuilt
        from scratch by the supervisor anyway).
        """
        with self._rpc_lock:
            outcomes = self._broadcast_locked(
                "set_graph", [(int(graph_version),)] * len(self.workers)
            )
        _outcomes, failures = self._settle("set_graph", outcomes)
        if failures and not self.config.policy.fallback_on_error:
            raise failures[0][1]
        with self._state_lock:
            self._signature += 1
            return self._signature

    def last_time(self) -> tuple[int, int]:
        with self._state_lock:
            if self._last_time is None:
                raise RuntimeError("no observations ingested yet")
            return self._last_time

    # ------------------------------------------------------------------
    # Serving: admission control, fan-out, stitch
    # ------------------------------------------------------------------
    def forecast(self, horizon: int | None = None) -> ForecastResult:
        start = now()
        spec = self.bundle.spec
        if horizon is None:
            horizon = self.config.horizon or spec.horizon
        if not 1 <= horizon <= spec.horizon:
            raise ValueError(f"horizon must be in [1, {spec.horizon}], got {horizon}")
        policy = self.config.policy
        shed_now = False
        with self._state_lock:
            if self.observed == 0:
                raise RuntimeError("no observations ingested yet; call observe() first")
            over_limit = (
                policy.max_inflight is not None
                and self._inflight >= policy.max_inflight
            )
            if over_limit and policy.shed_on_overload:
                shed_now = True
                last_tod, last_dow = self._last_time
                profile = self._bundles[self.active_version].fallback_profile
                version = self.active_version
            else:
                self._inflight += 1
        if shed_now:
            values = fallback_forecast(
                profile, last_tod, last_dow, horizon, spec.steps_per_day
            )
            return self._finish(values, "fallback", version, "shed", start)
        try:
            with self._rpc_lock:
                outcomes = self._broadcast_locked(
                    "forecast", [(horizon,)] * len(self.workers)
                )
            outcomes, failures = self._settle("forecast", outcomes)
            if failures and not policy.fallback_on_error:
                raise failures[0][1]
        finally:
            with self._state_lock:
                self._inflight -= 1
        return self._stitch(outcomes, failures, horizon, start)

    def _stitch(self, outcomes, failures, horizon: int, start: float) -> ForecastResult:
        """Assemble the full-graph forecast from per-shard outcomes.

        Healthy shards contribute their model/cache/fallback answers;
        failed shards contribute historical-average values for their owned
        nodes only, sliced from the active version's full-graph profile.
        """
        num_shards = len(self.workers)
        failed = {shard for shard, _error in failures}
        results = [out for out in outcomes if isinstance(out, ForecastResult)]
        if failed:
            last_tod, last_dow = self.last_time()
            with self._state_lock:
                profile = self._bundles[self.active_version].fallback_profile
            full_fallback = fallback_forecast(
                profile, last_tod, last_dow, horizon, self.bundle.spec.steps_per_day
            )
            if 0 < len(failed) < num_shards:
                with self._state_lock:
                    self._partial_fallbacks += 1
        shard_values = []
        for shard, outcome in enumerate(outcomes):
            if shard in failed:
                plan = self.partition.plans[shard]
                shard_values.append(full_fallback[:, plan.owned])
            else:
                shard_values.append(outcome.values)
        values = self.partition.gather(shard_values)
        sources = {result.source for result in results}
        if failed:
            source, reason = "fallback", "error"
        elif "fallback" in sources:
            source = "fallback"
            reason = next(r.reason for r in results if r.reason is not None)
        elif "model" in sources:
            source, reason = "model", None
        else:
            source, reason = "cache", None
        version = results[0].version if results else self.active_version
        return self._finish(values, source, version, reason, start)

    def _finish(self, values, source, version, reason, start) -> ForecastResult:
        latency = now() - start
        self.tally.add(source, reason, latency)
        return ForecastResult(
            values=values, source=source, version=version, reason=reason,
            latency_s=latency,
        )

    # ------------------------------------------------------------------
    # Versioning: hot-swap every shard in lockstep
    # ------------------------------------------------------------------
    def publish(self, bundle: ServableBundle, activate: bool = True) -> str:
        """Shard a new bundle and publish it to every worker.

        A shard that fails the publish is *fenced* — closed so it can never
        serve a stale version mix — and left to the supervisor (or the
        fallback tier) rather than aborting the rollout for healthy shards.
        Raises only if every shard failed.
        """
        if bundle.spec.num_nodes != self.bundle.spec.num_nodes:
            raise ValueError("a published bundle must cover the same node set")
        with self._state_lock:
            self._version_counter += 1
            version = f"v{self._version_counter}"
            self._bundles[version] = bundle
        with self._rpc_lock:
            outcomes = self._broadcast_locked(
                "publish",
                [
                    (shard_bundle(bundle, plan), version, activate)
                    for plan in self.partition.plans
                ],
            )
        _outcomes, failures = self._settle("publish", outcomes)
        self._fence_control_failures("publish", failures)
        if activate:
            with self._state_lock:
                self.active_version = version
        return version

    def activate(self, version: str) -> None:
        """Hot-swap every shard to a published version (failed shards fenced)."""
        with self._state_lock:
            if version not in self._bundles:
                raise KeyError(f"unknown version {version!r}")
        with self._rpc_lock:
            outcomes = self._broadcast_locked(
                "activate", [(version,)] * len(self.workers)
            )
        _outcomes, failures = self._settle("activate", outcomes)
        self._fence_control_failures("activate", failures)
        with self._state_lock:
            self.active_version = version

    def _fence_control_failures(self, op: str, failures) -> None:
        """Version-consistency fence: a shard that missed a control op dies.

        Serving a stale version on one shard would silently mix model
        versions inside a single stitched forecast; closing the worker
        forces it onto the fallback tier until the supervisor rebuilds it
        with the full catalog.
        """
        if len(failures) == len(self.workers) and self.workers:
            raise failures[0][1]
        for shard, error in failures:
            try:
                self.workers[shard].close()
            except Exception:
                pass
            if self.supervisor is not None:
                self.supervisor.note_failure(shard, op, error, force=True)

    # ------------------------------------------------------------------
    # Telemetry / lifecycle
    # ------------------------------------------------------------------
    def telemetry_report(self) -> dict:
        """Router-level summary plus each shard's own serving record.

        Unreachable shards report a zeroed stub with ``"unreachable": True``
        instead of failing the whole report — telemetry must work *best*
        when the system is degraded.
        """
        with self._rpc_lock:
            outcomes = self._broadcast_locked(
                "telemetry", [()] * len(self.workers)
            )
        _outcomes, _failures = self._settle("telemetry", outcomes)
        shards = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                shards.append({
                    "requests": 0, "batches": 0, "mean_batch_size": 0.0,
                    "queue_depth_max": 0, "cache_hits": 0, "cache_misses": 0,
                    "unreachable": True,
                })
            else:
                shards.append(outcome)
        summary = self.tally.summary()
        with self._state_lock:
            partial = self._partial_fallbacks
            shard_faults = [dict(counts) for counts in self._shard_faults]
            version = self.active_version
        batches = sum(s["batches"] for s in shards)
        cache_hits = sum(s["cache_hits"] for s in shards)
        cache_misses = sum(s["cache_misses"] for s in shards)
        lookups = cache_hits + cache_misses
        report = serving_record(
            summary,
            batches=batches,
            mean_batch_size=(
                sum(s["batches"] * s["mean_batch_size"] for s in shards) / batches
                if batches else 0.0
            ),
            queue_depth_max=max((s["queue_depth_max"] for s in shards), default=0),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_hit_rate=cache_hits / lookups if lookups else 0.0,
            active_version=version,
        )
        report["num_shards"] = self.partition.num_shards
        report["transport"] = self.transport_kind
        report["shed"] = summary["fallback_reasons"].get("shed", 0)
        report["shards"] = shards
        report["shard_faults"] = shard_faults
        report["partial_fallbacks"] = partial
        if self.supervisor is not None:
            report["shard_health"] = self.supervisor.report()
            report["restarts"] = self.supervisor.total_restarts
        else:
            report["shard_health"] = [
                {"shard": shard, "alive": bool(getattr(worker, "alive", True))}
                for shard, worker in enumerate(self.workers)
            ]
            report["restarts"] = 0
        return report

    def emit_telemetry(self) -> dict:
        report = self.telemetry_report()
        if self.sink is not None:
            self.sink.emit(report)
        return report

    def close(self) -> None:
        """Shut every worker down; idempotent, safe with requests in flight."""
        if self.supervisor is not None:
            self.supervisor.stop()
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "ShardedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
