"""Transports: how forecast traffic reaches a shard's serving core.

The engine/transport split (docs/scaling.md) keeps
:class:`~repro.serve.EngineCore` pure compute and pushes *where the core
runs* behind one small request/reply surface:

* :class:`LoopbackTransport` — the core runs in-process and ops execute
  inline in the caller's thread.  Zero overhead, fully deterministic, the
  transport every test drives; the K=1 loopback shard is bit-identical to
  the plain :class:`~repro.serve.ServingEngine`.
* :class:`ProcessTransport` — the core runs in its own worker process
  (one per shard), fed over a duplex pipe.  The worker owns its model,
  window store, cache and micro-batcher outright, so K workers serve K
  graph shards with no shared interpreter state.

Both speak the same op set — ``observe``, ``forecast``, ``set_graph``,
``publish``, ``activate``, ``telemetry``, ``ping``, ``stop`` — and both
support the
split ``post``/``wait`` form the router uses to scatter a request across
every shard before gathering any reply.  Worker failures surface as
:class:`TransportError` carrying the shard index and op, which the
router's degradation ladder absorbs per shard.

The pipe protocol is sequence-framed: every request is
``(seq, op, payload)`` and every reply ``(seq, status, value)``.  A
timed-out request no longer poisons the lane — the late reply is
recognised by its stale ``seq`` and discarded, so the transport can keep
serving after a hang (docs/scaling.md, "Self-healing & chaos testing").
Timeouts are per-op, from :meth:`~repro.serve.ServeConfig.op_timeout_s`:
a forecast deadline is a few seconds, not the old blanket 60 s.

For chaos testing, :meth:`ProcessTransport.inject_chaos` ships a
directive (``("delay_next", seconds)`` or ``("drop_next",)``) that the
worker applies to its next regular op — the injectors in
:mod:`repro.faults.serving` build hang / slow-reply / reply-drop faults
on top of it.

No model is ever invoked in this module (lint rules R008/R009): transports
move requests, the core's micro-batcher runs forwards.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

from ..utils.blas import set_blas_threads
from ..utils.timer import now
from .engine import EngineCore, ServeConfig
from .registry import ModelRegistry
from .window_store import SlidingWindowStore

__all__ = ["TransportError", "WorkerTransport", "LoopbackTransport", "ProcessTransport"]

_STOP_TIMEOUT_S = 5.0


class TransportError(RuntimeError):
    """A shard worker could not be reached or died mid-request.

    ``shard`` (the worker's shard index) and ``op`` (the transport op that
    failed) identify *which* lane broke — the router's per-shard
    degradation and the supervisor's restart accounting both key off them.
    """

    def __init__(self, message: str, *, shard: int | None = None, op: str | None = None) -> None:
        if shard is not None or op is not None:
            where = " ".join(
                part
                for part in (
                    f"shard {shard}" if shard is not None else "",
                    f"op {op!r}" if op is not None else "",
                )
                if part
            )
            message = f"[{where}] {message}"
        super().__init__(message)
        self.shard = shard
        self.op = op


def _build_core(bundle, version: str, config: ServeConfig | None) -> EngineCore:
    """One shard's serving stack: registry + store + core, from a bundle."""
    registry = ModelRegistry()
    registry.publish(bundle, version=version)
    store = SlidingWindowStore.for_bundle(bundle)
    return EngineCore(registry, store, config)


class WorkerTransport:
    """The op surface a shard worker exposes, however it is hosted.

    :meth:`request` is ``post`` + ``wait`` fused; the split form lets the
    router scatter one request to every shard before gathering any reply.
    At most one request may be outstanding per transport — the router
    serialises scatter/gather rounds, so transports stay single-lane by
    design.
    """

    shard: int | None = None

    @property
    def alive(self) -> bool:
        """Whether the worker is believed able to answer (liveness probe)."""
        return True

    def post(self, op: str, payload: tuple = ()) -> None:
        raise NotImplementedError

    def wait(self):
        raise NotImplementedError

    def request(self, op: str, payload: tuple = ()):
        self.post(op, payload)
        return self.wait()

    def close(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        """Tear the worker down without the stop handshake (default: close).

        The supervisor uses this on workers it has already declared dead or
        hung — a graceful ``close`` would wait out the stop timeout on a
        process that will never ack.
        """
        self.close()


def _apply(core: EngineCore, op: str, payload: tuple):
    """Execute one transport op against a serving core."""
    if op == "observe":
        values, tod, dow = payload[:3]
        graph_version = payload[3] if len(payload) > 3 else None
        return core.observe(values, tod, dow, graph_version=graph_version)
    if op == "forecast":
        return core.forecast(payload[0])
    if op == "set_graph":
        return core.set_graph_version(payload[0])
    if op == "publish":
        bundle, version, activate = payload
        return core.registry.publish(bundle, version=version, activate=activate)
    if op == "activate":
        core.registry.activate(payload[0])
        return None
    if op == "telemetry":
        return core.telemetry_report()
    if op == "ping":
        return "pong"
    raise ValueError(f"unknown transport op {op!r}")


class LoopbackTransport(WorkerTransport):
    """In-process worker: ops run inline on a locally built core."""

    def __init__(
        self,
        bundle,
        version: str = "v1",
        config: ServeConfig | None = None,
        *,
        shard: int | None = None,
        num_shards: int = 1,
    ) -> None:
        # num_shards sizes a process worker's BLAS pool; in process, the
        # caller's pool is left as it is.
        self.core = _build_core(bundle, version, config)
        self.shard = shard
        self._result = None
        self._pending = False

    def post(self, op: str, payload: tuple = ()) -> None:
        if self._pending:
            raise TransportError(
                "loopback transport already has a request in flight",
                shard=self.shard, op=op,
            )
        self._pending = True
        self._result = _apply(self.core, op, payload)

    def wait(self):
        if not self._pending:
            raise TransportError("no request in flight", shard=self.shard)
        self._pending = False
        result, self._result = self._result, None
        return result

    def close(self) -> None:
        self.core.close()


def _worker_main(
    conn, bundle, version: str, config: ServeConfig | None, num_shards: int,
) -> None:
    """Shard worker process body: serve ops from the pipe until ``stop``.

    The worker first sets its OpenBLAS pool to its share of the usable
    cores, ``max(1, cores // num_shards)``, so K workers do not run K pools
    of one thread per core on the same cores.

    Requests are ``(seq, op, payload)`` and every regular op is answered
    exactly once — ``(seq, "ok", value)`` or ``(seq, "error", exception)``
    — so the parent's ``wait`` can match replies to requests and discard
    stale ones after a timeout.  ``stop`` acknowledges, then drains the
    core (the micro-batcher thread joins) before the process exits, so an
    in-flight batch finishes rather than being torn mid-forward.

    ``chaos`` requests are control-channel only: they arm a one-shot
    misbehaviour (``("delay_next", seconds)`` stalls before answering the
    next op; ``("drop_next",)`` executes it but never replies) and are
    themselves never answered.
    """
    set_blas_threads(max(1, len(os.sched_getaffinity(0)) // num_shards))
    core = _build_core(bundle, version, config)
    delay_next_s = 0.0
    drop_next = False
    try:
        while True:
            try:
                seq, op, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "stop":
                conn.send((seq, "ok", None))
                break
            if op == "chaos":
                if payload[0] == "delay_next":
                    delay_next_s = float(payload[1])
                elif payload[0] == "drop_next":
                    drop_next = True
                continue  # chaos directives are never answered
            if delay_next_s:
                time.sleep(delay_next_s)
                delay_next_s = 0.0
            try:
                reply = (seq, "ok", _apply(core, op, payload))
            except BaseException as error:  # answered, not lost — router degrades
                reply = (seq, "error", error)
            if drop_next:
                drop_next = False
                continue  # the op ran; only the reply is lost
            conn.send(reply)
    finally:
        core.close()
        conn.close()


class ProcessTransport(WorkerTransport):
    """One shard worker in its own process, spoken to over a duplex pipe.

    Per-op deadlines come from ``config.op_timeout_s``.  A timeout raises
    :class:`TransportError` but does not poison the lane: the in-flight
    request is abandoned and its eventual reply (if the worker was merely
    slow) is drained and discarded by seq before the next ``post``.
    ``num_shards`` is how many such workers share the host; the worker's
    OpenBLAS pool gets ``max(1, cores // num_shards)`` threads.
    """

    def __init__(
        self,
        bundle,
        version: str = "v1",
        config: ServeConfig | None = None,
        *,
        shard: int | None = None,
        num_shards: int = 1,
    ) -> None:
        self._conn, child = mp.Pipe(duplex=True)
        self.shard = shard
        self._config = config or ServeConfig()
        self._lock = threading.Lock()
        self._seq = 0
        self._pending: tuple[int, str] | None = None
        self._closed = False
        self._broken = False
        self.process = mp.Process(
            target=_worker_main,
            args=(child, bundle, version, config, num_shards),
            name="repro-serve-shard",
            daemon=True,
        )
        self.process.start()
        child.close()  # parent keeps one end only

    @property
    def alive(self) -> bool:
        return not self._closed and not self._broken and self.process.is_alive()

    def _drain_locked(self) -> None:
        """Discard stale replies left behind by timed-out requests."""
        try:
            while self._conn.poll(0):
                self._conn.recv()
        except (EOFError, OSError):
            pass  # a dead worker surfaces on the next send/recv

    def post(self, op: str, payload: tuple = ()) -> None:
        with self._lock:
            if self._closed or self._broken:
                raise TransportError("transport is closed", shard=self.shard, op=op)
            if self._pending is not None:
                raise TransportError(
                    "process transport already has a request in flight",
                    shard=self.shard, op=op,
                )
            self._drain_locked()
            self._seq += 1
            try:
                self._conn.send((self._seq, op, payload))
            except (BrokenPipeError, OSError) as error:
                self._broken = True
                raise TransportError(
                    f"shard worker is gone: {error}", shard=self.shard, op=op
                ) from error
            self._pending = (self._seq, op)

    def wait(self):
        with self._lock:
            if self._pending is None:
                raise TransportError("no request in flight", shard=self.shard)
            seq, op = self._pending
            self._pending = None
            timeout = self._config.op_timeout_s(op)
            deadline = now() + timeout
            while True:
                remaining = deadline - now()
                if remaining <= 0 or not self._conn.poll(remaining):
                    # Lane stays usable: the stale reply is drained by seq.
                    raise TransportError(
                        f"shard worker did not answer within {timeout}s",
                        shard=self.shard, op=op,
                    )
                try:
                    rseq, status, value = self._conn.recv()
                except (EOFError, OSError) as error:
                    self._broken = True
                    raise TransportError(
                        f"shard worker died mid-request: {error}",
                        shard=self.shard, op=op,
                    ) from error
                if rseq == seq:
                    break
                # Stale reply from a previously timed-out request: discard.
        if status == "error":
            raise value
        return value

    def inject_chaos(self, directive: tuple) -> None:
        """Ship a one-shot chaos directive (hang / slow / drop) to the worker.

        Control-channel only: the worker applies it to its *next* regular
        op and never answers the directive itself, so the request/reply
        pairing stays intact.  Used by :mod:`repro.faults.serving`.
        """
        with self._lock:
            if self._closed or self._broken:
                raise TransportError("transport is closed", shard=self.shard, op="chaos")
            try:
                self._conn.send((0, "chaos", tuple(directive)))
            except (BrokenPipeError, OSError) as error:
                self._broken = True
                raise TransportError(
                    f"shard worker is gone: {error}", shard=self.shard, op="chaos"
                ) from error

    def kill(self) -> None:
        """Hard teardown: no stop handshake, terminate and reap the process."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.close()
            except OSError:
                pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=_STOP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=_STOP_TIMEOUT_S)

    def close(self) -> None:
        """Stop the worker: ack'd stop, join, hard-kill only as last resort."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if not self._broken:
                    self._drain_locked()
                    self._seq += 1
                    self._conn.send((self._seq, "stop", ()))
                    deadline = now() + _STOP_TIMEOUT_S
                    while True:
                        remaining = deadline - now()
                        if remaining <= 0 or not self._conn.poll(remaining):
                            break
                        rseq, _status, _value = self._conn.recv()
                        if rseq == self._seq:
                            break
            except (BrokenPipeError, EOFError, OSError):
                pass  # worker already gone
            finally:
                self._conn.close()
        self.process.join(timeout=_STOP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=_STOP_TIMEOUT_S)
