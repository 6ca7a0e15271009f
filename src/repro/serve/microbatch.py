"""Micro-batching: coalesce concurrent forecast requests into one forward.

A single-request forward wastes the engine's batch dimension — the numpy
GEMMs underneath every model amortise their per-call overhead across the
batch axis, so serving sixteen requests as one ``(16, T, N, C)`` forward is
several times cheaper than sixteen ``(1, T, N, C)`` forwards
(``benchmarks/bench_serve.py`` gates the ratio).  The :class:`MicroBatcher`
therefore owns *every* model forward in the serving path — lint rule R008
forbids forwards anywhere else under ``repro.serve``.  :meth:`submit`
enqueues a request and returns a handle; a worker thread takes everything
already queued, up to ``max_batch``, and runs each batch through
:meth:`run_batch`.  It waits for more only while the batch holds fewer
requests than the last cycle saw (that batch's size plus the requests that
queued up during its forward, starting at 1), and ``max_wait_s`` is the
cap on waiting for the stragglers the last cycle predicts, counted from
the first pick.  So a lone client never waits, while closed-loop clients
keep coalescing (``docs/performance.md``, "Batching without a straggler
timer").

Every batch is checked once for NaN/Inf, so a non-finite value raises
naming the originating op (and the engine's degradation policy can catch
it) instead of silently propagating into responses.  The forward runs
with numpy's floating-point errors raising; it counts as clean when the
model's parameters (checked once per model object) and the input batch
are finite, no op raised an overflow, invalid or divide error, and the
output is finite.  Otherwise the same batch is re-run under
:func:`repro.check.detect_anomaly`, whose per-op checks raise the
:class:`~repro.check.AnomalyError` naming the op, exactly as if the guard
had been on all along.  The check is exact because a NaN or Inf created
from finite operands by a ufunc or a GEMM sets an FP flag in the thread
that computes it (``docs/performance.md``, "Guarding the batch, not each
op", also names the one case it cannot see).

Batching is exact, not approximate: with 2-D weight matrices a batched
matmul is the same per-sample GEMMs stacked, so batched outputs are
bit-identical to single-request outputs whenever each request's GEMMs have
more than one row (B·N > 1, true of every D²STGNN forward) — asserted by
the serve benchmark.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from ..check.sanitizers import detect_anomaly
from ..utils.timer import now

__all__ = ["ForecastRequest", "MicroBatcher"]

_STOP = object()  # queued by stop(): wakes the worker so it exits


@dataclass
class ForecastRequest:
    """One forecast request: a single model-ready window.

    ``x`` is ``(1, history, num_nodes, C)`` scaled; ``tod``/``dow`` are
    ``(1, history)`` ints — the exact shapes
    :meth:`~repro.serve.SlidingWindowStore.window` produces.
    """

    x: np.ndarray
    tod: np.ndarray
    dow: np.ndarray


class _Pending:
    """Completion handle for a submitted request."""

    __slots__ = ("event", "value", "version", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: np.ndarray | None = None
        self.version: str | None = None
        self.error: BaseException | None = None

    def result(self, timeout: float | None = None) -> tuple[np.ndarray, str]:
        """Block until served; returns ``(scaled_output, version)``.

        Re-raises whatever exception the batch forward raised; raises
        ``TimeoutError`` if the batcher does not answer in time.
        """
        if not self.event.wait(timeout):
            raise TimeoutError("forecast request timed out")
        if self.error is not None:
            raise self.error
        assert self.value is not None and self.version is not None
        return self.value, self.version


class MicroBatcher:
    """Coalesces forecast requests into batched forwards.

    ``resolve`` is a callable returning ``(version, model, bundle)`` —
    normally :meth:`~repro.serve.ModelRegistry.resolve` — re-invoked at the
    start of every batch so hot-swaps take effect between batches.
    """

    def __init__(
        self,
        resolve,
        max_batch: int = 16,
        max_wait_s: float = 0.002,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self._resolve = resolve
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._queue: queue.Queue = queue.Queue()
        self._worker: threading.Thread | None = None
        self._shutdown = threading.Event()
        self._lock = threading.Lock()
        self.requests_served = 0
        self.batches = 0
        self.queue_depth_max = 0
        self._finite_memo: tuple[object, bool] | None = None

    # ------------------------------------------------------------------
    # The one model-forward site in the serving path
    # ------------------------------------------------------------------
    def run_batch(self, requests: list[ForecastRequest]) -> tuple[list[np.ndarray], str]:
        """Run one coalesced forward; returns per-request outputs + version.

        Outputs are ``(1, horizon, num_nodes, C)`` slices in *scaled* units,
        one per request, in request order.
        """
        if not requests:
            return [], ""
        version, model, _ = self._resolve()
        x = np.concatenate([request.x for request in requests], axis=0)
        tod = np.concatenate([request.tod for request in requests], axis=0)
        dow = np.concatenate([request.dow for request in requests], axis=0)
        out_np = self._checked_forward(model, x, tod, dow)
        with self._lock:
            self.batches += 1
            self.requests_served += len(requests)
        return [out_np[i : i + 1] for i in range(len(requests))], version

    def _checked_forward(self, model, x, tod, dow) -> np.ndarray:
        """One forward, checked once; the per-op guard re-runs a failed check."""
        if self._parameters_finite(model) and np.isfinite(x).all():
            # The FP errors that mark a NaN/Inf created inside the forward.
            raising = np.errstate(over="raise", invalid="raise", divide="raise")
            try:
                with model.inference(), raising:
                    out = model(x, tod, dow).numpy()
            except FloatingPointError:
                pass
            else:
                if np.isfinite(out).all():
                    return out
        with model.inference(), detect_anomaly():
            return model(x, tod, dow).numpy()

    def _parameters_finite(self, model) -> bool:
        # One slot, refreshed when resolve() hands out another model: a
        # version swap costs one scan, and the memo never grows.  The pair
        # is replaced whole, so a concurrent caller never reads one model's
        # answer for another.  Served models are not mutated after loading.
        memo = self._finite_memo
        if memo is None or memo[0] is not model:
            finite = all(np.isfinite(p.data).all() for p in model.parameters())
            memo = self._finite_memo = (model, finite)
        return memo[1]

    # ------------------------------------------------------------------
    # Asynchronous coalescing path
    # ------------------------------------------------------------------
    def submit(self, request: ForecastRequest) -> _Pending:
        """Enqueue a request for the next coalesced batch; returns a handle."""
        pending = _Pending()
        with self._lock:
            # Under the lock, so stop() fails every request queued before it.
            if self._shutdown.is_set():
                raise RuntimeError("micro-batcher is stopped")
            self._ensure_worker_locked()
            self._queue.put((request, pending))
            self.queue_depth_max = max(self.queue_depth_max, self._queue.qsize())
        return pending

    def _ensure_worker_locked(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serve-batcher", daemon=True
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        # How many requests the last cycle saw: its batch plus what queued
        # up during its forward.  A batch waits for stragglers only while it
        # holds fewer, so a lone client never waits and closed-loop clients
        # still coalesce.
        expected = 1
        item = None
        while item is not _STOP:
            item = self._queue.get()
            deadline = now() + self.max_wait_s
            batch = []
            while item is not _STOP:
                batch.append(item)
                if len(batch) == self.max_batch:
                    break
                wait = max(0.0, deadline - now()) if len(batch) < expected else 0.0
                try:
                    item = self._queue.get(timeout=wait)  # 0: only what is queued
                except queue.Empty:
                    break
            if batch:
                expected = min(self.max_batch, len(batch) + self._run_pending_batch(batch))

    def _run_pending_batch(self, batch: list[tuple[ForecastRequest, _Pending]]) -> int:
        """Run and answer one batch; returns how many requests queued meanwhile.

        The queue is read before any waiter is woken, so a client's next
        request does not count as one that arrived during the forward.
        """
        try:
            outputs, version = self.run_batch([request for request, _ in batch])
            error = None
        except BaseException as failure:  # delivered to every waiter, never lost
            outputs, version, error = [None] * len(batch), None, failure
        queued = self._queue.qsize()
        for (_, pending), output in zip(batch, outputs):
            pending.value, pending.version, pending.error = output, version, error
            pending.event.set()
        return queued

    def stop(self) -> None:
        """Stop the worker thread and fail every request still queued.

        A batch already in its forward is answered; submits afterwards
        raise at once.
        """
        with self._lock:
            self._shutdown.set()
            stranded = []
            while True:
                try:
                    stranded.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            worker = self._worker
            self._queue.put(_STOP)
        stopped = RuntimeError("micro-batcher is stopped")
        for item in stranded:
            if item is not _STOP:
                item[1].error = stopped
                item[1].event.set()
        if worker is not None and worker.is_alive():
            worker.join(timeout=1.0)

    def stats(self) -> dict:
        """``{"requests", "batches", "mean_batch_size", "queue_depth_max"}``."""
        with self._lock:
            return {
                "requests": self.requests_served,
                "batches": self.batches,
                "mean_batch_size": (
                    self.requests_served / self.batches if self.batches else 0.0
                ),
                "queue_depth_max": self.queue_depth_max,
            }
