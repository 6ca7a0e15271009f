"""Micro-batching: coalesce concurrent forecast requests into one forward.

A single-request forward wastes the engine's batch dimension — the numpy
GEMMs underneath every model amortise their per-call overhead across the
batch axis, so serving sixteen requests as one ``(16, T, N, C)`` forward is
several times cheaper than sixteen ``(1, T, N, C)`` forwards
(``benchmarks/bench_serve.py`` gates the ratio).  The :class:`MicroBatcher`
therefore owns *every* model forward in the serving path — lint rule R008
forbids forwards anywhere else under ``repro.serve``.  :meth:`submit`
enqueues a request and returns a handle; a worker thread drains the queue
into batches of up to ``max_batch``, waiting at most ``max_wait_s`` for
stragglers after the first request arrives, and runs each batch through
:meth:`run_batch`.  Every forward runs under
:func:`repro.check.detect_anomaly`, so a NaN/Inf raises naming the
originating op (and the engine's degradation policy can catch it) instead
of silently propagating into responses.

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
        with model.inference(), detect_anomaly():
            out = model(x, tod, dow)
        out_np = out.numpy()
        with self._lock:
            self.batches += 1
            self.requests_served += len(requests)
        return [out_np[i : i + 1] for i in range(len(requests))], version

    # ------------------------------------------------------------------
    # Asynchronous coalescing path
    # ------------------------------------------------------------------
    def submit(self, request: ForecastRequest) -> _Pending:
        """Enqueue a request for the next coalesced batch; returns a handle."""
        if self._shutdown.is_set():
            raise RuntimeError("micro-batcher is stopped")
        self._ensure_worker()
        pending = _Pending()
        self._queue.put((request, pending))
        with self._lock:
            self.queue_depth_max = max(self.queue_depth_max, self._queue.qsize())
        return pending

    def _ensure_worker(self) -> None:
        with self._lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._worker_loop, name="repro-serve-batcher", daemon=True
                )
                self._worker.start()

    def _worker_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            deadline = now() + self.max_wait_s
            while len(batch) < self.max_batch:
                remaining = deadline - now()
                if remaining <= 0:
                    break
                try:
                    batch.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
            self._run_pending_batch(batch)

    def _run_pending_batch(self, batch: list[tuple[ForecastRequest, _Pending]]) -> None:
        try:
            outputs, version = self.run_batch([request for request, _ in batch])
        except BaseException as error:  # delivered to every waiter, never lost
            for _, pending in batch:
                pending.error = error
                pending.event.set()
            return
        for (_, pending), output in zip(batch, outputs):
            pending.value = output
            pending.version = version
            pending.event.set()

    def stop(self) -> None:
        """Stop the worker thread; pending submits fail fast afterwards."""
        self._shutdown.set()
        worker = self._worker
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
