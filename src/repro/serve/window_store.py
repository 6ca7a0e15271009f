"""Streaming ingestion: per-node observations into a model-ready window.

The serving counterpart of :class:`~repro.data.windows.WindowDataset`: where
training slices windows out of a complete recorded series, a serving process
receives one observation row at a time and must always hold the *most recent*
``history`` steps.  :class:`SlidingWindowStore` keeps them in fixed-size ring
buffers — ``append`` is O(1) in the history length (one row scaled, one slot
overwritten; no shifting) and ``window`` assembles the model input on demand.

Outage handling matches the training pipeline exactly: each incoming row is
passed through the bundle's train-fit scaler, whose ``mask_nulls`` maps
zero-encoded sensor outages to 0.0 in scaled space — the training mean — so
an outage reaches the model as a neutral input at serving time just as it
did at training time.  The raw row is kept alongside so
:meth:`outage_fraction` can drive the degradation policy.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["SlidingWindowStore"]


class SlidingWindowStore:
    """Ring-buffered sliding window of the latest ``history`` observations.

    Thread-safe: producers call :meth:`append` while the serving engine
    reads :meth:`window`; a lock makes each operation atomic.  The
    :meth:`signature` counter increments on every append and is the cache
    key component that invalidates stale predictions.
    """

    def __init__(
        self,
        history: int,
        num_nodes: int,
        scaler,
        null_value: float | None = 0.0,
    ) -> None:
        if history <= 0:
            raise ValueError("history must be positive")
        self.history = history
        self.num_nodes = num_nodes
        self.scaler = scaler
        self.null_value = null_value
        self._scaled = np.zeros((history, num_nodes), dtype=np.float32)
        self._nulls = np.zeros(history, dtype=np.int64)  # null-coded entries per row
        self._tod = np.zeros(history, dtype=np.int64)
        self._dow = np.zeros(history, dtype=np.int64)
        self._head = 0  # next slot to overwrite
        self._count = 0
        self._version = 0
        self._graph_version = 0
        self._lock = threading.Lock()

    @classmethod
    def for_bundle(cls, bundle) -> "SlidingWindowStore":
        """Build a store matching a servable bundle's window geometry."""
        return cls(
            history=bundle.spec.history,
            num_nodes=bundle.spec.num_nodes,
            scaler=bundle.scaler(),
            null_value=bundle.spec.null_value,
        )

    def append(
        self,
        values: np.ndarray,
        tod: int,
        dow: int,
        graph_version: int | None = None,
    ) -> int:
        """Ingest one observation row (raw units); returns the new signature.

        ``values`` is the ``(num_nodes,)`` sensor reading; ``tod``/``dow``
        its time-of-day slot and day-of-week.  Null-coded outage entries are
        neutralised by the scaler at ingest (``mask_nulls``), exactly once —
        the stored scaled row is what the model will see.

        ``graph_version`` is an optional per-tick adjacency version tag: a
        change (e.g. a mid-stream road closure rewriting the graph) bumps
        the window signature an extra step, so predictions computed against
        the old graph become unreachable in the cache even though the
        window *contents* look the same.
        """
        values = np.asarray(values, dtype=np.float32).reshape(-1)
        if values.shape[0] != self.num_nodes:
            raise ValueError(
                f"expected {self.num_nodes} node values, got {values.shape[0]}"
            )
        scaled = self.scaler.transform(values)
        nulls = 0 if self.null_value is None else np.count_nonzero(
            np.isclose(values, self.null_value)
        )
        with self._lock:
            if graph_version is not None and int(graph_version) != self._graph_version:
                self._graph_version = int(graph_version)
                self._version += 1
            slot = self._head
            self._nulls[slot] = nulls
            self._scaled[slot] = scaled
            self._tod[slot] = int(tod)
            self._dow[slot] = int(dow)
            self._head = (slot + 1) % self.history
            self._count = min(self._count + 1, self.history)
            self._version += 1
            return self._version

    def set_graph_version(self, graph_version: int) -> int:
        """Record a mid-stream graph rewrite; returns the new signature.

        A road closure can land *between* observations — without this, a
        prediction cached for the current window would keep being served
        against a graph that no longer exists.  Changing the tag bumps the
        signature so stale-graph cache entries become unreachable; setting
        the same tag again is a no-op.
        """
        with self._lock:
            if int(graph_version) != self._graph_version:
                self._graph_version = int(graph_version)
                self._version += 1
            return self._version

    @property
    def graph_version(self) -> int:
        """The adjacency version tag the window was last ingested under."""
        with self._lock:
            return self._graph_version

    def warm_from(self, values: np.ndarray, tod: np.ndarray, dow: np.ndarray) -> int:
        """Bulk-ingest ``(T, num_nodes)`` rows (e.g. the tail of a recording)."""
        values = np.asarray(values)
        for step in range(values.shape[0]):
            signature = self.append(values[step], int(tod[step]), int(dow[step]))
        return signature

    def __len__(self) -> int:
        with self._lock:
            return self._count

    @property
    def ready(self) -> bool:
        """True once a full ``history`` of observations has been ingested."""
        with self._lock:
            return self._count >= self.history

    def signature(self) -> int:
        """Monotone counter identifying the current window contents."""
        with self._lock:
            return self._version

    def _ordered_indices(self) -> np.ndarray:
        # Oldest-to-newest ring order; caller holds the lock.
        return (self._head + np.arange(self.history)) % self.history

    def window(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The model input: ``(x, tod, dow)`` for one request.

        ``x`` is ``(1, history, num_nodes, 1)`` in scaled units (copies, so
        later appends cannot mutate an in-flight request); ``tod``/``dow``
        are ``(1, history)`` int arrays.  Raises ``RuntimeError`` until
        :attr:`ready`.
        """
        with self._lock:
            if self._count < self.history:
                raise RuntimeError(
                    f"window not ready: {self._count}/{self.history} observations"
                )
            order = self._ordered_indices()
            x = self._scaled[order][None, :, :, None].copy()
            tod = self._tod[order][None, :].copy()
            dow = self._dow[order][None, :].copy()
        return x, tod, dow

    def outage_fraction(self) -> float:
        """Fraction of null-coded entries among the rows ingested so far."""
        # Counted per row at ingest: every forecast asks, once per request.
        with self._lock:
            if self._count == 0:
                return 0.0
            # The ring fills slots 0..count-1 before it wraps.
            return float(self._nulls[: self._count].sum() / (self._count * self.num_nodes))

    def last_time(self) -> tuple[int, int]:
        """``(tod, dow)`` of the most recent observation."""
        with self._lock:
            if self._count == 0:
                raise RuntimeError("no observations ingested yet")
            slot = (self._head - 1) % self.history
            return int(self._tod[slot]), int(self._dow[slot])
