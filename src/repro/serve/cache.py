"""LRU prediction cache keyed on (servable version, window signature).

Traffic forecasts are a natural cache target: many consumers ask for the
same node-set's forecast between two observation ticks, and the model input
only changes when a new observation arrives.  The key therefore pins the
two things a prediction depends on — which model served it and which
window contents it saw (the front door's monotone signature) — so a stale
entry can never be returned as fresh: a hot-swap changes the version
component, a new observation changes the signature component.

The requested horizon is not part of the key.  One forward emits the whole
horizon (Eq. 15), so an entry holds the full-horizon forecast, already in
raw units, and every read — the miss that computed it included — is
answered with ``entry[:horizon]``.  Entries are frozen (``writeable =
False``) rather than copied, so a hit costs no allocation and an answer
cannot be used to change what later readers get.

A deployment holds one cache, at its front door: the plain
:class:`~repro.serve.ServingEngine`, or the sharded router
(:class:`~repro.serve.ShardedServingEngine`), which answers a repeat read
without a round trip to any shard worker.  Worker cores hold none.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["PredictionCache"]


class PredictionCache:
    """Thread-safe LRU cache of frozen forecast arrays.

    ``put`` takes ownership of the array and marks it read-only; ``get``
    returns that same array, so callers share one entry and can never
    mutate it in place.  ``invalidate`` drops entries by servable
    version (or everything); ``invalidate_stale`` drops entries for window
    signatures older than the current one — the serving engine calls it on
    every new observation.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, *, recheck: bool = False) -> np.ndarray | None:
        """The frozen entry for ``key``, or ``None``; counts one lookup.

        ``recheck=True`` asks again for a key this caller has just missed
        (the router, once it holds its RPC lock): a hit then turns that
        miss into a hit and a miss counts nothing, so a read counts once.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                if not recheck:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if recheck:
                self.misses -= 1
            return value

    def put(self, key: tuple, value: np.ndarray) -> None:
        """Store ``value`` under ``key``, taking ownership and freezing it."""
        value = np.asarray(value)
        value.flags.writeable = False
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, version: str | None = None) -> int:
        """Drop entries for one servable version (or all); returns the count."""
        with self._lock:
            if version is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            stale = [key for key in self._entries if key[0] == version]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def invalidate_stale(self, current_signature: int) -> int:
        """Drop entries computed against an older window signature."""
        with self._lock:
            stale = [key for key in self._entries if key[1] != current_signature]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def record_fields(self) -> dict:
        """The ``cache_*`` fields of a :func:`repro.obs.serving_record`."""
        stats = self.stats()
        return {
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
            "cache_hit_rate": stats["hit_rate"],
        }

    def stats(self) -> dict:
        """``{"hits", "misses", "hit_rate", "size", "capacity"}``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
