"""Graceful degradation: the serving engine's historical-average fallback.

A serving process must answer even when the model cannot: before the window
has filled (cold start), when too many sensors are dark (outage), or when
the forward errors or produces NaNs (a corrupted hot-swap, a poisoned
checkpoint).  The fallback is the paper's Historical Average baseline read
off the profile stored in every servable bundle — a pure array lookup, no
model forward (lint rule R008 holds even here), always finite, always fast.

:func:`fallback_forecast` replicates
:meth:`repro.baselines.HistoricalAverage.forward`'s time arithmetic —
time-of-day rollover into the next day, weekday/weekend profile selection —
but stays in raw units end to end, since the degradation path bypasses the
scaler entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DegradationPolicy", "SupervisionPolicy", "fallback_forecast"]


@dataclass(frozen=True)
class DegradationPolicy:
    """When the serving engine falls back instead of raising.

    ``outage_threshold`` is the window's maximum tolerable fraction of
    null-coded entries before the model's input is considered too corrupted
    to trust.  ``fallback_on_error`` / ``fallback_on_nan`` control whether
    forward exceptions and non-finite outputs degrade (the default) or
    propagate to the caller (strict mode, for debugging).

    ``max_inflight`` / ``shed_on_overload`` are the sharded router's
    admission control (:class:`~repro.serve.ShardedServingEngine`): once
    ``max_inflight`` cache misses are inside the router, new misses are
    *shed* — answered immediately from the historical-average profile
    with reason ``"shed"`` — instead of queueing into a latency collapse.
    A miss of the window whose forward is already scattering is neither
    counted nor shed: that forward's cached answer serves it.
    ``max_inflight=None`` disables admission control;
    ``shed_on_overload=False`` keeps the limit visible in telemetry but
    lets requests queue (the control arm of the overload benchmark).
    The single-process engine ignores both fields.
    """

    outage_threshold: float = 0.5
    fallback_on_error: bool = True
    fallback_on_nan: bool = True
    max_inflight: int | None = None
    shed_on_overload: bool = True


@dataclass(frozen=True)
class SupervisionPolicy:
    """When and how the sharded router restarts a failed worker.

    Passed as ``ServeConfig(supervision=...)``; consumed by
    :class:`~repro.serve.ShardSupervisor`.  A shard becomes restart-due
    when its process is dead (liveness probe, if ``probe_liveness``) or
    after ``failure_threshold`` *consecutive* transport failures (a hung
    worker is alive but unresponsive).  Restart attempts back off
    exponentially from ``backoff_base_s`` doubling up to ``backoff_max_s``;
    after ``max_restarts`` attempts without an intervening healthy request
    the shard is abandoned to its fallback tier (``gave_up`` in the health
    report) rather than crash-looping forever.  ``check_interval_s`` paces
    the supervisor thread; tests drive ``poll_now()`` directly instead.
    """

    check_interval_s: float = 0.25
    failure_threshold: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    max_restarts: int = 8
    probe_liveness: bool = True


def fallback_forecast(
    profile: np.ndarray,
    last_tod: int,
    last_dow: int,
    horizon: int,
    steps_per_day: int,
) -> np.ndarray:
    """Historical-average forecast in raw units: ``(horizon, num_nodes)``.

    ``profile`` is the bundle's ``(2, steps_per_day, num_nodes)`` seasonal
    profile (weekday row 0, weekend row 1); ``last_tod``/``last_dow`` stamp
    the most recent observation, and the forecast covers the ``horizon``
    steps after it, rolling time-of-day over into the next day exactly as
    the Historical Average baseline does.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    steps = np.arange(1, horizon + 1)
    future_tod = (int(last_tod) + steps) % steps_per_day
    rollover = (int(last_tod) + steps) // steps_per_day
    future_dow = (int(last_dow) + rollover) % 7
    weekend = (future_dow >= 5).astype(int)
    return np.asarray(profile, dtype=np.float32)[weekend, future_tod]
