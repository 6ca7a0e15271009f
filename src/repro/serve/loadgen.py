"""Load generation: drive a serving engine the way traffic actually arrives.

:func:`repro.serve.replay_split` issues a fixed burst after every
observation — a *closed loop*, where the next request waits for the last
answer.  Closed loops measure capacity but hide overload: the generator
slows down with the system, so queues never grow.  The scaling benchmark
needs the opposite — an **open loop**, where requests arrive on a Poisson
schedule at a configured rate whether or not the engine keeps up, exactly
like independent clients.  Under 2x-capacity offered load the open loop is
what makes admission control visible: without shedding, queueing inflates
the tail; with ``DegradationPolicy.max_inflight`` set, overload arrivals
are answered from the fallback profile instead
(``benchmarks/bench_serve_scale.py`` gates the p99 difference).

:func:`run_load` does both: pass ``rps`` for an open-loop Poisson drive,
leave it ``None`` for the closed-loop fallback.  Arrival schedules come
from :func:`poisson_arrivals`, a seeded generator, so the offered load of
a run is reproducible even though wall-clock service times are not.

``faults`` accepts a :class:`repro.faults.ServeFaultSchedule`: before each
request is dispatched the schedule gets a chance to kill, hang, slow or
mute a shard worker (request indices are deterministic, so the same
schedule reproduces the same chaos).  The per-request ``timeline`` in
:class:`LoadResult` records when each answer landed and from which tier,
which is how the chaos benchmark measures recovery time after a kill.

No model is invoked here (lint rule R009) — the generator only speaks the
engine's public ``observe``/``forecast`` surface.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..obs.telemetry import latency_summary_ms
from ..utils.timer import now

__all__ = ["LoadResult", "poisson_arrivals", "run_load"]


def poisson_arrivals(rps: float, duration_s: float, seed: int = 0) -> np.ndarray:
    """Arrival offsets (seconds) of a seeded Poisson process.

    Inter-arrival gaps are exponential with mean ``1/rps``; the returned
    offsets are strictly increasing and all below ``duration_s``.  The same
    ``(rps, duration_s, seed)`` always yields the same schedule, which is
    what makes open-loop runs comparable across configurations.
    """
    if rps <= 0:
        raise ValueError("rps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng(seed)
    block = max(16, int(rps * duration_s * 2))
    times = np.cumsum(rng.exponential(1.0 / rps, size=block))
    while times[-1] < duration_s:
        more = np.cumsum(rng.exponential(1.0 / rps, size=block))
        times = np.concatenate([times, times[-1] + more])
    return times[times < duration_s]


@dataclass(frozen=True)
class LoadResult:
    """One load run's summary, in the units the scaling benchmark gates on.

    ``offered_rps`` is the configured arrival rate (open loop) or the
    achieved rate (closed loop, where offered and achieved coincide by
    construction); ``shed`` counts requests answered with reason
    ``"shed"`` by the router's admission control.  ``timeline`` is one
    ``(completed_at_s, source, reason)`` triple per answered request in
    completion order — the chaos benchmark reads recovery time (first
    model-tier answer after a kill) straight off it.
    """

    mode: str  # "open" or "closed"
    requests: int
    duration_s: float
    offered_rps: float
    achieved_rps: float
    shed: int
    sources: dict[str, int]
    fallback_reasons: dict[str, int]
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    timeline: tuple = ()


def _warm(engine, data, steps: int):
    """Warm the engine's window; return the live tail (values, tod, dow)."""
    series = data.dataset.series
    values, tod, dow = series.values, series.time_of_day, series.day_of_week
    history = engine.store.history
    total = values.shape[0]
    if total < history + steps:
        raise ValueError(
            f"series has {total} steps; need at least history+steps = {history + steps}"
        )
    start = total - steps
    engine.store.warm_from(
        values[start - history : start],
        tod[start - history : start],
        dow[start - history : start],
    )
    return values[start:], tod[start:], dow[start:]


def _summarise(
    mode: str,
    events: list,
    duration_s: float,
    offered_rps: float,
) -> LoadResult:
    """Collapse ``(completed_at_s, ForecastResult)`` events into a summary."""
    events = sorted(events, key=lambda event: event[0])
    sources: dict[str, int] = {}
    fallback_reasons: dict[str, int] = {}
    latencies = []
    shed = 0
    timeline = []
    for completed_at, result in events:
        sources[result.source] = sources.get(result.source, 0) + 1
        if result.reason is not None:
            fallback_reasons[result.reason] = fallback_reasons.get(result.reason, 0) + 1
            if result.reason == "shed":
                shed += 1
        latencies.append(result.latency_s)
        timeline.append((float(completed_at), result.source, result.reason))
    latency = latency_summary_ms(latencies)
    return LoadResult(
        mode=mode,
        requests=len(events),
        duration_s=duration_s,
        offered_rps=offered_rps,
        achieved_rps=len(events) / duration_s if duration_s > 0 else 0.0,
        shed=shed,
        sources=sources,
        fallback_reasons=fallback_reasons,
        latency_ms_p50=latency["p50"],
        latency_ms_p95=latency["p95"],
        latency_ms_p99=latency["p99"],
        timeline=tuple(timeline),
    )


def _fire(faults, index: int, engine) -> None:
    """Give the fault schedule its shot before request ``index`` dispatches."""
    if faults is not None:
        faults.before_request(index, engine)


def _timed(call, argument, start: float):
    result = call(argument)
    return (now() - start, result)


def run_load(
    engine,
    data,
    *,
    rps: float | None = None,
    duration_s: float = 2.0,
    steps: int = 32,
    requests_per_step: int = 4,
    concurrency: int = 8,
    horizon: int | None = None,
    horizons=None,
    seed: int = 0,
    observe_interval_s: float | None = None,
    faults=None,
) -> LoadResult:
    """Drive ``engine`` over ``data``'s recorded tail and summarise.

    ``horizons`` (a sequence) makes consecutive requests cycle through the
    given forecast horizons instead of all asking for ``horizon`` — distinct
    horizons are distinct cache keys, so this keeps an arrival stream on the
    model path when the benchmark needs overload to reach it (the forward
    cost itself does not depend on the requested horizon).

    ``faults`` (a :class:`repro.faults.ServeFaultSchedule`) injects serving
    chaos keyed on the global request index: each fault fires once, right
    before its request dispatches, in both loop modes.

    **Open loop** (``rps`` set): forecast requests arrive on the Poisson
    schedule of :func:`poisson_arrivals` for ``duration_s`` seconds,
    dispatched from a pool of ``concurrency`` client threads that never
    waits for the engine — offered load is independent of service rate.  A
    background ticker feeds one fresh observation every
    ``observe_interval_s`` seconds (default: the ``steps`` tail rows spread
    evenly over the run, wrapping if the run outlasts them), so windows
    keep moving and requests exercise the model path, not just the cache.

    **Closed loop** (``rps`` ``None``): the :func:`replay_split` shape —
    ``steps`` ticks, each observing one row then issuing
    ``requests_per_step`` forecasts and waiting for all of them.  Offered
    and achieved rates coincide by construction; this is the calibration
    arm the benchmark uses to measure capacity before choosing an overload
    rate.
    """
    pick = _horizon_picker(horizon, horizons)
    if rps is None:
        return _run_closed(
            engine, data, steps=steps, requests_per_step=requests_per_step,
            concurrency=concurrency, pick=pick, faults=faults,
        )
    return _run_open(
        engine, data, rps=rps, duration_s=duration_s, steps=steps,
        concurrency=concurrency, pick=pick, seed=seed,
        observe_interval_s=observe_interval_s, faults=faults,
    )


def _horizon_picker(horizon, horizons):
    """Map request index -> requested horizon (cycling when given a list)."""
    if horizons is None:
        return lambda index: horizon
    cycle = [int(h) for h in horizons]
    if not cycle:
        raise ValueError("horizons must be non-empty when given")
    return lambda index: cycle[index % len(cycle)]


def _run_closed(
    engine, data, *, steps: int, requests_per_step: int, concurrency: int,
    pick, faults=None,
) -> LoadResult:
    if steps <= 0 or requests_per_step <= 0:
        raise ValueError("steps and requests_per_step must be positive")
    values, tod, dow = _warm(engine, data, steps)
    events = []
    start = now()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for step in range(steps):
            engine.observe(values[step], int(tod[step]), int(dow[step]))
            base = step * requests_per_step
            _fire(faults, base, engine)
            events.append(_timed(engine.forecast, pick(base), start))
            burst = []
            for extra in range(requests_per_step - 1):
                _fire(faults, base + 1 + extra, engine)
                burst.append(
                    pool.submit(_timed, engine.forecast, pick(base + 1 + extra), start)
                )
            events.extend(future.result() for future in burst)
    elapsed = now() - start
    return _summarise("closed", events, elapsed, len(events) / elapsed)


def _run_open(
    engine, data, *, rps: float, duration_s: float, steps: int,
    concurrency: int, pick, seed: int,
    observe_interval_s: float | None, faults=None,
) -> LoadResult:
    values, tod, dow = _warm(engine, data, steps)
    arrivals = poisson_arrivals(rps, duration_s, seed)
    if observe_interval_s is None:
        observe_interval_s = duration_s / steps
    stop = threading.Event()

    def tick() -> None:
        # Feed the tail rows at a steady cadence, wrapping if the run
        # outlasts them — signatures keep advancing either way.
        row = 0
        while not stop.wait(observe_interval_s):
            index = row % values.shape[0]
            engine.observe(values[index], int(tod[index]), int(dow[index]))
            row += 1

    ticker = threading.Thread(target=tick, name="loadgen-ticker", daemon=True)
    ticker.start()
    futures = []
    start = now()
    try:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            for index, offset in enumerate(arrivals):
                delay = start + float(offset) - now()
                if delay > 0:
                    time.sleep(delay)
                _fire(faults, index, engine)
                futures.append(pool.submit(_timed, engine.forecast, pick(index), start))
            events = [future.result() for future in futures]
    finally:
        stop.set()
        ticker.join()
    elapsed = now() - start
    return _summarise("open", events, elapsed, rps)
