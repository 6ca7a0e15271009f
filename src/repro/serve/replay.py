"""Replay a recorded observation stream through a serving engine.

The serving analogue of an integration test drive: take the tail of a
dataset's series, warm the sliding window with the ``history`` steps before
it, then feed the remaining steps one observation at a time, issuing a
burst of concurrent forecast requests after each tick.  Repeated requests
within a tick exercise the prediction cache; concurrent requests exercise
the micro-batcher's coalescing; the stream's zero-coded outages exercise
ingest-time neutralisation.  ``make serve-smoke`` and the serving CLI both
run through here.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..obs.telemetry import ServingTally

__all__ = ["replay_split"]


def warm_tail(engine, values, tod, dow, steps: int):
    """Warm ``engine``'s window for a drive over the last ``steps`` rows.

    The ``history`` rows before the tail go through
    ``engine.store.warm_from``; returns the live tail ``(values, tod,
    dow)``.  Every replay-shaped drive (:func:`replay_split`, the load
    generator, the scenario harness) starts here.
    """
    history = engine.store.history
    total = values.shape[0]
    if total < history + steps:
        raise ValueError(
            f"series has {total} steps; need at least history+steps = {history + steps}"
        )
    start = total - steps
    engine.store.warm_from(
        values[start - history : start], tod[start - history : start], dow[start - history : start]
    )
    return values[start:], tod[start:], dow[start:]


def replay_split(
    engine,
    data,
    *,
    steps: int = 32,
    requests_per_step: int = 4,
    concurrency: int = 4,
    horizon: int | None = None,
) -> dict:
    """Drive ``engine`` over the tail of ``data``'s recorded series.

    The last ``steps`` rows of the series are the live stream; the
    ``history`` rows before them warm the window so serving starts hot.
    After every observation, ``requests_per_step`` forecasts are issued:
    the first synchronously (a guaranteed cache miss that populates the
    entry), the rest concurrently across ``concurrency`` threads
    (guaranteed cache hits — nothing changed the window in between).

    Returns a summary dict: request counts by source, fallback reasons,
    and the engine's full telemetry report.
    """
    if steps <= 0 or requests_per_step <= 0:
        raise ValueError("steps and requests_per_step must be positive")
    series = data.dataset.series
    values, tod, dow = warm_tail(
        engine, series.values, series.time_of_day, series.day_of_week, steps
    )
    tally = ServingTally()

    def record(result) -> None:
        tally.add(result.source, result.reason, result.latency_s)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for step in range(steps):
            engine.observe(values[step], int(tod[step]), int(dow[step]))
            record(engine.forecast(horizon))
            burst = [
                pool.submit(engine.forecast, horizon)
                for _ in range(requests_per_step - 1)
            ]
            for future in burst:
                record(future.result())

    summary = tally.summary()
    return {
        "steps": steps,
        "requests": steps * requests_per_step,
        "sources": summary["sources"],
        "fallback_reasons": summary["fallback_reasons"],
        "mean_latency_ms": summary["latency_ms"]["mean"],
        "telemetry": engine.telemetry_report(),
    }
