"""Training-telemetry record construction (the trainer's JSON-lines schema).

The :class:`~repro.training.Trainer` emits one record per epoch plus one
end-of-run summary through a :class:`~repro.obs.sinks.MetricsSink`.  This
module owns the record layout so the schema lives in exactly one place; it
is documented for consumers in ``docs/observability.md``.

Every record carries ``schema`` (:data:`TELEMETRY_SCHEMA`) and ``event``
(``"epoch"``, ``"train_end"``, ``"sanitizer"``, ``"recovery"``,
``"resume"`` or ``"serving"``) keys.  :class:`ServingTally` is the one
counter of served answers (by source and fallback reason) and their
latencies that every serving report is built from, and
:func:`latency_summary_ms` the one latency summary.
"""

from __future__ import annotations

import resource
import sys
import threading

import numpy as np

__all__ = [
    "TELEMETRY_SCHEMA",
    "ServingTally",
    "epoch_record",
    "latency_summary_ms",
    "recovery_record",
    "resume_record",
    "sanitizer_record",
    "serving_record",
    "train_end_record",
    "memory_high_water_mark_bytes",
]

TELEMETRY_SCHEMA = "repro.obs.telemetry/v1"


def memory_high_water_mark_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    Reads ``ru_maxrss`` (kilobytes on Linux, bytes on macOS) — a cheap
    syscall, safe to call once per epoch.  This is a *process-wide* high
    water mark: it never decreases, so per-epoch deltas show only growth.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def epoch_record(
    *,
    epoch: int,
    train_loss: float,
    val_mae: float,
    epoch_seconds: float,
    windows: int,
    grad_norm_mean: float,
    grad_norm_max: float,
    learning_rate: float,
    active_horizon: int,
    teacher_forcing_ratio: float | None,
) -> dict:
    """Build the per-epoch telemetry record.

    ``windows`` is the number of training windows processed this epoch;
    throughput is derived as ``windows / epoch_seconds``.
    ``teacher_forcing_ratio`` is ``None`` when scheduled sampling is off.
    """
    return {
        "schema": TELEMETRY_SCHEMA,
        "event": "epoch",
        "epoch": epoch,
        "train_loss": train_loss,
        "val_mae": val_mae,
        "epoch_seconds": epoch_seconds,
        "windows": windows,
        "windows_per_second": windows / epoch_seconds if epoch_seconds > 0 else 0.0,
        "grad_norm_mean": grad_norm_mean,
        "grad_norm_max": grad_norm_max,
        "learning_rate": learning_rate,
        "active_horizon": active_horizon,
        "teacher_forcing_ratio": teacher_forcing_ratio,
        "memory_peak_bytes": memory_high_water_mark_bytes(),
    }


def sanitizer_record(*, kind: str, op: str, phase: str, message: str) -> dict:
    """Build the record a runtime sanitizer emits when it trips.

    ``kind`` is ``"anomaly"`` (NaN/Inf detected) or ``"inplace_mutation"``
    (version-counter trip); ``op`` names the originating forward op and
    ``phase`` is ``"forward"`` or ``"backward"``.  Emitted by
    :mod:`repro.check.sanitizers` immediately before the matching exception
    is raised, so a training run's JSON-lines stream records *why* it died.
    """
    return {
        "schema": TELEMETRY_SCHEMA,
        "event": "sanitizer",
        "kind": kind,
        "op": op,
        "phase": phase,
        "message": message,
    }


def recovery_record(
    *,
    epoch: int,
    step: int,
    reason: str,
    lr_before: float,
    lr_after: float,
    consecutive_failures: int,
    total_recoveries: int,
) -> dict:
    """Build the record emitted when the trainer rolls back a bad batch.

    Emitted by the NaN-rollback recovery path
    (``TrainerConfig(recovery=...)``): the offending batch was skipped, the
    last good model/optimizer snapshot restored, and the learning rate
    possibly backed off (``lr_before`` → ``lr_after``).  ``step`` is the
    global batch index (counted across epochs and resumes).
    """
    return {
        "schema": TELEMETRY_SCHEMA,
        "event": "recovery",
        "epoch": epoch,
        "step": step,
        "reason": reason,
        "lr_before": lr_before,
        "lr_after": lr_after,
        "consecutive_failures": consecutive_failures,
        "total_recoveries": total_recoveries,
    }


def resume_record(*, epoch: int, global_step: int, path: str) -> dict:
    """Build the record emitted when a run resumes from a training checkpoint.

    ``epoch`` is the (1-based) epoch the resumed run will execute next;
    ``path`` is the training-state file it was restored from.
    """
    return {
        "schema": TELEMETRY_SCHEMA,
        "event": "resume",
        "epoch": epoch,
        "global_step": global_step,
        "path": path,
    }


def serving_record(
    summary: dict,
    *,
    batches: int,
    mean_batch_size: float,
    queue_depth_max: int,
    cache_hits: int,
    cache_misses: int,
    cache_hit_rate: float,
    active_version: str | None,
) -> dict:
    """Build the serving-telemetry summary record.

    Emitted by :meth:`repro.serve.ServingEngine.emit_telemetry`: one record
    summarising everything since engine start.  ``summary`` is a
    :meth:`ServingTally.summary` and supplies the request count, end-to-end
    latency percentiles in milliseconds, and how often (and why) the engine
    fell back to the historical-average degradation path; the keywords add
    the micro-batcher's coalescing quality (``mean_batch_size``,
    ``queue_depth_max``) and prediction-cache effectiveness.
    """
    sources = summary["sources"]
    latency = summary["latency_ms"]
    return {
        "schema": TELEMETRY_SCHEMA,
        "event": "serving",
        "requests": summary["requests"],
        "batches": batches,
        "mean_batch_size": mean_batch_size,
        "latency_ms_p50": latency["p50"],
        "latency_ms_p95": latency["p95"],
        "latency_ms_p99": latency["p99"],
        "queue_depth_max": queue_depth_max,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "cache_hit_rate": cache_hit_rate,
        "fallbacks": sources["fallback"],
        "fallback_reasons": dict(summary["fallback_reasons"]),
        "served_by_model": sources["model"],
        "served_by_cache": sources["cache"],
        "active_version": active_version,
        "memory_peak_bytes": memory_high_water_mark_bytes(),
    }


class ServingTally:
    """Served answers counted by source and fallback reason, with their latencies.

    :meth:`add` takes one answer's ``source`` (``"model"``, ``"cache"`` or
    ``"fallback"``), its fallback ``reason`` (``None`` unless it degraded)
    and its latency in seconds.  Safe to share between threads: the tally
    owns the lock that guards it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources = {"model": 0, "cache": 0, "fallback": 0}
        self._reasons: dict[str, int] = {}
        self._latencies: list[float] = []

    def add(self, source: str, reason: str | None, latency_s: float) -> None:
        """Count one answer."""
        with self._lock:
            self._sources[source] += 1
            if reason is not None:
                self._reasons[reason] = self._reasons.get(reason, 0) + 1
            self._latencies.append(latency_s)

    def summary(self) -> dict:
        """The counts so far, as a JSON-ready dict.

        Keys: ``requests``; ``sources`` (dense: all three always present);
        ``fallback_reasons``; ``fallback_rate`` (fallbacks per request, 0.0
        when empty); ``latency_ms`` (:func:`latency_summary_ms`).
        """
        with self._lock:
            sources = dict(self._sources)
            reasons = dict(self._reasons)
            latencies = list(self._latencies)
        requests = len(latencies)
        return {
            "requests": requests,
            "sources": sources,
            "fallback_reasons": reasons,
            "fallback_rate": sources["fallback"] / requests if requests else 0.0,
            "latency_ms": latency_summary_ms(latencies),
        }


def latency_summary_ms(latencies_s) -> dict:
    """p50 / p95 / p99 and mean of request latencies, seconds in, milliseconds out.

    Percentiles are ``np.percentile``'s default linear interpolation; an
    empty sample summarises to zeros.
    """
    latencies_ms = np.asarray(latencies_s, dtype=np.float64) * 1000.0
    if latencies_ms.size == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
    return {
        "p50": float(np.percentile(latencies_ms, 50)),
        "p95": float(np.percentile(latencies_ms, 95)),
        "p99": float(np.percentile(latencies_ms, 99)),
        "mean": float(latencies_ms.mean()),
    }


def train_end_record(
    *,
    epochs_run: int,
    best_val_mae: float,
    total_seconds: float,
    early_stopped: bool,
) -> dict:
    """Build the end-of-run summary record."""
    return {
        "schema": TELEMETRY_SCHEMA,
        "event": "train_end",
        "epochs_run": epochs_run,
        "best_val_mae": best_val_mae,
        "total_seconds": total_seconds,
        "early_stopped": early_stopped,
        "memory_peak_bytes": memory_high_water_mark_bytes(),
    }
