"""Observability: op-level profiling and structured training telemetry.

The measurement layer every performance claim in this repository is judged
against (see ``docs/observability.md``):

* :class:`Profiler` — a context manager that instruments the tensor engine
  while active, recording per-op count / inclusive wall time / bytes for
  forward and backward passes plus a named-scope module breakdown.  Zero
  overhead when not active.
* :class:`MemoryWatermark` — a context manager that measures allocated /
  live / peak bytes of op and gradient buffers via weak references, with
  accounting that matches the static tape-IR model in
  :mod:`repro.check.tape` (its T001 consistency baseline).
* :class:`MetricsSink` and friends — pluggable JSON-lines destinations for
  the trainer's per-epoch telemetry (throughput, gradient norms, memory
  high-water mark, scheduled-sampling state).
* :mod:`repro.obs.telemetry` — the telemetry record schema, in one place.

Entry points: ``with Profiler() as prof: ...`` in code, ``repro profile``
on the command line (``make profile`` refreshes the tracked
``benchmarks/results/profile.json``), ``benchmarks/bench_profile_ops.py``
for the top-k summary in ``benchmarks/results/profile_ops.json``.
"""

from .memory import MemoryWatermark
from .profiler import OpStat, Profiler, ScopeStat, annotate_model_scopes
from .sinks import FileSink, MemorySink, MetricsSink, StdoutSink, read_jsonl
from .stepbench import (
    FAST_CONFIG,
    REFERENCE_CONFIG,
    compare_fast_reference,
    time_train_steps,
    train_step,
)
from .telemetry import (
    TELEMETRY_SCHEMA,
    epoch_record,
    latency_summary_ms,
    memory_high_water_mark_bytes,
    recovery_record,
    resume_record,
    sanitizer_record,
    serving_record,
    train_end_record,
)

__all__ = [
    "FAST_CONFIG",
    "FileSink",
    "MemorySink",
    "MemoryWatermark",
    "MetricsSink",
    "OpStat",
    "Profiler",
    "REFERENCE_CONFIG",
    "ScopeStat",
    "StdoutSink",
    "TELEMETRY_SCHEMA",
    "annotate_model_scopes",
    "compare_fast_reference",
    "epoch_record",
    "latency_summary_ms",
    "recovery_record",
    "resume_record",
    "memory_high_water_mark_bytes",
    "read_jsonl",
    "sanitizer_record",
    "serving_record",
    "time_train_steps",
    "train_end_record",
    "train_step",
]
