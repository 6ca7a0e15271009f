"""Shared pieces of the benchmark: statistics, memory, set-up probes, spans.

Everything here is measurement plumbing.  Workload modules
(``train.py``, ``serve_fresh.py``, ``serve_city.py``) build their inputs
from the seed, drive the program through its public API and hand their
samples to :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.utils.timer import now

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

# A set-up sample is one cold start in a freshly forked process; the
# reported set-up time is the median of this many samples.
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile_ms(samples_s, q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in milliseconds."""
    if len(samples_s) == 0:
        raise ValueError("no samples to summarise")
    return float(np.percentile(np.asarray(samples_s, dtype=np.float64), q) * 1e3)


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(count - np.ceil(count * q / 100.0))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def chunk_rates(stamps, chunk: int, end: float | None = None) -> list[float]:
    """Operations per second in each chunk of ``chunk`` consecutive operations.

    ``stamps`` are the operations' start times in order; a chunk lasts from
    its first start to the next chunk's first start (or ``end``, or its own
    last start for the final chunk).  The median of these rates is what a
    workload reports: a burst of interference from other work on the host
    slows a few chunks, not the median.
    """
    stamps = list(stamps) + ([end] if end is not None else [])
    bounds = list(range(0, len(stamps) - 1, chunk)) + [len(stamps) - 1]
    if bounds[-1] - bounds[-2] < chunk and len(bounds) > 2:
        del bounds[-2]  # fold a short last chunk into the one before
    return [(b - a) / (stamps[b] - stamps[a]) for a, b in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set (VmHWM) of every listed process."""
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def rss_mb(pids) -> float:
    """Sum of the current resident set (VmRSS) of every listed process."""
    return sum(_status_kb(pid, "VmRSS") for pid in pids) / 1024.0


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as handle:
        libs = sorted({
            line.split()[-1] for line in handle if "openblas" in line.split()[-1].lower()
        })
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _source_id() -> str:
    """The git commit when available, else a hash of the ``src`` tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def fingerprint() -> dict:
    """Where a result was measured: code, cores, BLAS and interpreter."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "source": _source_id(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def _probe_child(setup, conn) -> None:
    try:
        conn.send(("ok", float(setup())))
    except BaseException as error:  # reported to the parent, which fails the run
        conn.send(("error", repr(error)))
    finally:
        conn.close()


def _probe_server(setup, conn) -> None:
    """Fork one probe child per request until told to stop (``None``)."""
    ctx = multiprocessing.get_context("fork")
    while conn.recv() is not None:
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_probe_child, args=(setup, sender), name="perfbench-setup")
        child.start()
        sender.close()
        if receiver.poll(SETUP_TIMEOUT_S):
            conn.send(receiver.recv())
        else:
            conn.send(("error", f"no answer in {SETUP_TIMEOUT_S}s"))
        receiver.close()
        child.join(SETUP_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()
    conn.close()


class SetupProbes:
    """Cold set-ups, each timed in a fresh process, spread over a run.

    A server process is forked when this object is made, which must be
    before the workload builds anything or starts a thread; each probe is
    forked from that server, so it has never built a dataset, a model or
    an engine and pays the cold start a deployment pays once.  ``setup``
    returns its own elapsed seconds and must release whatever it started
    (worker processes included).  The workload calls :meth:`catch_up` as
    its timed work progresses, so the probes sample the whole run rather
    than the few seconds before it: set-up time then moves with the host
    as little as the other metrics do.  :meth:`close` runs any probes
    still owed, stops the server and returns the samples.
    """

    def __init__(self, setup, repeats: int = SETUP_REPEATS) -> None:
        self.repeats = repeats
        self.times: list[float] = []
        ctx = multiprocessing.get_context("fork")
        sys.stdout.flush()  # nothing buffered may be written twice
        sys.stderr.flush()
        self._conn, theirs = ctx.Pipe()
        self._server = ctx.Process(target=_probe_server, args=(setup, theirs),
                                   name="perfbench-setup-server")
        self._server.start()
        theirs.close()

    def catch_up(self, progress: float) -> None:
        """Run probes until ``progress`` (0 to 1) of them are done."""
        while len(self.times) < min(self.repeats, int(np.ceil(progress * self.repeats))):
            self._conn.send(True)
            if not self._conn.poll(2 * SETUP_TIMEOUT_S):
                raise RuntimeError("set-up probe server gave no answer")
            status, value = self._conn.recv()
            if status != "ok":
                raise RuntimeError(f"set-up probe failed: {value}")
            self.times.append(value)

    def close(self) -> list[float]:
        try:
            self.catch_up(1.0)
        finally:
            self.stop()
        return self.times

    def stop(self) -> None:
        if self._server.is_alive():
            self._conn.send(None)
            self._server.join(SETUP_TIMEOUT_S)
            if self._server.is_alive():
                self._server.kill()
                self._server.join()
        self._conn.close()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory: name, start, end, parent and request id.

    A span opened inside another on the same thread becomes its child.
    Work handed to another thread names its parent explicitly.  Disabled
    tracers record nothing and cost one branch per span.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, rid: int | None = None, parent: int | None = None,
             start: float | None = None):
        """Record the enclosed block; ``start`` backdates it (e.g. to a due time)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        start = now() if start is None else start
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans.append(Span(span_id, name, start, now(), parent, rid))

    def record(self, name: str, start: float, end: float, *, parent: int | None = None,
               rid: int | None = None) -> None:
        """Add a span whose interval was measured elsewhere."""
        if self.enabled:
            self.spans.append(Span(next(self._ids), name, start, end, parent, rid))

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span named ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines, one record each."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.__dict__) + "\n")


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_report(spans: list[Span], root: str) -> dict:
    """Per-name call counts, inclusive and self time, and root coverage.

    A span's self time is its duration minus the part of its interval its
    children cover.  Coverage is the share of the ``root`` spans' (the
    workload's operations) total time that child spans account for; the
    rest is reported as unexplained.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    by_name: dict[str, dict] = {}
    for span in spans:
        covered = _union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        )
        entry = by_name.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - covered
    roots = by_name.get(root, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    total = roots["total_s"]
    return {
        "layers": {
            name: {
                "calls": entry["calls"],
                "mean_ms": entry["total_s"] / entry["calls"] * 1e3,
                "self_ms_per_op": entry["self_s"] / max(roots["calls"], 1) * 1e3,
            }
            for name, entry in sorted(by_name.items())
        },
        "operations": roots["calls"],
        "coverage": (total - roots["self_s"]) / total if total > 0 else 0.0,
        "unexplained_ms_per_op": roots["self_s"] / max(roots["calls"], 1) * 1e3,
    }


def mean_ms(report: dict, name: str) -> float:
    """Mean inclusive milliseconds per call of one span name (0 if absent)."""
    layer = report["layers"].get(name)
    return layer["mean_ms"] if layer else 0.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class CheckFailed(AssertionError):
    """A correctness check of the program's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` and ``per_layer`` map metric names to ``(value, unit)``;
    ``detail`` is free-form context written beside the result.
    """

    attempted: int
    failed: int
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

