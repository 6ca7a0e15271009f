"""Runtime autodiff sanitizers: in-place-mutation guard and anomaly detection.

Two opt-in context managers that certify a forward/backward pass instead of
merely observing it:

* :func:`guard_mutations` — catches the silent-gradient-corruption bug
  class: a tensor saved for backward is mutated in place (``t.data = ...``
  or ``t.data += ...``) between forward and backward.  While active, every
  ``.data`` rebinding bumps the tensor's version counter
  (:attr:`repro.tensor.Tensor.version`), every recorded op snapshots its
  parents' versions, and backward raises :class:`InplaceMutationError`
  naming the op whose saved input changed.  Raw element writes that bypass
  attribute assignment (``t.data[...] = x``) are not observable at this
  layer — the repo linter (rule R004) forbids them outside ``optim/``.
* :func:`detect_anomaly` — torch-style ``detect_anomaly``: wraps every
  primitive op (from :mod:`repro.tensor.ops_registry`) in a finiteness
  check, so the *first* NaN/Inf raises :class:`AnomalyError` naming the
  originating forward op, in forward or backward, instead of surfacing as a
  NaN loss many ops later.

Both attach through :mod:`repro.tensor.instrument` on ``__enter__`` and
detach on ``__exit__``, so the disabled path runs the original, unmodified
engine — zero overhead when off.  They compose with each other and with
every other instrument, and may exit in any order.

Sanitizer trips are also emitted as telemetry records (``event:
"sanitizer"``) through a :class:`~repro.obs.sinks.MetricsSink` — either the
one passed to the context manager or the process-wide one installed with
:func:`set_event_sink` — so they land in the same JSON-lines stream as the
trainer's epoch records.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from ..obs.sinks import MetricsSink
from ..obs.telemetry import sanitizer_record
from ..tensor.instrument import Instrument, attach, detach
from ..tensor.tensor import Tensor

__all__ = [
    "SanitizerError",
    "InplaceMutationError",
    "AnomalyError",
    "guard_mutations",
    "detect_anomaly",
    "set_event_sink",
]


class SanitizerError(RuntimeError):
    """Base class for errors raised by the runtime sanitizers."""


class InplaceMutationError(SanitizerError):
    """A tensor saved for backward was mutated in place before backward ran."""


class AnomalyError(SanitizerError):
    """An op produced a NaN or Inf while anomaly detection was active."""


_EVENT_SINK: MetricsSink | None = None


def set_event_sink(sink: MetricsSink | None) -> None:
    """Install (or clear, with ``None``) the process-wide sanitizer event sink.

    Events from sanitizer trips are emitted here unless the triggering
    context manager was given its own ``sink``.
    """
    global _EVENT_SINK
    _EVENT_SINK = sink


def _emit(sink: MetricsSink | None, *, kind: str, op: str, phase: str, message: str) -> None:
    target = sink if sink is not None else _EVENT_SINK
    if target is not None:
        target.emit(sanitizer_record(kind=kind, op=op, phase=phase, message=message))


def _walk_tensors(value):
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk_tensors(item)


class guard_mutations(Instrument):
    """Context manager: raise if a tensor saved for backward is mutated in place.

    While active:

    * assignments to ``.data`` (including augmented ones like
      ``t.data += x``) bump the tensor's version counter;
    * every recorded op snapshots the versions of the parents whose data its
      backward closure will read;
    * ``backward()`` verifies each snapshot before running the closure and
      raises :class:`InplaceMutationError` naming the op and the stale
      parent.

    Only tensors that require grad are tracked (they are the ones whose
    closures re-read saved data).  Composes with ``Profiler`` and
    :func:`detect_anomaly`; does not nest with itself.
    """

    def __init__(self, sink: MetricsSink | None = None) -> None:
        self._sink = sink

    def on_data_set(self, tensor: Tensor, previous: Any, value: Any) -> None:
        tensor._version = getattr(tensor, "_version", 0) + 1

    def wrap_make(self, make: Callable[..., Tensor]) -> Callable[..., Tensor]:
        def guarded_make(data: Any, parents: Any, backward: Any, op: str) -> Tensor:
            out = make(data, parents, backward, op)
            if out._backward is not None:
                out._saved_versions = tuple(getattr(p, "_version", 0) for p in out._parents)
            return out

        return guarded_make

    def wrap_backward(self, node: Tensor, inner: Callable[[Tensor], None]) -> None:
        saved = getattr(node, "_saved_versions", None)
        if saved is not None:
            for parent, recorded in zip(node._parents, saved):
                current = getattr(parent, "_version", 0)
                if current != recorded:
                    message = (
                        f"tensor saved for the backward of op '{node._op}' was "
                        f"mutated in place after the forward pass (version "
                        f"{recorded} -> {current}); its gradient would be computed "
                        f"from corrupted data"
                    )
                    _emit(self._sink, kind="inplace_mutation", op=node._op,
                          phase="backward", message=message)
                    raise InplaceMutationError(message)
        inner(node)


def _check_array(
    guard: "detect_anomaly", data: np.ndarray, op_name: str,
    where: str = "its forward output",
) -> None:
    # The element-wise scan is exact and, on numpy 2.x, cheaper than a
    # finite-sum pre-test: the SIMD isfinite beats the pairwise float32
    # sum at every array size of a D2STGNN forward
    # (docs/performance.md, "Fused GRU step").
    if data.dtype.kind != "f" or np.isfinite(data).all():
        return
    message = f"op '{op_name}' produced NaN/Inf in {where}"
    _emit(guard._sink, kind="anomaly", op=op_name, phase="forward", message=message)
    raise AnomalyError(message)


class _AnomalyCheck(Instrument, threading.local):
    """The instrument all :class:`detect_anomaly` guards share; ``active``
    is the current thread's guard, and checks run only where it is set."""

    active: "detect_anomaly | None" = None

    def wrap_op(self, fn: Callable[..., Any], op_name: str) -> Callable[..., Any]:
        def checked(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            guard = self.active
            if guard is not None:
                for tensor in (out,) if isinstance(out, Tensor) else _walk_tensors(out):
                    _check_array(guard, tensor.data, op_name)
            return out

        checked.__name__ = getattr(fn, "__name__", op_name)
        checked.__doc__ = fn.__doc__
        return checked

    def check_internal(self, data: np.ndarray, op_name: str) -> None:
        # Fused ops (gru_cell) report their internal products here, so an
        # overflow their output saturates away still trips the guard.
        guard = self.active
        if guard is not None:
            _check_array(guard, data, op_name, "an internal product")

    def wrap_backward(self, node: Tensor, inner: Callable[[Tensor], None]) -> None:
        inner(node)
        guard = self.active
        if guard is None:
            return
        for parent in node._parents:
            grad = parent.grad
            if grad is not None and grad.dtype.kind == "f" \
                    and not np.isfinite(grad).all():
                message = f"backward of op '{node._op}' produced a NaN/Inf gradient"
                _emit(guard._sink, kind="anomaly", op=node._op, phase="backward",
                      message=message)
                raise AnomalyError(message)


class detect_anomaly:
    """Context manager: raise on the first NaN/Inf, naming the originating op.

    Forward: every primitive op listed in
    :data:`repro.tensor.ops_registry.TENSOR_OPS` is wrapped in a finiteness
    check of its result.  Backward: a backward hook checks the gradients
    each closure accumulates.  Either check raises :class:`AnomalyError`
    carrying the forward op name — creation provenance is the op tag every
    graph node already records.

    Fused primitives (``gru_cell``) also pass every intermediate product
    their composite form would have exposed as an op output through an
    engine hook, reported under the fused op's name.

    The guard is per thread: one shared instrument is attached by the first
    thread to enter and detached when the last thread exits; it checks only
    in threads that are inside a guard, so several serving engines can each
    guard their own forwards concurrently.  A thread cannot nest the guard
    with itself.

    Overhead is one ``np.isfinite().all()`` scan per checked array in a
    guarded thread, one thread-local read per op in an unguarded thread
    while any guard is active, and exactly zero once the last one exits
    (original methods are restored, the hooks are cleared).
    """

    _lock = threading.Lock()
    _check = _AnomalyCheck()
    _users = 0  # threads inside a guard; the check is attached while > 0

    def __init__(self, sink: MetricsSink | None = None) -> None:
        self._sink = sink

    def __enter__(self) -> "detect_anomaly":
        cls = detect_anomaly
        if cls._check.active is not None:
            raise RuntimeError("detect_anomaly is already active; it does not nest with itself")
        with cls._lock:
            if cls._users == 0:
                attach(cls._check)
            cls._users += 1
        cls._check.active = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        cls = detect_anomaly
        cls._check.active = None
        with cls._lock:
            cls._users -= 1
            if cls._users == 0:
                detach(cls._check)
