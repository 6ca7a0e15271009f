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

Both use the PR 1 method-swap pattern: instrumentation is installed on
``__enter__`` and fully removed on ``__exit__``, so the disabled path runs
the original, unmodified engine — zero overhead when off.  They may nest
with each other and with :class:`repro.obs.Profiler` (backward hooks chain).

Sanitizer trips are also emitted as telemetry records (``event:
"sanitizer"``) through a :class:`~repro.obs.sinks.MetricsSink` — either the
one passed to the context manager or the process-wide one installed with
:func:`set_event_sink` — so they land in the same JSON-lines stream as the
trainer's epoch records.
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs.sinks import MetricsSink
from ..obs.telemetry import sanitizer_record
from ..tensor import tensor as _tensor_mod
from ..tensor.ops_registry import TENSOR_OPS
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


class guard_mutations:
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
    closures re-read saved data).  Nests under/over ``Profiler`` and
    :func:`detect_anomaly`; does not re-enter itself.
    """

    _active = False

    def __init__(self, sink: MetricsSink | None = None) -> None:
        self._sink = sink
        self._member = None
        self._original_make = None
        self._previous_hook = None

    def __enter__(self) -> "guard_mutations":
        if guard_mutations._active:
            raise RuntimeError("guard_mutations is already active; it does not nest with itself")
        guard_mutations._active = True

        # 1. Swap the `data` slot descriptor for a version-bumping property.
        member = Tensor.__dict__["data"]
        self._member = member

        def _get(tensor):
            return member.__get__(tensor, Tensor)

        def _set(tensor, value):
            member.__set__(tensor, value)
            tensor._version = getattr(tensor, "_version", 0) + 1

        setattr(Tensor, "data", property(_get, _set))

        # 2. Swap Tensor._make so new graph nodes snapshot parent versions.
        original_make = Tensor.__dict__["_make"].__func__
        self._original_make = Tensor.__dict__["_make"]

        def guarded_make(data, parents, backward, op):
            out = original_make(data, parents, backward, op)
            if out._backward is not None:
                out._saved_versions = tuple(getattr(p, "_version", 0) for p in out._parents)
            return out

        Tensor._make = staticmethod(guarded_make)

        # 3. Chain a backward hook that checks the snapshots.
        previous = _tensor_mod._BACKWARD_OP_HOOK
        self._previous_hook = previous
        sink = self._sink

        def hook(node):
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
                        _emit(sink, kind="inplace_mutation", op=node._op,
                              phase="backward", message=message)
                        raise InplaceMutationError(message)
            if previous is None:
                node._backward(node.grad)
            else:
                previous(node)

        _tensor_mod._set_backward_op_hook(hook)
        return self

    def __exit__(self, *exc_info) -> None:
        _tensor_mod._set_backward_op_hook(self._previous_hook)
        Tensor._make = self._original_make
        setattr(Tensor, "data", self._member)
        guard_mutations._active = False


class _ThreadGuard(threading.local):
    """The :class:`detect_anomaly` guard active in this thread, if any."""

    active: "detect_anomaly | None" = None


class detect_anomaly:
    """Context manager: raise on the first NaN/Inf, naming the originating op.

    Forward: every primitive op listed in
    :data:`repro.tensor.ops_registry.TENSOR_OPS` is wrapped in a finiteness
    check of its result.  Backward: a chained backward hook checks the
    gradients each closure accumulates.  Either check raises
    :class:`AnomalyError` carrying the forward op name — creation provenance
    is the op tag every graph node already records.

    Fused primitives (``gru_cell``) also pass every intermediate product
    their composite form would have exposed as an op output through an
    engine hook, reported under the fused op's name.

    The guard is per thread: the wrappers are installed once, by the first
    thread to enter, and removed when the last thread exits; they check only
    in threads that are inside a guard, so several serving engines can each
    guard their own forwards concurrently.  A thread cannot nest the guard
    with itself.

    Overhead is one ``np.isfinite().all()`` scan per checked array in a
    guarded thread, one thread-local read per op in an unguarded thread
    while any guard is active, and exactly zero once the last one exits
    (original methods are restored, the hooks are cleared).
    """

    _lock = threading.Lock()
    _thread = _ThreadGuard()
    _users = 0  # threads inside a guard; the wrappers are installed while > 0
    _saved: list[tuple[str, object]] = []
    _previous_hook = None

    def __init__(self, sink: MetricsSink | None = None) -> None:
        self._sink = sink

    # ------------------------------------------------------------------
    def _check_array(
        self, data: np.ndarray, op_name: str, where: str = "its forward output"
    ) -> None:
        # The element-wise scan is exact and, on numpy 2.x, cheaper than a
        # finite-sum pre-test: the SIMD isfinite beats the pairwise float32
        # sum at every array size of a D2STGNN forward
        # (docs/performance.md, "Fused GRU step").
        if data.dtype.kind != "f" or np.isfinite(data).all():
            return
        message = f"op '{op_name}' produced NaN/Inf in {where}"
        _emit(self._sink, kind="anomaly", op=op_name, phase="forward", message=message)
        raise AnomalyError(message)

    def _check_result(self, value, op_name: str) -> None:
        if isinstance(value, Tensor):
            self._check_array(value.data, op_name)
            return
        for tensor in _walk_tensors(value):
            self._check_array(tensor.data, op_name)

    @staticmethod
    def _wrap(fn, op_name: str):
        thread = detect_anomaly._thread

        def checked(*args, **kwargs):
            out = fn(*args, **kwargs)
            guard = thread.active
            if guard is not None:
                guard._check_result(out, op_name)
            return out

        checked.__name__ = getattr(fn, "__name__", op_name)
        checked.__doc__ = fn.__doc__
        return checked

    # ------------------------------------------------------------------
    @classmethod
    def _install(cls) -> None:
        for attr, op_name, is_static in TENSOR_OPS:
            original = Tensor.__dict__[attr]
            cls._saved.append((attr, original))
            fn = original.__func__ if is_static else original
            wrapped = cls._wrap(fn, op_name)
            setattr(Tensor, attr, staticmethod(wrapped) if is_static else wrapped)

        thread = cls._thread

        # Fused ops (gru_cell) report their internal products here, so an
        # overflow their output saturates away still trips the guard.
        def internal_check(data, op_name):
            guard = thread.active
            if guard is not None:
                guard._check_array(data, op_name, "an internal product")

        _tensor_mod._set_internal_check_hook(internal_check)

        previous = _tensor_mod._BACKWARD_OP_HOOK
        cls._previous_hook = previous

        def hook(node):
            if previous is None:
                node._backward(node.grad)
            else:
                previous(node)
            guard = thread.active
            if guard is None:
                return
            for parent in node._parents:
                grad = parent.grad
                if grad is not None and grad.dtype.kind == "f" \
                        and not np.isfinite(grad).all():
                    message = (
                        f"backward of op '{node._op}' produced a NaN/Inf gradient"
                    )
                    _emit(guard._sink, kind="anomaly", op=node._op, phase="backward",
                          message=message)
                    raise AnomalyError(message)

        _tensor_mod._set_backward_op_hook(hook)

    @classmethod
    def _uninstall(cls) -> None:
        _tensor_mod._set_backward_op_hook(cls._previous_hook)
        cls._previous_hook = None
        _tensor_mod._set_internal_check_hook(None)
        for attr, original in reversed(cls._saved):
            setattr(Tensor, attr, original)
        cls._saved.clear()

    def __enter__(self) -> "detect_anomaly":
        cls = detect_anomaly
        if cls._thread.active is not None:
            raise RuntimeError("detect_anomaly is already active; it does not nest with itself")
        with cls._lock:
            if cls._users == 0:
                cls._install()
            cls._users += 1
        cls._thread.active = self
        return self

    def __exit__(self, *exc_info) -> None:
        cls = detect_anomaly
        cls._thread.active = None
        with cls._lock:
            cls._users -= 1
            if cls._users == 0:
                cls._uninstall()
