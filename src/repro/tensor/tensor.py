"""A minimal reverse-mode automatic differentiation engine on numpy.

This module provides :class:`Tensor`, the substrate on which every neural
network in this repository is built.  It replaces the role PyTorch plays in
the original D2STGNN code base (see DESIGN.md, substitution table): a tensor
wraps a ``numpy.ndarray`` and records, for every differentiable operation, a
closure that propagates gradients back to its inputs.  Calling
:meth:`Tensor.backward` on a scalar loss walks the recorded graph in reverse
topological order and accumulates ``.grad`` on every tensor created with
``requires_grad=True``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects, never tensors, so the graph
  is not retained across backward passes and memory is released eagerly.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` folds gradients
  back onto the original operand shape by summing over broadcast axes.
* ``float32`` is the default dtype: it halves memory traffic, which dominates
  pure-numpy training time.
* Only the primitives the models in this repository require are implemented;
  composite functions (log-softmax, losses, ...) live in
  :mod:`repro.tensor.functional`.
* ``backward`` recycles the gradient buffers of the previous backward
  through a free list keyed by shape and dtype, so a training loop does not
  hand its gradient memory back to the OS every step.  Recycling copies
  into a dead buffer, so it is bit-identical.  See ``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "DEFAULT_DTYPE",
    "configure_fast_backward",
    "fast_backward_config",
    "reference_backward",
    "backward_tape_stats",
]

DEFAULT_DTYPE = np.float32


class _GradMode(threading.local):
    """Graph-recording switches, per thread (like torch's grad mode): a
    ``no_grad`` block in one serving thread never turns recording off, or
    back on, in another."""

    enabled = True
    inference = False


_GRAD_MODE = _GradMode()

# Hook globals, set only by repro.tensor.instrument (None when nothing is
# attached).  backward() routes each node's closure through the backward
# hook, which runs ``node._backward(node.grad)`` itself: one global read per
# backward() plus a predicted branch per node when disabled.
_BACKWARD_OP_HOOK: Callable[["Tensor"], None] | None = None

# Fused primitives pass each intermediate product their composite form would
# have exposed as an op output through this check, so detect_anomaly keeps
# its per-op coverage inside them (one global read per fused op when off).
_INTERNAL_CHECK_HOOK: Callable[[np.ndarray, str], None] | None = None


# Free list of gradient buffers, keyed by (shape, dtype).  Every train step
# frees and re-allocates the same multi-megabyte gradient arrays, and glibc
# hands freed blocks of that size back to the OS, so without recycling each
# step pays tens of thousands of page faults.  ``backward`` replaces the
# list with the op-node buffers it just released, so it never holds more
# than one step's buffers; ``_accumulate`` copies into one of them before it
# allocates.  The copy is into a dead buffer, so recycling is bit-identical.
_GRAD_POOL: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
_POOL_HITS = 0
_POOL_MISSES = 0
# Counts ``backward()`` calls; getitem tags a gradient it may add into in
# place with the run that built it (see ``Tensor.__getitem__``).
_BACKWARD_RUN = 0

# Closure-level fast paths (see docs/performance.md):
# * slice accumulation — for indices that provably contain no duplicates
#   (slices, ints, boolean masks) getitem backward adds the slice straight
#   into the parent's gradient instead of scattering into a full-size zero
#   array with np.add.at; bit-identical to it.
# * in-place grad reuse — elementwise closures overwrite the incoming
#   gradient buffer (its consumer is done with it) instead of allocating the
#   outgoing one, and pass-through ops (add/sub) donate the buffer itself to
#   one parent.  Same float operations in the same order, so bit-identical.
_FAST_SCATTER = True
_INPLACE_GRAD = True


def configure_fast_backward(
    *,
    scatter: bool | None = None,
    inplace: bool | None = None,
) -> dict[str, bool]:
    """Toggle the backward fast paths; returns the *previous* configuration.

    ``scatter`` gates the duplicate-free getitem slice accumulation and
    ``inplace`` the closure-level reuse of dying gradient buffers; both
    are bit-identical to their reference paths.
    ``None`` leaves a switch unchanged.  Gradient buffer recycling is not a
    switch: it runs under every configuration.
    Used by the equivalence tests and the legs of
    ``benchmarks/bench_train_step.py``.
    """
    global _FAST_SCATTER, _INPLACE_GRAD
    previous = fast_backward_config()
    if scatter is not None:
        _FAST_SCATTER = bool(scatter)
    if inplace is not None:
        _INPLACE_GRAD = bool(inplace)
    return previous


def fast_backward_config() -> dict[str, bool]:
    """Current fast-path switches, in ``configure_fast_backward`` keywords."""
    return {
        "scatter": _FAST_SCATTER,
        "inplace": _INPLACE_GRAD,
    }


@contextlib.contextmanager
def reference_backward():
    """Context manager: run with every backward fast-path switch off.

    The closures then take their reference implementations — the baseline
    the equivalence suite compares against and the reference leg of the
    train-step benchmark.  Gradient buffer recycling still runs: it is a
    copy into a dead buffer, bit-identical by construction.
    """
    previous = configure_fast_backward(scatter=False, inplace=False)
    try:
        yield
    finally:
        configure_fast_backward(**previous)


def _pooled(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray | None:
    """Pop a recycled gradient buffer of ``shape`` and ``dtype`` (a pool
    hit), or count a miss and return ``None``.  Its contents are stale."""
    global _POOL_HITS, _POOL_MISSES
    free = _GRAD_POOL.get((shape, dtype))
    if free:
        _POOL_HITS += 1
        return free.pop()
    _POOL_MISSES += 1
    return None


def backward_tape_stats() -> dict[str, int]:
    """Gradient buffer pool counters.

    ``hits`` and ``misses`` count first gradient accumulations served from
    the pool and freshly allocated, respectively; ``pooled_buffers`` is the
    number of buffers the pool holds now.
    """
    return {
        "hits": _POOL_HITS,
        "misses": _POOL_MISSES,
        "pooled_buffers": sum(len(free) for free in _GRAD_POOL.values()),
    }


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the backward graph."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def inference_mode():
    """Context manager for serving-path forwards (like ``torch.inference_mode``).

    Disables graph recording like :func:`no_grad` and additionally reports
    itself through :func:`is_inference_mode`, so an inference forward never
    records closures even if a caller forgot ``requires_grad`` hygiene.
    """
    previous = (_GRAD_MODE.enabled, _GRAD_MODE.inference)
    _GRAD_MODE.enabled, _GRAD_MODE.inference = False, True
    try:
        yield
    finally:
        _GRAD_MODE.enabled, _GRAD_MODE.inference = previous


def is_inference_mode() -> bool:
    """Return whether an :func:`inference_mode` context is currently active."""
    return _GRAD_MODE.inference


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or expanded by broadcasting.

    ``grad`` has the broadcast (output) shape; the result has ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Remove leading axes that broadcasting prepended: a ones-vector GEMV
    # over the flattened leading axes, several times faster than a
    # leading-axis ``np.sum`` and closer to the exact sum.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _sum_leading(grad, grad.ndim - extra)
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _sum_leading(array: np.ndarray, keep: int) -> np.ndarray:
    """Sum ``array`` over all but its last ``keep`` axes, as one GEMV."""
    tail = array.shape[array.ndim - keep:]
    rows = array.reshape(-1, int(np.prod(tail, dtype=np.int64)))
    return (np.ones(rows.shape[0], dtype=array.dtype) @ rows).reshape(tail)


def _duplicate_free_index(index) -> bool:
    """True when ``index`` provably never addresses an element twice.

    Basic indexing (ints, slices, Ellipsis, np.newaxis) and boolean masks
    qualify; integer arrays/lists may repeat values and do not.
    """
    if index is None or index is Ellipsis:
        return True
    if isinstance(index, (int, np.integer, slice)):
        return True
    if isinstance(index, tuple):
        return all(_duplicate_free_index(item) for item in index)
    if isinstance(index, np.ndarray) and index.dtype == np.bool_:
        return True
    return False


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array.

    Takes ``exp`` of a non-positive value only, so neither branch can
    overflow.  The per-element formulas are x >= 0 -> 1 / (1 + e),
    x < 0 -> e / (1 + e), with e = exp(-|x|) in (0, 1].  The numerator is
    selected without a branch: ``max(e, x >= 0)`` is 1 where x >= 0 and e
    elsewhere (nan stays nan), which is bit-identical to an ``np.where``
    select and several times faster on an unpredictable sign pattern.
    """
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.maximum(t, x >= 0, out=t)
    t /= d
    return t


def _gate_sum(blocks: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """``sum_k blocks[k] @ weights[k].T``: a gradient back through a
    gate-major GEMM, one GEMM per gate into one scratch buffer."""
    out = blocks[0] @ weights[0].T
    term = np.empty_like(out)
    for block, weight in zip(blocks[1:], weights[1:]):
        out += np.matmul(block, weight.T, out=term)
    return out


def _as_array(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype if dtype is not None else None)
    if arr.dtype == np.float64:
        arr = arr.astype(DEFAULT_DTYPE)
    return arr


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Float64 input is downcast to
        float32 (the library default).
    requires_grad:
        When True, gradients are accumulated into :attr:`grad` by
        :meth:`backward`.
    """

    # ``_version`` and ``_saved_versions`` back the in-place-mutation sanitizer
    # (repro.check.sanitizers).  Both are left *unset* on construction — they
    # cost nothing until a sanitizer is active — and are read with getattr
    # defaults (version 0, no saved snapshot).
    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward", "_op",
        "_version", "_saved_versions", "_slice_run",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "",
    ) -> None:
        self.data = data if isinstance(data, np.ndarray) else _as_array(data)
        if self.data.dtype == np.float64:
            self.data = self.data.astype(DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Sanctioned mutation
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter read by the in-place-mutation sanitizer.

        Bumped by :meth:`copy_` (and, while
        ``repro.check.sanitizers.guard_mutations`` is active, by any
        rebinding or augmented assignment of ``.data``).  A tensor saved for
        backward whose version changed between forward and backward has had
        its gradient inputs corrupted.
        """
        return getattr(self, "_version", 0)

    def copy_(self, value) -> "Tensor":
        """Overwrite ``.data`` with ``value`` (same shape) and bump :attr:`version`.

        This is the sanctioned way to mutate a tensor's payload outside the
        optimizers — it keeps the mutation counter honest, so the sanitizer
        can still certify backward passes.  ``value`` is cast to the current
        dtype and copied; returns ``self`` for chaining.
        """
        array = np.asarray(value)
        if array.shape != self.data.shape:
            raise ValueError(f"copy_ shape mismatch: {array.shape} vs {self.data.shape}")
        self.data = array.astype(self.data.dtype, copy=True)
        self._version = self.version + 1
        return self

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        # Single pass over parents; ops run ~1.5k times per train step, so
        # avoiding the any()/generator pair is measurable.
        tracked = [p for p in parents if p.requires_grad] if _GRAD_MODE.enabled else ()
        if not tracked:
            return Tensor(data)
        # Inlined Tensor() construction: ops hand _make a numpy array (full
        # reductions yield numpy scalars), so the coercion in __init__
        # reduces to an asarray plus the float64 downcast.
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        if data.dtype == np.float64:
            data = data.astype(DEFAULT_DTYPE)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = True
        out._parents = tuple(tracked)
        out._backward = backward
        out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            buf = _pooled(grad.shape, self.data.dtype)
            if buf is None:
                self.grad = grad.astype(self.data.dtype, copy=True)
            else:
                np.copyto(buf, grad)
                self.grad = buf
        elif self.grad.flags.carray:
            self.grad += grad
        else:
            # A donated broadcast view got here first; add out of place.
            self.grad = self.grad + grad

    def _accumulate_fresh(self, grad: np.ndarray) -> None:
        """Accumulate a gradient the calling closure will never touch again.

        Either a freshly computed array, or a view that this tensor alone
        consumes (reshape/transpose of the child's buffer, disjoint concat /
        stack slices, a broadcast of a reduced gradient).  On first
        accumulation ownership is taken outright instead of copying — the
        values are exactly :meth:`_accumulate`'s, only the defensive copy is
        elided.  Two guards keep the donation sound:

        * Leaf gradients (``_op == ""``) outlive the step — the optimizer
          reads and scales them in place, and grad-accumulation users keep
          them across backwards — so a *view* is copied for leaves: its base
          buffer belongs to an op node and goes back on the gradient pool.
          Op-node gradients die inside ``backward``, where the base is
          provably dead by the time anything writes through the view.
        * ``np.broadcast_to`` views are read-only; later accumulations fall
          back to out-of-place addition.

        Closures must never route the child's gradient buffer *itself* (or a
        second alias of a region already donated elsewhere) through here.
        """
        if self.grad is None:
            if grad.dtype != self.data.dtype:
                self.grad = grad.astype(self.data.dtype)
            elif grad.base is None or self._op:
                self.grad = grad
            else:
                self.grad = grad.copy()
        elif self.grad.flags.carray:
            self.grad += grad
        else:
            self.grad = self.grad + grad

    def _accumulate_donate(self, grad: np.ndarray) -> None:
        """Accumulate the *child's own* gradient buffer (or an in-place
        overwrite of it), which dies with the calling closure.

        Op nodes adopt the buffer outright — their gradients are consumed and
        released inside ``backward`` before the buffer could be seen twice,
        and the pool harvest deduplicates by buffer identity so an adopted
        buffer never goes on the gradient pool twice.  Leaves copy: their
        gradients outlive the step while the donated buffer goes back on the
        pool.  A closure may donate a given buffer to at most one parent.
        """
        if self.grad is None:
            if self._op and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        elif self.grad.flags.carray:
            self.grad += grad
        else:
            self.grad = self.grad + grad

    def _reverse_topo(self) -> list["Tensor"]:
        """Reverse-topological order via iterative DFS (recursion would
        overflow on RNN graphs unrolled over long sequences)."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        topo.reverse()
        return topo

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (valid only for scalar outputs, mirroring
        the PyTorch convention).
        """
        global _GRAD_POOL, _BACKWARD_RUN
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        _BACKWARD_RUN += 1
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        released: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        seen: set[int] = set()
        self._accumulate(grad)
        hook = _BACKWARD_OP_HOOK
        for node in self._reverse_topo():
            if node._backward is not None and node.grad is not None:
                if hook is None:
                    node._backward(node.grad)
                else:
                    hook(node)
                # Free intermediate gradients and the graph eagerly; keep
                # leaf gradients (parameters / explicit leaves).
                node._backward = None
                node._parents = ()
                if node._op:
                    buf = node.grad
                    node.grad = None
                    # Full reductions yield numpy scalars, not 0-d arrays,
                    # and donated views alias another node's buffer; only
                    # owned arrays can be recycled.  A donated buffer is the
                    # grad of every node in its donation chain, so it is
                    # pooled once (ids stay unique: ``released`` pins it).
                    if type(buf) is np.ndarray and buf.base is None \
                            and id(buf) not in seen:
                        seen.add(id(buf))
                        released.setdefault((buf.shape, buf.dtype), []).append(buf)
        _GRAD_POOL = released

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            # The incoming buffer dies with this closure, so its last
            # no-broadcast consumer adopts it outright; an earlier consumer
            # copies (the values must survive for the later one).  Fresh
            # reductions from _unbroadcast are always donated.
            if self.requires_grad:
                if grad.shape != self.data.shape:
                    self._accumulate_fresh(_unbroadcast(grad, self.data.shape))
                elif _INPLACE_GRAD and not (
                    other.requires_grad
                    and other is not self
                    and grad.shape == other.data.shape
                ):
                    self._accumulate_donate(grad)
                else:
                    self._accumulate(grad)
            if other.requires_grad:
                if grad.shape != other.data.shape:
                    other._accumulate_fresh(_unbroadcast(grad, other.data.shape))
                elif _INPLACE_GRAD:
                    other._accumulate_donate(grad)
                else:
                    other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if grad.shape != self.data.shape:
                    self._accumulate_fresh(_unbroadcast(grad, self.data.shape))
                elif _INPLACE_GRAD and not other.requires_grad:
                    self._accumulate_donate(grad)
                else:
                    self._accumulate(grad)
            if other.requires_grad:
                # self copied above (or never touched the buffer), so the
                # negation may overwrite it in place.
                if _INPLACE_GRAD and grad.flags.carray:
                    np.negative(grad, out=grad)
                    if grad.shape == other.data.shape:
                        other._accumulate_donate(grad)
                    else:
                        other._accumulate_fresh(_unbroadcast(grad, other.data.shape))
                else:
                    other._accumulate_fresh(_unbroadcast(-grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad * other.data
                if g.shape != self.data.shape:
                    g = _unbroadcast(g, self.data.shape)
                self._accumulate_fresh(g)
            if other.requires_grad:
                # Last read of the incoming buffer: form the product in place.
                if _INPLACE_GRAD and grad.flags.carray \
                        and grad.shape == other.data.shape:
                    np.multiply(grad, self.data, out=grad)
                    other._accumulate_donate(grad)
                else:
                    g = grad * self.data
                    if g.shape != other.data.shape:
                        g = _unbroadcast(g, other.data.shape)
                    other._accumulate_fresh(g)

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray \
                        and not other.requires_grad \
                        and grad.shape == self.data.shape:
                    np.divide(grad, other.data, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray \
                        and grad.shape == other.data.shape:
                    # Same ops in the same order as the fresh expression:
                    # ((-grad) * self.data) / other.data**2.
                    np.negative(grad, out=grad)
                    np.multiply(grad, self.data, out=grad)
                    np.divide(grad, other.data**2, out=grad)
                    other._accumulate_donate(grad)
                else:
                    other._accumulate_fresh(
                        _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                    )

        return Tensor._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.negative(grad, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(-grad)

        return Tensor._make(out_data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, exponent, out=grad)
                    np.multiply(grad, self.data ** (exponent - 1), out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(
                        grad * exponent * self.data ** (exponent - 1)
                    )

        return Tensor._make(out_data, (self,), backward, "pow")

    # ------------------------------------------------------------------
    # Unary nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, out_data, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * out_data)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.divide(grad, self.data, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad / self.data)

        return Tensor._make(out_data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, 0.5, out=grad)
                    np.divide(grad, out_data, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    t = out_data**2
                    np.subtract(1.0, t, out=t)
                    np.multiply(grad, t, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = _stable_sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    # (grad * out) * (1 - out), matching the fresh expression.
                    t = 1.0 - out_data
                    np.multiply(grad, out_data, out=grad)
                    np.multiply(grad, t, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, mask, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * mask)

        return Tensor._make(out_data, (self,), backward, "relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, sign, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * sign)

        return Tensor._make(out_data, (self,), backward, "abs")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype, copy=False)
        out_data = self.data * scale

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, scale, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * scale)

        return Tensor._make(out_data, (self,), backward, "leaky_relu")

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.multiply.outer(grad, other.data)
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                if self.data.ndim == 1 and grad_self.shape != self.data.shape:
                    grad_self = grad_self.reshape(self.data.shape)
                if grad_self.shape != self.data.shape:
                    grad_self = _unbroadcast(grad_self, self.data.shape)
                self._accumulate_fresh(grad_self)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.multiply.outer(self.data, grad)
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                if grad_other.shape != other.data.shape:
                    grad_other = _unbroadcast(grad_other, other.data.shape)
                other._accumulate_fresh(grad_other)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    def __rmatmul__(self, other) -> "Tensor":
        return self._coerce(other) @ self

    def linear(self, w: "Tensor", b: "Tensor | None" = None) -> "Tensor":
        """``self @ w + b`` on the last axis as one op (paper Eqs. 5, 8, 15).

        ``w`` is a 2-D (D, O) weight and ``b`` an optional (O,) bias.  The
        forward is the same GEMM as ``@`` with the bias added in place into
        its output — the same float operations, so bit-identical to
        ``x @ w + b``.  Backward is one closure over the input flattened to
        (M, D): ``dX`` and ``dW`` are one GEMM each and ``db`` a ones-vector
        GEMV, with no broadcast node for the bias.
        """
        x = self
        out_data = x.data @ w.data
        if b is not None:
            out_data += b.data
        parents = (x, w) if b is None else (x, w, b)

        def backward(grad: np.ndarray) -> None:
            g2 = grad.reshape(-1, grad.shape[-1])
            if x.requires_grad:
                # A view of the 2-D GEMM output: a batched ``grad @ w.T``
                # would allocate a full-size base array per call instead.
                x._accumulate_fresh((g2 @ w.data.T).reshape(x.data.shape))
            if w.requires_grad:
                w._accumulate_fresh(x.data.reshape(-1, x.data.shape[-1]).T @ g2)
            if b is not None and b.requires_grad:
                b._accumulate_fresh(_sum_leading(g2, 1))

        return Tensor._make(out_data, parents, backward, "linear")

    # ------------------------------------------------------------------
    # Fused recurrent step
    # ------------------------------------------------------------------
    def gru_cell(self, h: "Tensor", w: "Tensor", u: "Tensor", b: "Tensor") -> "Tensor":
        """One GRU step (paper Eq. 10) as a single differentiable op.

        ``self`` is the input x (B, D) and ``h`` the state (B, H).  The gate
        parameters come stacked gate-major in z, r, candidate order:
        ``w = [W_z, W_r, W_h]`` (3, D, H), ``u = [U_z, U_r, U_h]`` (3, H, H)
        and ``b = [b_z, b_r, b_h]`` (3, H).  Two GEMMs replace the
        composite cell's six, and each yields a (3, B, H) array in which
        every gate is a contiguous block; ``U_h`` shares h's GEMM because the
        reset gate multiplies the whole ``h U_h + b_h`` term.  The gate math
        runs in place in those two arrays, the sigmoid in its tanh form
        ``σ(a) = ½·tanh(½a) + ½``, so the output matches the composite cell
        to float rounding, not bit for bit.  Backward is one closure of
        per-gate GEMMs that keeps only the two GEMM arrays (gates, candidate
        and ``h U_h + b_h``) and x and h.
        """
        x = self
        check = _INTERNAL_CHECK_HOOK
        gx = np.matmul(x.data, w.data)
        gh = np.matmul(h.data, u.data)
        if check is not None:
            check(gx, "gru_cell")
            check(gh, "gru_cell")
        gh += b.data[:, None]
        zr, hh = gx[:2], gh[2]
        zr += gh[:2]
        if check is not None:
            check(zr, "gru_cell")
            check(hh, "gru_cell")
        zr *= 0.5
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        z, r, cand = gx
        # gh's z/r blocks are dead once summed into zr: the step's scratch.
        scratch = gh[:2]
        cand += np.multiply(r, hh, out=scratch[0])
        if check is not None:
            check(cand, "gru_cell")
        np.tanh(cand, out=cand)
        out_data = cand - h.data
        out_data *= z
        out_data += h.data

        def backward(grad: np.ndarray) -> None:
            # Pre-activation gradients [z | r | candidate] of x's GEMM; h's
            # differ only in the candidate block, which the reset gate scales.
            d = np.empty_like(gx)
            d_z, d_r, d_c = d
            np.multiply(cand, cand, out=d_c)
            np.subtract(1.0, d_c, out=d_c)
            d_c *= z
            d_c *= grad
            np.subtract(cand, h.data, out=d_z)
            d_z *= grad
            np.multiply(d_c, hh, out=d_r)
            slope = np.subtract(1.0, zr, out=scratch)
            slope *= zr
            d[:2] *= slope
            d_hc = np.multiply(d_c, r, out=scratch[0])
            if x.requires_grad:
                x._accumulate_fresh(_gate_sum((d_z, d_r, d_c), w.data))
            if h.requires_grad:
                d_h = _gate_sum((d_z, d_r, d_hc), u.data)
                d_h += grad * (1.0 - z)
                h._accumulate_fresh(d_h)
            if w.requires_grad:
                w._accumulate_fresh(np.matmul(x.data.T, d))
            if u.requires_grad:
                d_u = np.empty_like(u.data)
                for k, d_k in enumerate((d_z, d_r, d_hc)):
                    np.matmul(h.data.T, d_k, out=d_u[k])
                u._accumulate_fresh(d_u)
            if b.requires_grad:
                ones = np.ones(grad.shape[0], dtype=grad.dtype)
                d_b = np.empty_like(b.data)
                for k, d_k in enumerate((d_z, d_r, d_hc)):
                    np.matmul(ones, d_k, out=d_b[k])
                b._accumulate_fresh(d_b)

        return Tensor._make(out_data, (x, h, w, u, b), backward, "gru_cell")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            g = np.broadcast_to(g, self.shape)
            self._accumulate_fresh(g)

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis`` as one op (paper Eq. 11).

        Works on a C-contiguous copy with ``axis`` moved to the front, so
        the max and the sum reduce over a leading axis — several times
        faster than numpy's reductions over a short trailing axis.  The
        shift is the exact maximum; only the summation order of the
        denominator differs from the composite ``exp(x - max) / sum``, and
        it does not depend on the other axes, so batched rows stay
        bit-identical to single ones.  Backward is ``y * (g - sum(g * y))``
        in the same layout.
        """
        y = np.moveaxis(self.data, axis, 0).copy(order="C")
        y -= np.maximum.reduce(y, axis=0)
        np.exp(y, out=y)
        y /= np.add.reduce(y, axis=0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = np.moveaxis(grad, axis, 0)
                dx = np.multiply(g, y, out=np.empty_like(y))
                total = np.add.reduce(dx, axis=0)
                np.subtract(g, total, out=dx)
                dx *= y
                self._accumulate_fresh(np.moveaxis(dx, 0, axis))

        return Tensor._make(np.moveaxis(y, 0, axis), (self,), backward, "softmax")

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = (self.data == o).astype(self.data.dtype)
            # Split gradient equally among ties to keep gradcheck happy.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate_fresh(g * mask / counts)

        return Tensor._make(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward, "expand_dims")

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward, "squeeze")

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        out_data = np.broadcast_to(self.data, shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = _unbroadcast(grad, original)
                (self._accumulate if g is grad else self._accumulate_fresh)(g)

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward, "broadcast")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # `full[index] += grad` and np.add.at agree exactly when the index
        # cannot select the same element twice; integer-array indices (e.g.
        # embedding lookups) can, and keep the unbuffered scatter.
        simple = _FAST_SCATTER and _duplicate_free_index(index)

        def backward(grad: np.ndarray) -> None:
            # A duplicate-free slice is added straight into the gradient: the
            # first one into a zeroed pool buffer (exactly the reference's
            # 0 + g), later ones in place.  Outside the slice the reference
            # adds +0.0, which turns a -0.0 into +0.0, so adding in place is
            # bit-identical only on a gradient without -0.0.  A sum is -0.0
            # only when both terms are, and within one backward() a tensor's
            # gradient is only added to, so once a getitem backward has built
            # it from 0 + g, or added a full 0 + g into it, it holds no -0.0
            # for the rest of that run; _slice_run records the run.
            if not self.requires_grad:
                return
            if simple and self.grad is None:
                buf = _pooled(self.data.shape, self.data.dtype)
                if buf is None:
                    buf = np.zeros_like(self.data)
                else:
                    buf.fill(0)
                buf[index] += grad
                self.grad = buf
            elif simple and getattr(self, "_slice_run", None) == _BACKWARD_RUN:
                self.grad[index] += grad
                return
            else:
                full = np.zeros_like(self.data)
                if simple:
                    full[index] += grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate_fresh(full)
            if simple:
                self._slice_run = _BACKWARD_RUN

        return Tensor._make(out_data, (self,), backward, "getitem")

    # ------------------------------------------------------------------
    # Combinators (static)
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate_fresh(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward, "concat")

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for tensor, piece in zip(tensors, slices):
                if tensor.requires_grad:
                    tensor._accumulate_fresh(piece)

        return Tensor._make(out_data, tuple(tensors), backward, "stack")

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a = Tensor._coerce(a)
        b = Tensor._coerce(b)
        cond = np.asarray(condition, dtype=bool)
        out_data = np.where(cond, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate_fresh(_unbroadcast(grad * cond, a.shape))
            if b.requires_grad:
                # a's product above read the buffer; b's may overwrite it.
                if _INPLACE_GRAD and grad.flags.carray \
                        and grad.shape == b.data.shape:
                    np.multiply(grad, ~cond, out=grad)
                    b._accumulate_donate(grad)
                else:
                    b._accumulate_fresh(_unbroadcast(grad * ~cond, b.shape))

        return Tensor._make(out_data, (a, b), backward, "where")

    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Additional elementwise ops
    # ------------------------------------------------------------------
    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        if low is None and high is None:
            raise ValueError("clip needs at least one bound")
        out_data = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data > low
        if high is not None:
            inside &= self.data < high

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray:
                    np.multiply(grad, inside, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * inside)

        return Tensor._make(out_data, (self,), backward, "clip")

    def softplus(self) -> "Tensor":
        """``log(1 + exp(x))``, computed stably; derivative is sigmoid(x)."""
        x = self.data
        e = np.abs(x)
        np.negative(e, out=e)
        np.exp(e, out=e)  # exp(-|x|), shared by the value and the derivative
        out_data = (np.maximum(x, 0.0) + np.log1p(e)).astype(x.dtype, copy=False)
        d = e + 1.0
        np.maximum(e, x >= 0, out=e)  # the branch-free select of _stable_sigmoid
        e /= d
        sig = e

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray \
                        and sig.dtype == grad.dtype:
                    np.multiply(grad, sig, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * sig)

        return Tensor._make(out_data, (self,), backward, "softplus")

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi).astype(np.float32)
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        out_data = (0.5 * x * (1.0 + t)).astype(x.dtype, copy=False)
        # d/dx [0.5 x (1 + tanh(u))] = 0.5 (1 + t) + 0.5 x (1 - t^2) u'
        du = c * (1.0 + 3 * 0.044715 * x**2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if _INPLACE_GRAD and grad.flags.carray \
                        and local.dtype == grad.dtype:
                    np.multiply(grad, local, out=grad)
                    self._accumulate_donate(grad)
                else:
                    self._accumulate_fresh(grad * local)

        return Tensor._make(out_data, (self,), backward, "gelu")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum reduction (ties split their gradient, like :meth:`max`)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    def pad_axis(self, axis: int, before: int = 0, after: int = 0) -> "Tensor":
        """Zero-pad one axis; gradient slices the padding back off."""
        if before < 0 or after < 0:
            raise ValueError("padding must be non-negative")
        widths = [(0, 0)] * self.ndim
        widths[axis] = (before, after)
        out_data = np.pad(self.data, widths)
        length = self.shape[axis]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(before, before + length)
                self._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, (self,), backward, "pad")

    def split(self, sections: int, axis: int = 0) -> list["Tensor"]:
        """Split into ``sections`` equal chunks along ``axis``."""
        length = self.shape[axis]
        if length % sections != 0:
            raise ValueError(f"axis of size {length} cannot split into {sections} equal parts")
        step = length // sections
        pieces = []
        for i in range(sections):
            slicer = [slice(None)] * self.ndim
            slicer[axis] = slice(i * step, (i + 1) * step)
            pieces.append(self[tuple(slicer)])
        return pieces
