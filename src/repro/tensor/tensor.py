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
  composite functions (softmax, attention, ...) live in
  :mod:`repro.tensor.functional`.
* Training graphs are structurally identical batch to batch, so ``backward``
  keeps a *backward tape*: nodes are recorded in creation order under a
  rolling structural signature, the reverse-topological processing order of
  the first backward is cached, and later steps replay that exact order while
  recycling the previous step's gradient buffers.  Replay is bit-identical to
  the DFS path (same nodes, same order, same float operations); any structural
  change invalidates the signature and falls back to the DFS.  See
  ``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
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

_GRAD_ENABLED = True

# Observability hook (installed by repro.obs.profiler, None otherwise).  When
# set, backward() routes each node's gradient closure through it so the
# profiler can time individual backward ops.  The disabled path costs one
# global read per backward() call plus a predicted branch per node — far below
# the numpy work each node performs, so profiling is free when off.
_BACKWARD_OP_HOOK: Callable[["Tensor"], None] | None = None


def _set_backward_op_hook(hook: Callable[["Tensor"], None] | None) -> None:
    """Install (or clear, with ``None``) the profiler's backward-op hook.

    The hook receives each graph node in reverse-topological order and is
    responsible for invoking ``node._backward(node.grad)`` itself, timing it
    as it sees fit.  Used exclusively by :mod:`repro.obs.profiler`.
    """
    global _BACKWARD_OP_HOOK
    _BACKWARD_OP_HOOK = hook


# Anomaly hook (installed by repro.check.sanitizers.detect_anomaly, None
# otherwise).  Fused primitives pass each intermediate product their
# composite form would have exposed as an op output through it, so the
# guard keeps its per-op coverage inside them.  The disabled path costs one
# global read per fused op.
_INTERNAL_CHECK_HOOK: Callable[[np.ndarray, str], None] | None = None


def _set_internal_check_hook(hook: Callable[[np.ndarray, str], None] | None) -> None:
    """Install (or clear, with ``None``) the check on fused ops' internals.

    The hook receives ``(array, op name)`` for every intermediate array a
    fused primitive computes and raises if it rejects the values.  Used
    exclusively by :func:`repro.check.sanitizers.detect_anomaly`.
    """
    global _INTERNAL_CHECK_HOOK
    _INTERNAL_CHECK_HOOK = hook


class _BackwardTape:
    """Per-process record of tracked graph nodes in creation order.

    Creation order is a valid topological order (parents exist before their
    children), which makes positions stable step to step: as long as the
    rolling structural signature matches, position ``i`` names "the same"
    node of the recurring training graph.  Two caches hang off that identity,
    keyed by ``(root position, signature at root)``:

    * ``orders`` — the exact reverse-topological *processing* order of the
      first (DFS) backward, as tape positions.  Replaying it preserves the
      float accumulation order bit for bit; creation order alone would not
      (a node's children may be processed in a different relative order).
    * ``pools`` — the gradient buffer each op node filled last step, so the
      first accumulation into a node is an in-place copy instead of a fresh
      allocation.

    The tape holds strong references, so every backward on a recorded root
    ends by evicting it (``evict``); ``limit`` bounds growth when graphs are
    built but never backpropagated (e.g. the numerical side of gradcheck).
    """

    __slots__ = ("enabled", "nodes", "sigs", "sig", "orders", "pools",
                 "hits", "misses", "limit")

    _MAX_ORDERS = 16
    _MAX_POOLS = 4

    def __init__(self) -> None:
        self.enabled = True
        self.nodes: list[Tensor] = []
        self.sigs: list[int] = []
        self.sig = 0
        self.orders: dict[tuple[int, int], list[int]] = {}
        self.pools: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.limit = 250_000

    def evict(self) -> None:
        """Invalidate every recorded node and reset the signature chain."""
        for node in self.nodes:
            node._tape_pos = -1
        self.nodes.clear()
        self.sigs.clear()
        self.sig = 0

    def clear(self) -> None:
        """Evict and drop the cached orders and buffer pools."""
        self.evict()
        self.orders.clear()
        self.pools.clear()

    @staticmethod
    def trim(cache: dict, cap: int) -> None:
        while len(cache) > cap:
            del cache[next(iter(cache))]


_TAPE = _BackwardTape()

# While a replay backward runs, the pool of last step's gradient buffers
# (position -> ndarray); _accumulate recycles them in place of fresh copies.
_REPLAY_POOL: dict[int, np.ndarray] | None = None

# Closure-level fast paths (see docs/performance.md):
# * fast scatter — getitem backward uses `full[index] += grad` for indices
#   that provably contain no duplicates (slices, ints, boolean masks);
#   bit-identical to np.add.at, an order of magnitude faster.
# * fused matmul grads — when the right operand of a batched matmul is a
#   2-D weight, compute both gradients as a single flattened GEMM instead of
#   a batched matmul followed by a broadcast-sum.  Same math, different float
#   summation order, so it is allclose- rather than bit-equivalent.
# * in-place grad reuse — elementwise closures overwrite the incoming
#   gradient buffer (its consumer is done with it) instead of allocating the
#   outgoing one, and pass-through ops (add/sub) donate the buffer itself to
#   one parent.  Same float operations in the same order, so bit-identical.
_FAST_SCATTER = True
_FUSED_MATMUL_GRAD = True
_INPLACE_GRAD = True


def configure_fast_backward(
    *,
    tape: bool | None = None,
    scatter: bool | None = None,
    fused_matmul: bool | None = None,
    inplace: bool | None = None,
) -> dict[str, bool]:
    """Toggle the backward fast paths; returns the *previous* configuration.

    ``tape`` gates cached-order replay and gradient-buffer recycling (both
    bit-identical to the DFS path), ``scatter`` the duplicate-free getitem
    scatter (bit-identical), ``fused_matmul`` the flattened weight-gradient
    GEMM (allclose-equivalent), ``inplace`` the closure-level reuse of dying
    gradient buffers (bit-identical).  ``None`` leaves a switch unchanged.
    Used by the equivalence tests and the before/after legs of
    ``benchmarks/bench_train_step.py``.
    """
    global _FAST_SCATTER, _FUSED_MATMUL_GRAD, _INPLACE_GRAD
    previous = fast_backward_config()
    if tape is not None:
        _TAPE.enabled = bool(tape)
        if not tape:
            _TAPE.clear()
    if scatter is not None:
        _FAST_SCATTER = bool(scatter)
    if fused_matmul is not None:
        _FUSED_MATMUL_GRAD = bool(fused_matmul)
    if inplace is not None:
        _INPLACE_GRAD = bool(inplace)
    return previous


def fast_backward_config() -> dict[str, bool]:
    """Current fast-path switches, in ``configure_fast_backward`` keywords."""
    return {
        "tape": _TAPE.enabled,
        "scatter": _FAST_SCATTER,
        "fused_matmul": _FUSED_MATMUL_GRAD,
        "inplace": _INPLACE_GRAD,
    }


@contextlib.contextmanager
def reference_backward():
    """Context manager: run with every backward fast path disabled.

    This is the pre-optimisation engine, byte for byte — the baseline the
    equivalence suite compares against and the "before" leg of the train-step
    benchmark.
    """
    previous = configure_fast_backward(
        tape=False, scatter=False, fused_matmul=False, inplace=False
    )
    try:
        yield
    finally:
        configure_fast_backward(**previous)


def backward_tape_stats() -> dict[str, int]:
    """Counters for observability: replay hits/misses and live cache sizes."""
    return {
        "hits": _TAPE.hits,
        "misses": _TAPE.misses,
        "recorded_nodes": len(_TAPE.nodes),
        "cached_orders": len(_TAPE.orders),
        "pooled_buffers": sum(len(p) for p in _TAPE.pools.values()),
    }


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the backward graph."""
    return _GRAD_ENABLED


_INFERENCE_MODE = False


@contextlib.contextmanager
def inference_mode():
    """Context manager for serving-path forwards (like ``torch.inference_mode``).

    Strictly stronger than :func:`no_grad`: graph recording is disabled *and*
    the backward tape is paused, so an inference forward can never record
    closures, grow the tape, or perturb the rolling structural signature that
    training-step replay keys on — even if a caller forgot ``requires_grad``
    hygiene.  The previously recorded tape (a training step awaiting
    backward, for example) survives untouched and resumes on exit.
    """
    global _GRAD_ENABLED, _INFERENCE_MODE
    previous = (_GRAD_ENABLED, _INFERENCE_MODE, _TAPE.enabled)
    _GRAD_ENABLED = False
    _INFERENCE_MODE = True
    _TAPE.enabled = False
    try:
        yield
    finally:
        _GRAD_ENABLED, _INFERENCE_MODE, _TAPE.enabled = previous


def is_inference_mode() -> bool:
    """Return whether an :func:`inference_mode` context is currently active."""
    return _INFERENCE_MODE


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or expanded by broadcasting.

    ``grad`` has the broadcast (output) shape; the result has ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Remove leading axes that broadcasting prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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
    overflow.  Computed with two reused temporaries; the per-element
    formulas are x >= 0 -> 1 / (1 + e), x < 0 -> e / (1 + e), with
    e = exp(-|x|).
    """
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.divide(t, d, out=t)
    np.divide(1.0, d, out=d)
    return np.where(x >= 0, d, t).astype(x.dtype, copy=False)


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
    # ``_tape_pos`` is the node's position in the live backward tape, or -1
    # when unrecorded; it is only ever >= 0 while the node sits in
    # ``_TAPE.nodes`` at exactly that index (eviction resets it).
    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward", "_op",
        "_version", "_saved_versions", "_tape_pos",
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
        self._tape_pos = -1

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
        tracked = [p for p in parents if p.requires_grad] if _GRAD_ENABLED else ()
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
        out._tape_pos = -1
        tape = _TAPE
        if tape.enabled:
            # Record only when every tracked parent with a live closure is
            # itself recorded — otherwise a cached order could silently skip
            # an ancestor.  Parents whose closure already ran contribute
            # nothing to backward and are safe to ignore.
            sig = tape.sig
            recordable = True
            for p in tracked:
                if p._backward is not None:
                    pp = p._tape_pos
                    if pp < 0:
                        recordable = False
                        break
                    sig = sig * 1000003 + pp
            if recordable:
                if len(tape.nodes) >= tape.limit:
                    tape.evict()  # out's parents just lost their positions
                else:
                    sig = (sig * 31 + hash(op) * 7919 + hash(data.shape)) \
                        & 0xFFFFFFFFFFFFFFFF
                    out._tape_pos = len(tape.nodes)
                    tape.nodes.append(out)
                    tape.sigs.append(sig)
                    tape.sig = sig
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            pool = _REPLAY_POOL
            if pool is not None:
                buf = pool.pop(self._tape_pos, None)
                if buf is not None and buf.shape == grad.shape \
                        and buf.dtype == self.data.dtype:
                    np.copyto(buf, grad)
                    self.grad = buf
                    return
            self.grad = grad.astype(self.data.dtype, copy=True)
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
          buffer belongs to an op node and is recycled by the replay pool.
          Op-node gradients die inside ``_run_backward``, where the base is
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
        released inside ``_run_backward`` before the buffer could be seen
        twice, and the replay-pool harvest deduplicates by buffer identity so
        an adopted buffer never occupies two pool slots.  Leaves copy: their
        gradients outlive the step while the donated buffer is recycled by
        the pool.  A closure may donate a given buffer to at most one parent.
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

        When this tensor is recorded on the backward tape and the structural
        signature matches a previous backward, the cached processing order is
        replayed (bit-identical, no graph walk); otherwise the DFS runs and
        its order is cached for next time.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        tape = _TAPE
        pos = self._tape_pos
        if not (tape.enabled and pos >= 0):
            self._run_backward(grad, self._reverse_topo(), None, None)
            return
        key = (pos, tape.sigs[pos])
        try:
            cached = tape.orders.get(key)
            if cached is not None:
                tape.hits += 1
                nodes = tape.nodes
                self._run_backward(
                    grad, [nodes[i] for i in cached], tape.pools.pop(key, None), key
                )
            else:
                tape.misses += 1
                self._run_backward(grad, self._reverse_topo(), None, key)
        finally:
            # The tape holds strong references to every node of this step's
            # graph; the step is over (even if a closure or sanitizer hook
            # raised), so release them and start a fresh recording era.
            tape.evict()

    def _run_backward(
        self,
        grad: np.ndarray,
        nodes: list["Tensor"],
        pool: dict[int, np.ndarray] | None,
        key: tuple[int, int] | None,
    ) -> None:
        """Shared backward loop for the DFS and replay paths.

        ``nodes`` is the reverse-topological processing order.  With ``key``
        set, the positions actually processed are cached as the replay order
        and the op-node gradient buffers are recycled into the tape's pool.
        """
        global _REPLAY_POOL
        order: list[int] = []
        harvest: dict[int, np.ndarray] = {}
        harvested: set[int] = set()
        cacheable = key is not None
        _REPLAY_POOL = pool
        try:
            self._accumulate(grad)
            hook = _BACKWARD_OP_HOOK
            for node in nodes:
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
                        if cacheable:
                            p = node._tape_pos
                            if p >= 0:
                                order.append(p)
                                # Full reductions yield numpy scalars, not
                                # 0-d arrays, and donated views alias another
                                # node's buffer; only owned arrays can be
                                # recycled.  A donated buffer surfaces as the
                                # grad of every node in its donation chain —
                                # the identity set keeps it in one pool slot
                                # (ids stay unique: harvest pins each buffer).
                                if type(buf) is np.ndarray and buf.base is None \
                                        and id(buf) not in harvested:
                                    harvested.add(id(buf))
                                    harvest[p] = buf
                            else:
                                cacheable = False
        finally:
            _REPLAY_POOL = None
        if cacheable:
            tape = _TAPE
            tape.orders[key] = order
            if pool:
                pool.update(harvest)  # keep leftovers for branches skipped this step
                harvest = pool
            tape.pools[key] = harvest
            tape.trim(tape.orders, tape._MAX_ORDERS)
            tape.trim(tape.pools, tape._MAX_POOLS)

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
            # Fused path: batched input @ 2-D weight (the Linear-layer case).
            # One flattened GEMM replaces a batched matmul — and, for the
            # weight, also the broadcast-sum over batch axes.
            fused = (
                _FUSED_MATMUL_GRAD and other.data.ndim == 2 and self.data.ndim > 2
            )
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.multiply.outer(grad, other.data)
                elif fused:
                    grad_self = (
                        grad.reshape(-1, grad.shape[-1]) @ other.data.T
                    ).reshape(self.data.shape)
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
                elif fused:
                    grad_other = (
                        self.data.reshape(-1, self.data.shape[-1]).T
                        @ grad.reshape(-1, grad.shape[-1])
                    )
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                if grad_other.shape != other.data.shape:
                    grad_other = _unbroadcast(grad_other, other.data.shape)
                other._accumulate_fresh(grad_other)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    def __rmatmul__(self, other) -> "Tensor":
        return self._coerce(other) @ self

    # ------------------------------------------------------------------
    # Fused recurrent step
    # ------------------------------------------------------------------
    def gru_cell(
        self, h: "Tensor", w: "Tensor", u: "Tensor", b_zr: "Tensor", b_h: "Tensor"
    ) -> "Tensor":
        """One GRU step (paper Eq. 10) as a single differentiable op.

        ``self`` is the input x (B, D) and ``h`` the state (B, H).  The gate
        parameters come stacked on their last axis in z, r, candidate order:
        ``w = [W_z|W_r|W_h]`` (D, 3H), ``u = [U_z|U_r|U_h]`` (H, 3H),
        ``b_zr = [b_z|b_r]`` (2H,) and ``b_h`` (H,).  Two GEMMs replace the
        composite cell's six; ``U_h`` shares h's GEMM because the reset gate
        multiplies the whole ``h U_h + b_h`` term.  The elementwise formulas
        and their evaluation order are the composite cell's, so the output
        matches it bit for bit wherever the BLAS computes a column block of
        a GEMM exactly as the GEMM of that block alone.  Backward is one
        closure with four GEMMs that keeps the gates, the candidate and
        ``h U_h + b_h`` — not the composite's ~20 intermediate arrays.
        """
        x = self
        hidden = h.data.shape[-1]
        split = 2 * hidden
        check = _INTERNAL_CHECK_HOOK
        gx = x.data @ w.data
        gh = h.data @ u.data
        pre_zr = gx[:, :split] + gh[:, :split]
        pre_zr += b_zr.data
        hh = gh[:, split:] + b_h.data
        zr = _stable_sigmoid(pre_zr)
        z = zr[:, :hidden]
        r = zr[:, hidden:]
        pre_c = gx[:, split:] + r * hh
        if check is not None:
            for value in (gx, gh, pre_zr, hh, pre_c):
                check(value, "gru_cell")
        cand = np.tanh(pre_c)
        out_data = (1.0 - z) * h.data + z * cand

        def backward(grad: np.ndarray) -> None:
            # Pre-activation gradients, laid out like the stacked GEMM
            # outputs: [z | r | candidate] for x's GEMM; h's differs only in
            # the candidate block, where the reset gate scales it.
            d_gx = np.empty((grad.shape[0], 3 * hidden), dtype=grad.dtype)
            d_z, d_r, d_c = d_gx[:, :hidden], d_gx[:, hidden:split], d_gx[:, split:]
            np.multiply(grad, z, out=d_c)
            d_c *= 1.0 - cand * cand
            np.subtract(cand, h.data, out=d_z)
            d_z *= grad
            np.multiply(d_c, hh, out=d_r)
            d_gx[:, :split] *= zr * (1.0 - zr)
            d_gh = d_gx.copy()
            d_gh[:, split:] *= r
            if x.requires_grad:
                x._accumulate_fresh(d_gx @ w.data.T)
            if h.requires_grad:
                d_h = d_gh @ u.data.T
                d_h += grad * (1.0 - z)
                h._accumulate_fresh(d_h)
            if w.requires_grad:
                w._accumulate_fresh(x.data.T @ d_gx)
            if u.requires_grad:
                u._accumulate_fresh(h.data.T @ d_gh)
            if b_zr.requires_grad:
                b_zr._accumulate_fresh(d_gx[:, :split].sum(axis=0))
            if b_h.requires_grad:
                b_h._accumulate_fresh(d_gh[:, split:].sum(axis=0))

        return Tensor._make(out_data, (x, h, w, u, b_zr, b_h), backward, "gru_cell")

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
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if simple:
                    full[index] += grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate_fresh(full)

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
        np.divide(e, d, out=e)
        np.divide(1.0, d, out=d)
        sig = np.where(x >= 0, d, e)

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
