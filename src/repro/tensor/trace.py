"""Graph-introspection hooks: observe the engine as a *program*.

:class:`GraphTracer` is the tape-introspection seam the static tape
analyses (:mod:`repro.check.tape`) are built on.  While active it reports,
through a :class:`TraceListener`, every event that defines the recorded
forward+backward program:

* **node creation** — every tracked op node the engine records (the same
  nodes ``backward`` walks), with its operands and op tag;
* **mutation** — every rebinding or in-place overwrite of a tensor's
  ``.data`` payload (:meth:`~repro.tensor.Tensor.copy_` lands here too: it
  rebinds ``.data`` internally), distinguished by kind;
* **export** — reads that leave the graph (``numpy()`` / ``item()`` /
  ``detach()``), so dataflow consumers outside the autodiff graph still
  count as uses;
* **backward execution** — each node's gradient closure, bracketed by
  begin/end callbacks so the listener can inspect gradients the closure
  just accumulated.

Like every instrument in this repository (``repro.obs.Profiler``, the
``repro.check`` sanitizers) it uses the method-swap pattern: installed on
``__enter__``, fully removed on ``__exit__``, zero overhead when inactive.
The backward hook chains with any previously installed hook, so tracing
composes with the profiler and the sanitizers.

The tracer reports events; it does not interpret them.  The interpretation
— a flat SSA-like instruction program with lifetimes, aliasing and version
stamps — lives in :mod:`repro.check.tape.ir`.
"""

from __future__ import annotations

from . import tensor as _tensor_mod
from .tensor import Tensor

__all__ = ["TraceListener", "GraphTracer"]


class TraceListener:
    """Callback interface for :class:`GraphTracer`; every method is optional.

    Subclass and override what you need — the default implementations do
    nothing, so a listener only pays for the events it consumes.
    """

    def on_node(self, out: Tensor, parents: tuple[Tensor, ...], op: str) -> None:
        """A tracked op node ``out`` was created from ``parents`` by ``op``.

        ``parents`` is the full operand tuple as the op supplied it —
        including operands that do not require grad — not the tracked
        subset the engine stores on the node.
        """

    def on_mutation(self, tensor: Tensor, kind: str) -> None:
        """``tensor``'s payload changed; ``kind`` is ``"rebind"`` (a new
        array was bound to ``.data``, the :meth:`~repro.tensor.Tensor.copy_`
        path) or ``"inplace"`` (the same array object was written through,
        e.g. ``t.data += x``)."""

    def on_export(self, tensor: Tensor, how: str) -> None:
        """``tensor``'s value was read out of the graph via ``how`` (one of
        ``"numpy"``, ``"item"``, ``"detach"``)."""

    def on_backward_begin(self, node: Tensor) -> None:
        """``node``'s gradient closure is about to run (``node.grad`` is
        the fully accumulated incoming gradient)."""

    def on_backward_end(self, node: Tensor) -> None:
        """``node``'s closure just ran; its parents' ``.grad`` buffers hold
        the newly accumulated gradients (``node._parents`` is still
        intact)."""


class GraphTracer:
    """Context manager that streams engine events to a :class:`TraceListener`.

    Only one tracer may be active at a time (nesting raises).  The traced
    region should contain one forward and, typically, one ``backward()``;
    the listener sees creation events in execution order and backward
    events in the engine's reverse-topological processing order.
    """

    _active = False

    def __init__(self, listener: TraceListener) -> None:
        self.listener = listener
        self._saved: list[tuple[str, object]] = []
        self._member = None
        self._previous_hook = None

    def __enter__(self) -> "GraphTracer":
        if GraphTracer._active:
            raise RuntimeError("a GraphTracer is already active; tracers do not nest")
        GraphTracer._active = True
        listener = self.listener

        # 1. Node creation: wrap Tensor._make, reporting tracked nodes only
        # (untracked results carry no closure and are not part of the
        # differentiable program).
        original_make = Tensor.__dict__["_make"]
        original_make_fn = original_make.__func__
        self._saved.append(("_make", original_make))

        def traced_make(data, parents, backward, op):
            out = original_make_fn(data, parents, backward, op)
            if out._backward is not None:
                listener.on_node(out, tuple(parents), op)
            return out

        Tensor._make = staticmethod(traced_make)

        # 2. Mutations: swap the `data` slot for a reporting property (the
        # guard_mutations pattern).  Initial assignment in __init__ finds
        # the slot unset and is not a mutation.
        member = Tensor.__dict__["data"]
        self._member = member

        def _get(tensor):
            return member.__get__(tensor, Tensor)

        def _set(tensor, value):
            try:
                previous = member.__get__(tensor, Tensor)
            except AttributeError:
                previous = None
            member.__set__(tensor, value)
            if previous is not None:
                listener.on_mutation(
                    tensor, "inplace" if value is previous else "rebind"
                )

        setattr(Tensor, "data", property(_get, _set))

        # 3. Exports: graph-external reads still count as uses.
        for name in ("numpy", "item", "detach"):
            original = Tensor.__dict__[name]
            self._saved.append((name, original))

            def traced_export(tensor, *args, _fn=original, _how=name, **kwargs):
                listener.on_export(tensor, _how)
                return _fn(tensor, *args, **kwargs)

            traced_export.__name__ = name
            traced_export.__doc__ = original.__doc__
            setattr(Tensor, name, traced_export)

        # 4. Backward: chain the engine's per-node hook.
        previous = _tensor_mod._BACKWARD_OP_HOOK
        self._previous_hook = previous

        def hook(node):
            listener.on_backward_begin(node)
            if previous is None:
                node._backward(node.grad)
            else:
                previous(node)
            listener.on_backward_end(node)

        _tensor_mod._set_backward_op_hook(hook)
        return self

    def __exit__(self, *exc_info) -> None:
        _tensor_mod._set_backward_op_hook(self._previous_hook)
        setattr(Tensor, "data", self._member)
        for name, original in reversed(self._saved):
            setattr(Tensor, name, original)
        self._saved.clear()
        GraphTracer._active = False
