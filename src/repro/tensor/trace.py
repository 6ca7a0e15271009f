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
``repro.check`` sanitizers) it is an
:class:`~repro.tensor.instrument.Instrument`: attached on ``__enter__``,
detached on ``__exit__``, zero overhead when inactive, and composed with
whatever other instruments are active.

The tracer reports events; it does not interpret them.  The interpretation
— a flat SSA-like instruction program with lifetimes, aliasing and version
stamps — lives in :mod:`repro.check.tape.ir`.
"""

from __future__ import annotations

from .instrument import Instrument
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


class GraphTracer(Instrument):
    """Context manager that streams engine events to a :class:`TraceListener`.

    Only one tracer may be active at a time (nesting raises).  The traced
    region should contain one forward and, typically, one ``backward()``;
    the listener sees creation events in execution order and backward
    events in the engine's reverse-topological processing order.
    """

    # Graph-external reads: they still count as uses.
    op_table = (("numpy", "numpy", False), ("item", "item", False), ("detach", "detach", False))

    def __init__(self, listener: TraceListener) -> None:
        self.listener = listener

    def wrap_op(self, fn, op_name: str):
        listener = self.listener

        def traced_export(tensor, *args, **kwargs):
            listener.on_export(tensor, op_name)
            return fn(tensor, *args, **kwargs)

        traced_export.__name__ = op_name
        traced_export.__doc__ = fn.__doc__
        return traced_export

    def wrap_make(self, make):
        # Untracked results carry no closure: not part of the program.
        listener = self.listener

        def traced_make(data, parents, backward, op):
            out = make(data, parents, backward, op)
            if out._backward is not None:
                listener.on_node(out, tuple(parents), op)
            return out

        return traced_make

    def on_data_set(self, tensor, previous, value) -> None:
        if previous is not None:  # the first assignment is not a mutation
            self.listener.on_mutation(tensor, "inplace" if value is previous else "rebind")

    def wrap_backward(self, node, inner) -> None:
        self.listener.on_backward_begin(node)
        inner(node)
        self.listener.on_backward_end(node)
