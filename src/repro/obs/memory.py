"""Live-buffer memory watermark for the autodiff engine.

:class:`MemoryWatermark` measures what the engine actually allocates during
a traced region: every buffer *owned* by a tracked op node (forward
activations) or by a gradient, deduplicated by root buffer so views cost
nothing.  It records three numbers:

* ``total_bytes`` — bytes allocated over the region (each owned buffer
  counted once);
* ``peak_bytes`` — the high-water mark of simultaneously *live* owned
  bytes, observed via weak references that fire the moment numpy frees a
  buffer;
* ``live_bytes`` — owned bytes still reachable right now.

The accounting deliberately mirrors the static tape-IR model in
:mod:`repro.check.tape`: leaf payloads (parameters, inputs) are excluded,
leaf gradients are included, and aliases are attributed to their root
buffer.  That makes ``total_bytes`` directly comparable to the IR's owned
byte count (the T001 consistency check) and ``peak_bytes`` the honest
"what the engine holds today" baseline that the arena plan's projected
peak is judged against.

Like :class:`repro.obs.Profiler` it is a method-swap instrument — active
only inside the ``with`` block, chaining the backward hook so it composes
with other instruments.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..tensor import tensor as _tensor_mod
from ..tensor.tensor import Tensor

__all__ = ["MemoryWatermark"]


def _root(array: object) -> object:
    while isinstance(array, np.ndarray) and isinstance(array.base, np.ndarray):
        array = array.base
    return array


class MemoryWatermark:
    """Track allocated / live / peak bytes of op and gradient buffers.

    Usage::

        with MemoryWatermark() as mem:
            loss = model(x, tod, dow).sum()
            loss.backward()
        print(mem.total_bytes, mem.peak_bytes)

    Only one watermark may be active at a time.  Buffers are registered
    when the engine defines them (op outputs via ``Tensor._make``,
    gradients via the backward hook) and released when numpy frees the
    underlying root buffer — CPython's refcounting makes that immediate,
    so the peak is deterministic.
    """

    _active = False

    def __init__(self) -> None:
        self.total_bytes = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.buffers = 0
        self._refs: dict[int, weakref.ref] = {}
        self._closed = False
        self._original_make = None
        self._previous_hook = None

    # -- registration ---------------------------------------------------

    def _register(self, array: object, exclude: frozenset[int] = frozenset()) -> None:
        """Count the root buffer of ``array`` if it was not seen before.

        A view (``array.base`` chain) is attributed to its root: an
        already-registered op/grad buffer (whose weakref covers liveness),
        a private buffer an op allocated and only exposes through a view
        (counted here, like the IR counts it), or a leaf/external payload
        the watermark deliberately excludes — the caller passes those
        roots' ids as ``exclude``.
        """
        array = _root(array)
        if self._closed or not isinstance(array, np.ndarray) \
                or array.base is not None or id(array) in exclude:
            return
        key = id(array)
        if key in self._refs:
            return
        nbytes = int(array.nbytes)

        def _released(_ref, *, _self=self, _key=key, _nbytes=nbytes):
            if not _self._closed:
                _self.live_bytes -= _nbytes
            _self._refs.pop(_key, None)

        self._refs[key] = weakref.ref(array, _released)
        self.buffers += 1
        self.total_bytes += nbytes
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    # -- instrumentation ------------------------------------------------

    def __enter__(self) -> "MemoryWatermark":
        if MemoryWatermark._active:
            raise RuntimeError("a MemoryWatermark is already active")
        MemoryWatermark._active = True
        register = self._register

        self._original_make = Tensor.__dict__["_make"]
        original_make_fn = self._original_make.__func__

        def watching_make(data, parents, backward, op):
            out = original_make_fn(data, parents, backward, op)
            if out._backward is not None:
                # An output that views a parent's payload aliases that
                # parent; only a private buffer behind the view is new.
                register(out.data, frozenset(id(_root(p.data)) for p in parents))
            return out

        Tensor._make = staticmethod(watching_make)

        previous = _tensor_mod._BACKWARD_OP_HOOK
        self._previous_hook = previous

        def hook(node):
            register(node.grad)  # covers the root's seed gradient
            if previous is None:
                node._backward(node.grad)
            else:
                previous(node)
            for parent in node._parents:
                if parent.grad is not None:
                    register(parent.grad)

        _tensor_mod._set_backward_op_hook(hook)
        return self

    def __exit__(self, *exc_info) -> None:
        _tensor_mod._set_backward_op_hook(self._previous_hook)
        Tensor._make = self._original_make
        MemoryWatermark._active = False
        self._closed = True  # freeze the numbers; late weakref callbacks no-op

    # -- reporting ------------------------------------------------------

    def to_dict(self) -> dict:
        """Summary dict (schema ``repro.obs.memory/v1``)."""
        return {
            "schema": "repro.obs.memory/v1",
            "total_bytes": self.total_bytes,
            "peak_bytes": self.peak_bytes,
            "live_bytes": self.live_bytes,
            "buffers": self.buffers,
        }
