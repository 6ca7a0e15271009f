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

Like :class:`repro.obs.Profiler` it is an
:class:`~repro.tensor.instrument.Instrument`: attached only inside the
``with`` block, and composed with whatever other instruments are active.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..tensor.instrument import Instrument

__all__ = ["MemoryWatermark"]


def _root(array: object) -> object:
    while isinstance(array, np.ndarray) and isinstance(array.base, np.ndarray):
        array = array.base
    return array


class MemoryWatermark(Instrument):
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

    def __init__(self) -> None:
        self.total_bytes = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.buffers = 0
        self._refs: dict[int, weakref.ref] = {}
        self._closed = False

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

    def wrap_make(self, make):
        register = self._register

        def watching_make(data, parents, backward, op):
            out = make(data, parents, backward, op)
            if out._backward is not None:
                # An output that views a parent's payload aliases that
                # parent; only a private buffer behind the view is new.
                register(out.data, frozenset(id(_root(p.data)) for p in parents))
            return out

        return watching_make

    def wrap_backward(self, node, inner) -> None:
        self._register(node.grad)  # covers the root's seed gradient
        inner(node)
        for parent in node._parents:
            if parent.grad is not None:
                self._register(parent.grad)

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
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
