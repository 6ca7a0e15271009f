"""The one seam through which instruments change the tensor engine.

Every tool that watches or checks the engine while it runs (the profiler,
the memory watermark, the graph tracer, the two sanitizers, the activation
fault injector, the model analyzer's float64 probe) is an
:class:`Instrument` and changes the engine only through :func:`attach` and
:func:`detach`; lint rule R012 rejects engine patches anywhere else.

Every attach and detach rebuilds each hook point from the pristine
originals, composing the attached instruments in attach order (the one
attached later is outermost), so instruments may detach in any order; with
nothing attached the engine is the unmodified one.  An instrument does not
nest with itself unless its class sets ``exclusive = False``.  See
``docs/observability.md``, "The instrumentation seam".
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Any, Callable, ContextManager, Iterator

import numpy as np

from . import tensor as _tensor_mod
from .ops_registry import TENSOR_OPS
from .tensor import Tensor

__all__ = ["Instrument", "attach", "detach"]


class Instrument:
    """Base class of every engine instrument; entering attaches it.

    A subclass overrides only the hooks it uses: the seam installs a hook
    point only for instruments that override its method.
    """

    # (Tensor attribute, op name, is_staticmethod) entries wrap_op sees.
    op_table: tuple[tuple[str, str, bool], ...] = TENSOR_OPS
    exclusive = True

    def wrap_op(self, fn: Callable[..., Any], op_name: str) -> Callable[..., Any]:
        """Return what runs in place of op ``op_name`` (``fn`` itself: unwrapped)."""
        return fn

    def wrap_make(self, make: Callable[..., Tensor]) -> Callable[..., Tensor]:
        """Return what runs in place of ``Tensor._make``, which builds every node."""
        return make

    def wrap_backward(self, node: Tensor, inner: Callable[[Tensor], None]) -> None:
        """Run ``node``'s gradient closure by calling ``inner(node)``."""
        inner(node)

    def on_data_set(self, tensor: Tensor, previous: Any, value: Any) -> None:
        """``tensor.data`` was just set to ``value``; ``previous`` is ``None`` on the first set."""

    def wrap_scope(self, module: Any) -> ContextManager[None]:
        """Return the context manager each ``Module.__call__`` runs inside."""
        return contextlib.nullcontext()

    def check_internal(self, data: np.ndarray, op_name: str) -> None:
        """Inspect one intermediate product of the fused op ``op_name``."""

    def __enter__(self) -> Any:
        attach(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        detach(self)


_LOCK = threading.Lock()
_ATTACHED: list[Instrument] = []
_DATA_SLOT = Tensor.__dict__["data"]
_MAKE = Tensor.__dict__["_make"]
_OPS: dict[str, tuple[Any, bool]] = {}  # every op ever wrapped: its original


def _users(hook: str) -> list[Instrument]:
    base = getattr(Instrument, hook)
    return [inst for inst in _ATTACHED if getattr(type(inst), hook) is not base]


def _run_closure(node: Tensor) -> None:
    node._backward(node.grad)


def _data_property(callbacks: list[Callable[..., None]]) -> property:
    slot = _DATA_SLOT

    def _set(tensor: Tensor, value: Any) -> None:
        try:
            previous = slot.__get__(tensor, Tensor)
        except AttributeError:
            previous = None
        slot.__set__(tensor, value)
        for callback in callbacks:
            callback(tensor, previous, value)

    return property(lambda tensor: slot.__get__(tensor, Tensor), _set)


def _scope_hook(users: list[Instrument]) -> Any:
    if len(users) == 1:
        return users[0].wrap_scope

    @contextlib.contextmanager
    def scoped(module: Any) -> Iterator[None]:
        with contextlib.ExitStack() as stack:
            for inst in reversed(users):  # the latest attached is outermost
                stack.enter_context(inst.wrap_scope(module))
            yield

    return scoped


def _internal_hook(users: list[Instrument]) -> Any:
    if len(users) == 1:
        return users[0].check_internal

    def check(data: np.ndarray, op_name: str) -> None:
        for inst in users:
            inst.check_internal(data, op_name)

    return check


def _rebuild() -> None:
    from ..nn import module as module_mod  # repro.nn imports this package

    layers: dict[str, list[tuple[Instrument, str]]] = {}
    for inst in _users("wrap_op"):
        for attr, op_name, is_static in inst.op_table:
            _OPS.setdefault(attr, (Tensor.__dict__[attr], is_static))
            layers.setdefault(attr, []).append((inst, op_name))
    for attr, (original, is_static) in _OPS.items():
        fn = composed = original.__func__ if is_static else original
        for inst, op_name in layers.get(attr, ()):
            composed = inst.wrap_op(composed, op_name)
        if composed is fn:
            composed = original
        elif is_static:
            composed = staticmethod(composed)
        if Tensor.__dict__[attr] is not composed:
            setattr(Tensor, attr, composed)

    make = _MAKE.__func__
    for inst in _users("wrap_make"):
        make = inst.wrap_make(make)
    setattr(Tensor, "_make", _MAKE if make is _MAKE.__func__ else staticmethod(make))
    callbacks = [inst.on_data_set for inst in _users("on_data_set")]
    setattr(Tensor, "data", _data_property(callbacks) if callbacks else _DATA_SLOT)

    hook = None
    for inst in _users("wrap_backward"):
        hook = functools.partial(inst.wrap_backward, inner=hook or _run_closure)
    _tensor_mod._BACKWARD_OP_HOOK = hook
    scopes, checks = _users("wrap_scope"), _users("check_internal")
    module_mod._FORWARD_SCOPE_HOOK = _scope_hook(scopes) if scopes else None
    _tensor_mod._INTERNAL_CHECK_HOOK = _internal_hook(checks) if checks else None


def attach(instrument: Instrument) -> None:
    """Make ``instrument`` the outermost layer of every hook point it uses.

    Raises ``RuntimeError`` if an instrument of the same ``exclusive`` class
    is attached.
    """
    kind = type(instrument)
    with _LOCK:
        if instrument in _ATTACHED or (
            kind.exclusive and any(type(inst) is kind for inst in _ATTACHED)
        ):
            raise RuntimeError(f"{kind.__name__} is already active; it does not nest with itself")
        _ATTACHED.append(instrument)
        _rebuild()


def detach(instrument: Instrument) -> None:
    """Remove ``instrument`` from every hook point, whatever the exit order."""
    with _LOCK:
        _ATTACHED.remove(instrument)
        _rebuild()
