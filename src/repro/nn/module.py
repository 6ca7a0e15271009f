"""Base classes for neural-network components: :class:`Parameter` and :class:`Module`.

The API deliberately mirrors ``torch.nn`` (``parameters()``, ``train()``,
``eval()``, ``state_dict()``) so the model code in :mod:`repro.core` and
:mod:`repro.baselines` reads like the original PyTorch implementations it
reproduces.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from ..tensor import Tensor, inference_mode

__all__ = ["Parameter", "Module"]

# Forward-scope hook, set only by repro.tensor.instrument (None when nothing
# is attached): Module.__call__ runs each forward inside the context manager
# it returns.  Disabled, it costs one global read per module call.
_FORWARD_SCOPE_HOOK = None


class Parameter(Tensor):
    """A tensor that is a trainable model weight (``requires_grad=True``)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_scope_name", None)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a submodule under an explicit name."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its submodules."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-path name, parameter) pairs for the whole tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield (dotted-path name, module) pairs for the whole tree.

        The root is yielded under ``prefix`` itself (empty string by
        default), mirroring ``torch.nn.Module.named_modules``.
        """
        yield (prefix, self)
        for name, module in self._modules.items():
            child = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(prefix=child)

    # ------------------------------------------------------------------
    # Profiler scope annotation
    # ------------------------------------------------------------------
    @property
    def scope_name(self) -> str:
        """Name the profiler files this module's forward time under.

        Defaults to the class name; override with :meth:`annotate_scope`
        (e.g. to the dotted path from :meth:`named_modules`).
        """
        explicit = getattr(self, "_scope_name", None)
        return explicit if explicit else type(self).__name__

    def annotate_scope(self, name: str) -> "Module":
        """Set an explicit profiler scope name; returns ``self`` for chaining."""
        object.__setattr__(self, "_scope_name", str(name))
        return self

    def num_parameters(self) -> int:
        """Total number of scalar weights (the 'model size')."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Put this module (and submodules) in training mode."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Put this module (and submodules) in evaluation mode."""
        return self.train(False)

    @contextlib.contextmanager
    def inference(self):
        """Serving context: eval mode plus the engine's inference mode.

        Switches the whole module tree to evaluation mode (dropout becomes
        the identity) and enters :func:`repro.tensor.inference_mode` (no
        graph recording) for the duration.  On exit, every submodule's
        previous ``training`` flag is restored exactly — a trainer that
        evaluates mid-run returns to its prior mode mix.
        """
        previous = [(module, module.training) for module in self.modules()]
        self.train(False)
        try:
            with inference_mode():
                yield self
        finally:
            for module, mode in previous:
                object.__setattr__(module, "training", mode)

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """A name -> array snapshot of all parameters (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = state[name]
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.shape}")
            param.copy_(value)

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module's output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        hook = _FORWARD_SCOPE_HOOK
        if hook is None:
            return self.forward(*args, **kwargs)
        with hook(self):
            return self.forward(*args, **kwargs)
