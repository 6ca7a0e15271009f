"""Registry of the engine's primitive-op surface.

One table, the default op set of every instrument that wraps ops through
:mod:`repro.tensor.instrument` (zero overhead when nothing is attached):

* the op-level profiler (:mod:`repro.obs.profiler`) wraps each entry in a
  timed closure;
* the anomaly sanitizer (:mod:`repro.check.sanitizers`) wraps each entry in
  a NaN/Inf check that names the offending op;
* the activation fault injector (:mod:`repro.faults.injectors`) wraps the
  one entry it poisons.

Each entry is ``(attribute on Tensor, recorded op name, is_staticmethod)``.
Reflexive dunders (``__radd__`` etc.) alias the same underlying function but
are looked up as distinct class attributes, so they are listed separately.
"""

from __future__ import annotations

__all__ = ["TENSOR_OPS"]

TENSOR_OPS: tuple[tuple[str, str, bool], ...] = (
    ("__add__", "add", False),
    ("__radd__", "add", False),
    ("__sub__", "sub", False),
    ("__rsub__", "sub", False),
    ("__mul__", "mul", False),
    ("__rmul__", "mul", False),
    ("__truediv__", "div", False),
    ("__rtruediv__", "div", False),
    ("__neg__", "neg", False),
    ("__pow__", "pow", False),
    ("__matmul__", "matmul", False),
    ("__rmatmul__", "matmul", False),
    ("linear", "linear", False),
    ("gru_cell", "gru_cell", False),
    ("__getitem__", "getitem", False),
    ("exp", "exp", False),
    ("log", "log", False),
    ("sqrt", "sqrt", False),
    ("tanh", "tanh", False),
    ("sigmoid", "sigmoid", False),
    ("relu", "relu", False),
    ("abs", "abs", False),
    ("leaky_relu", "leaky_relu", False),
    ("clip", "clip", False),
    ("softplus", "softplus", False),
    ("gelu", "gelu", False),
    ("softmax", "softmax", False),
    ("sum", "sum", False),
    ("mean", "mean", False),
    ("max", "max", False),
    ("min", "min", False),
    ("reshape", "reshape", False),
    ("transpose", "transpose", False),
    ("swapaxes", "swapaxes", False),
    ("expand_dims", "expand_dims", False),
    ("squeeze", "squeeze", False),
    ("broadcast_to", "broadcast", False),
    ("pad_axis", "pad", False),
    ("split", "split", False),
    ("concatenate", "concat", True),
    ("stack", "stack", True),
    ("where", "where", True),
)
