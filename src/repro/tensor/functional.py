"""Composite differentiable functions built from :class:`~repro.tensor.Tensor` primitives.

Everything here is expressed in terms of the primitive ops defined on
``Tensor``, so gradients follow automatically; no function in this module
registers its own backward closure.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "relu",
    "sigmoid",
    "tanh",
    "mae_loss",
    "mse_loss",
    "masked_mae_loss",
    "huber_loss",
    "PROFILED_COMPOSITES",
]

# Composite functions the op-level profiler (repro.obs) wraps by name when
# active.  Their recorded time is *inclusive* of the primitive ops they call;
# the thin aliases (softmax/relu/sigmoid/tanh) are excluded since they add
# nothing over the primitive entry of the same name.
PROFILED_COMPOSITES = (
    "log_softmax",
    "mae_loss",
    "mse_loss",
    "masked_mae_loss",
    "huber_loss",
)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (alias for :meth:`Tensor.softmax`)."""
    return x.softmax(axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shift = np.max(x.data, axis=axis, keepdims=True)
    shifted = x - Tensor(shift)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def relu(x: Tensor) -> Tensor:
    """Alias for :meth:`Tensor.relu`."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Alias for :meth:`Tensor.sigmoid`."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Alias for :meth:`Tensor.tanh`."""
    return x.tanh()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error (Eq. 16 of the paper)."""
    return (prediction - target).abs().mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def masked_mae_loss(prediction: Tensor, target: Tensor, null_value: float = 0.0) -> Tensor:
    """MAE that ignores entries equal to ``null_value`` in the target.

    Traffic datasets encode missing observations as zeros (sensor failures in
    METR-LA, see Fig. 8 of the paper); standard practice (DCRNN, GWNet,
    D2STGNN) is to exclude them from the loss.
    """
    mask = (~np.isclose(target.data, null_value)).astype(target.dtype)
    denom = float(mask.sum())
    if denom == 0.0:
        return (prediction * 0.0).sum()
    weights = Tensor(mask / denom)
    return ((prediction - target).abs() * weights).sum()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss, used by some baselines (e.g. STSGCN variants)."""
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear = abs_diff * delta - (0.5 * delta * delta)
    return Tensor.where(abs_diff.data <= delta, quadratic, linear).mean()
