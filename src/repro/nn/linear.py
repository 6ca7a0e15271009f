"""Fully connected layers and small MLP stacks.

``Linear`` applies to the trailing dimension of an input of any rank, which
is the convention used throughout the paper (traffic tensors are
``(batch, time, node, channel)`` and weights act on ``channel``).
"""

from __future__ import annotations

from ..tensor import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b`` on the last axis.

    Parameters
    ----------
    in_features, out_features:
        Sizes of the trailing axis before and after.
    bias:
        Whether to add the learned offset.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(in_features, out_features))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return Tensor._coerce(x).linear(self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class MLP(Module):
    """A stack of Linear layers with ReLU between them (not after the last).

    This is the "non-linear two-layer fully connected network" the paper uses
    for the regression head, the estimation gate, and the dynamic-feature
    extractor (Sec. 4.2, 5.3, 5.4).
    """

    def __init__(self, dims: list[int], bias: bool = True, final_activation: bool = False) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output dimension")
        self.layers = [Linear(a, b, bias=bias) for a, b in zip(dims[:-1], dims[1:])]
        for i, layer in enumerate(self.layers):
            self.register_module(f"layer{i}", layer)
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1 or self.final_activation:
                x = x.relu()
        return x
