"""Dynamic graph learning (Sec. 5.3, Eqs. 13-14).

The static transitions ``P_f``/``P_b`` encode road topology but not the
time-varying intensity of diffusion (Fig. 2(c)).  This module learns a
per-sample multiplicative mask over them from three information sources the
paper insists must *all* be used: the current traffic observations (dynamic),
the node embeddings (static), and the time-slot embeddings (time):

    DF^u = Concat[ FC(X), T^D_t, T^W_t, E^u ]
    P_f^dy = P_f ⊙ softmax( (DF^u W^Q)(DF^u W^K)^T / sqrt(d) )

Given the limited window ``T_h``, one matrix per sample is computed (the
paper's cost-saving assumption that ``P^dy`` is static within a window); the
window's last time step provides the time embeddings.
"""

from __future__ import annotations

import math

import numpy as np

from .. import nn
from ..tensor import Tensor, functional as F

__all__ = ["DynamicGraphLearner"]


class DynamicGraphLearner(nn.Module):
    """Produce dynamic transition matrices ``(P_f^dy, P_b^dy)``.

    ``per_step=False`` (paper default): one matrix per sample, shape
    (B, N, N) — the cost-saving approximation "given a limited time range
    T_h, P^dy is static".  ``per_step=True``: the exact formulation with one
    matrix per time step, shape (B, T, N, N) — quadratically more expensive,
    provided so the approximation's cost/accuracy trade-off can be measured
    (see ``benchmarks/bench_ablation_dynamic_graph.py``).
    """

    def __init__(
        self, history: int, hidden_dim: int, embed_dim: int, per_step: bool = False
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        self.per_step = per_step
        if per_step:
            # Per-step features come from that step's observation alone.
            self.feature_fc = nn.MLP([hidden_dim, hidden_dim, embed_dim])
        else:
            # FC(·) of Eq. 13: flattened per-node history -> embed_dim features.
            self.feature_fc = nn.MLP([history * hidden_dim, hidden_dim, embed_dim])
        feature_dim = 4 * embed_dim
        self.w_q = nn.Linear(feature_dim, embed_dim, bias=False)
        self.w_k = nn.Linear(feature_dim, embed_dim, bias=False)

    def _shared_features(
        self, x: Tensor, t_day: Tensor, t_week: Tensor
    ) -> tuple[list[Tensor], tuple[int, ...]]:
        """The blocks of ``DF`` both directions share — ``FC(X)``, ``T^D``,
        ``T^W`` — and the feature-block shape (B, N, e), or (B, T, N, e)
        when per-step."""
        batch, steps, num_nodes, dim = x.shape
        if self.per_step:
            dynamic = self.feature_fc(x)  # (B, T, N, e)
            shape = (batch, steps, num_nodes, self.embed_dim)
            day = t_day.expand_dims(2).broadcast_to(shape)
            week = t_week.expand_dims(2).broadcast_to(shape)
            return [dynamic, day, week], shape
        history = x.transpose(0, 2, 1, 3).reshape(batch, num_nodes, steps * dim)
        dynamic = self.feature_fc(history)  # (B, N, e)
        shape = (batch, num_nodes, self.embed_dim)
        last_day = t_day[:, steps - 1].expand_dims(1).broadcast_to(shape)
        last_week = t_week[:, steps - 1].expand_dims(1).broadcast_to(shape)
        return [dynamic, last_day, last_week], shape

    @staticmethod
    def _dynamic_features(
        shared: list[Tensor], shape: tuple[int, ...], node_embedding: Tensor
    ) -> Tensor:
        """Assemble ``DF`` from the shared blocks and one node embedding."""
        static = node_embedding
        for _ in range(len(shape) - static.ndim):
            static = static.expand_dims(0)
        return Tensor.concatenate(shared + [static.broadcast_to(shape)], axis=-1)

    def _mask(self, features: Tensor) -> Tensor:
        q = self.w_q(features)
        k = self.w_k(features)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.embed_dim))
        return F.softmax(scores, axis=-1)  # (B, [T,] N, N)

    def forward(
        self,
        x: Tensor,
        t_day: Tensor,
        t_week: Tensor,
        node_source: Tensor,
        node_target: Tensor,
        p_forward: np.ndarray,
        p_backward: np.ndarray,
    ) -> tuple[Tensor, Tensor]:
        """Return dynamic transitions, each (B, N, N).

        ``x``: latent input (B, T, N, d); ``t_day``/``t_week``: (B, T, e)
        time embeddings; ``node_source``/``node_target``: (N, e);
        ``p_forward``/``p_backward``: the static road-network transitions.
        """
        shared, shape = self._shared_features(x, t_day, t_week)
        df_u = self._dynamic_features(shared, shape, node_source)
        df_d = self._dynamic_features(shared, shape, node_target)
        p_f_dy = Tensor(p_forward) * self._mask(df_u)
        p_b_dy = Tensor(p_backward) * self._mask(df_d)
        return p_f_dy, p_b_dy
