"""Recurrent layers: GRU (Eq. 10 of the paper) and LSTM (FC-LSTM baseline).

Sequence layout is batch-first ``(batch, time, features)``.  Spatial models
fold the node axis into the batch axis before calling these layers, which is
exactly the "all the nodes are calculated individually in parallel" treatment
described in Sec. 5.2.
"""

from __future__ import annotations

from ..tensor import Tensor
from . import init
from .module import Module, Parameter

__all__ = ["GRUCell", "GRU", "LSTMCell", "LSTM"]


class GRUCell(Module):
    """Single-step gated recurrent unit (Cho et al. 2014; paper Eq. 10).

    The nine gate parameters stay separate, so state dicts keep their keys;
    :meth:`stacked` concatenates them into the operands of the fused
    :meth:`~repro.tensor.Tensor.gru_cell` step.  Loops over time stack once
    and hand the result to every step.
    """

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_z = Parameter(init.xavier_uniform(input_dim, hidden_dim))
        self.u_z = Parameter(init.xavier_uniform(hidden_dim, hidden_dim))
        self.b_z = Parameter(init.zeros(hidden_dim))
        self.w_r = Parameter(init.xavier_uniform(input_dim, hidden_dim))
        self.u_r = Parameter(init.xavier_uniform(hidden_dim, hidden_dim))
        self.b_r = Parameter(init.zeros(hidden_dim))
        self.w_h = Parameter(init.xavier_uniform(input_dim, hidden_dim))
        self.u_h = Parameter(init.xavier_uniform(hidden_dim, hidden_dim))
        self.b_h = Parameter(init.zeros(hidden_dim))

    def stacked(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """``([W_z|W_r|W_h], [U_z|U_r|U_h], [b_z|b_r], b_h)``, the gate
        parameters in the layout :meth:`~repro.tensor.Tensor.gru_cell` takes."""
        return (
            Tensor.concatenate([self.w_z, self.w_r, self.w_h], axis=1),
            Tensor.concatenate([self.u_z, self.u_r, self.u_h], axis=1),
            Tensor.concatenate([self.b_z, self.b_r]),
            self.b_h,
        )

    def forward(
        self, x: Tensor, h: Tensor, stacked: tuple[Tensor, ...] | None = None
    ) -> Tensor:
        """Advance the hidden state by one time step.

        ``x``: (batch, input_dim); ``h``: (batch, hidden_dim).  ``stacked``
        is a :meth:`stacked` result shared across the steps of a loop; when
        omitted, this step stacks the parameters itself.
        """
        return x.gru_cell(h, *(stacked if stacked is not None else self.stacked()))


class GRU(Module):
    """Unrolled GRU over a batch-first sequence.

    Returns the full hidden-state sequence ``(batch, time, hidden)`` and the
    final state — both are needed: the inherent model feeds the sequence to
    self-attention, and its forecast branch continues from the final state.
    """

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.cell = GRUCell(input_dim, hidden_dim)

    def forward(self, x: Tensor, h0: Tensor | None = None) -> tuple[Tensor, Tensor]:
        batch, steps, _ = x.shape
        h = h0 if h0 is not None else Tensor.zeros((batch, self.hidden_dim))
        stacked = self.cell.stacked()
        outputs = []
        for t in range(steps):
            h = self.cell(x[:, t, :], h, stacked)
            outputs.append(h)
        return Tensor.stack(outputs, axis=1), h


class LSTMCell(Module):
    """Single-step LSTM (Hochreiter & Schmidhuber), for the FC-LSTM baseline."""

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # One fused weight per source keeps the op count (and tape) small:
        # gates are [input, forget, cell, output] stacked on the last axis.
        self.w = Parameter(init.xavier_uniform(input_dim, 4 * hidden_dim))
        self.u = Parameter(init.xavier_uniform(hidden_dim, 4 * hidden_dim))
        self.b = Parameter(init.zeros(4 * hidden_dim))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = x @ self.w + h @ self.u + self.b
        d = self.hidden_dim
        i = gates[:, 0 * d : 1 * d].sigmoid()
        f = gates[:, 1 * d : 2 * d].sigmoid()
        g = gates[:, 2 * d : 3 * d].tanh()
        o = gates[:, 3 * d : 4 * d].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class LSTM(Module):
    """Unrolled LSTM over a batch-first sequence."""

    def __init__(self, input_dim: int, hidden_dim: int) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.cell = LSTMCell(input_dim, hidden_dim)

    def forward(
        self,
        x: Tensor,
        state: tuple[Tensor, Tensor] | None = None,
        *,
        return_sequence: bool = True,
    ) -> tuple[Tensor | None, tuple[Tensor, Tensor]]:
        """Unroll over ``x``; returns ``(sequence, (h, c))``.

        Callers that only continue from the final state (the FC-LSTM
        encoder) pass ``return_sequence=False`` and get ``None`` instead of
        the stacked sequence — stacking hidden states nobody reads is dead
        compute the tape audit (rule T003) rejects.
        """
        batch, steps, _ = x.shape
        if state is None:
            h = Tensor.zeros((batch, self.hidden_dim))
            c = Tensor.zeros((batch, self.hidden_dim))
        else:
            h, c = state
        outputs = []
        for t in range(steps):
            h, c = self.cell(x[:, t, :], (h, c))
            if return_sequence:
                outputs.append(h)
        sequence = Tensor.stack(outputs, axis=1) if return_sequence else None
        return sequence, (h, c)
