"""The fused GRU step (``Tensor.gru_cell``) against the composite Eq. 10 cell.

The composite cell below — six matmuls and ~20 elementwise ops per step —
is the implementation ``nn.GRUCell`` used before the fused primitive, kept
here as the reference the fused step must reproduce.
"""

import numpy as np
import pytest

from repro import nn
from repro.check import AnomalyError, detect_anomaly
from repro.core import D2STGNN, D2STGNNConfig
from repro.core.inherent_block import InherentBlock
from repro.faults import ActivationFault
from repro.obs import Profiler
from repro.tensor import Tensor, functional as F, gradcheck
from repro.tensor import tensor as tensor_mod
from repro.utils.seed import set_seed


def composite_forward(self, x, h, stacked=None):
    """Eq. 10 built from primitive ops, one matmul per gate and operand."""
    z = (x @ self.w_z + h @ self.u_z + self.b_z).sigmoid()
    r = (x @ self.w_r + h @ self.u_r + self.b_r).sigmoid()
    candidate = (x @ self.w_h + r * (h @ self.u_h + self.b_h)).tanh()
    return (1.0 - z) * h + z * candidate


@pytest.fixture()
def composite(monkeypatch):
    """Context switch: route every GRUCell through the composite cell."""
    def use():
        monkeypatch.setattr(nn.GRUCell, "forward", composite_forward)
    return use


def _randomize_biases(module, rng):
    # Zero-initialised biases would leave the bias paths untested.
    for name, param in module.named_parameters():
        if name.endswith(("b_z", "b_r", "b_h")):
            param.copy_(rng.normal(scale=0.5, size=param.shape))


class TestForwardMatchesComposite:
    def test_encoder_and_autoregressive_decode(self, rng, composite):
        """12 encoder steps then 12 fed-back decode steps (Sec. 5.2).

        Asserted allclose at rtol 1e-5.  On scipy-openblas 0.3.31 the two
        forwards are also bit-identical (a column block of the stacked GEMM
        rounds like the per-gate GEMM); that depends on the BLAS kernel, so
        only the tolerance is asserted.
        """
        block = InherentBlock(hidden_dim=16, num_heads=4, horizon=12)
        _randomize_biases(block, rng)
        x = Tensor(rng.normal(size=(2, 12, 5, 16)).astype(np.float32))
        fused = [out.numpy().copy() for out in block(x)]
        composite()
        reference = [out.numpy() for out in block(x)]
        for got, want in zip(fused, reference):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestBatchedRowsMatchSingleRows:
    @pytest.mark.parametrize("dim", [16, 32])  # the serving and train hidden sizes
    def test_gru_forward_rows_bit_identical(self, dim, rng):
        """Each row of a batched forward equals that row run alone: the gate
        math is elementwise and the GEMMs do not mix rows.  Asserted at the
        model's hidden sizes; at some small ones (H <= 8) a single-row
        forward can differ in the last bit, at the parent cell too."""
        gru = nn.GRU(dim, dim)
        for param in gru.parameters():
            param.copy_(rng.normal(scale=0.5, size=param.shape))
        x = rng.normal(size=(9, 12, dim)).astype(np.float32)
        seq, state = gru(Tensor(x))
        for row in range(len(x)):
            single_seq, single_state = gru(Tensor(x[row:row + 1]))
            assert np.array_equal(seq.numpy()[row:row + 1], single_seq.numpy())
            assert np.array_equal(state.numpy()[row:row + 1], single_state.numpy())


class TestGradientsMatchComposite:
    def test_gradcheck_with_random_biases(self, rng):
        cell = nn.GRUCell(3, 4)
        _randomize_biases(cell, rng)
        x = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        gradcheck(lambda *ts: cell(ts[0], ts[1]), [x, h] + cell.parameters())

    def test_d2stgnn_first_train_step(self, tiny_data, composite):
        """Every parameter gradient of one D²STGNN step, fused vs composite."""
        def first_step_grads():
            set_seed(0)
            config = D2STGNNConfig(
                num_nodes=tiny_data.adjacency.shape[0], steps_per_day=tiny_data.steps_per_day,
                hidden_dim=16, embed_dim=8, num_layers=2, num_heads=2, dropout=0.0,
            )
            model = D2STGNN(config, tiny_data.adjacency)
            batch = next(iter(tiny_data.loader("train", batch_size=8, shuffle=False)))
            scaler = tiny_data.scaler
            prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
            F.masked_mae_loss(prediction, Tensor(batch.y)).backward()
            return {name: p.grad.copy() for name, p in model.named_parameters()}

        fused = first_step_grads()
        composite()
        reference = first_step_grads()
        assert fused.keys() == reference.keys()
        gru_params = [name for name in fused if ".gru.cell." in name]
        assert len(gru_params) == 2 * 9  # 2 layers x 9 gate parameters
        for name in fused:
            np.testing.assert_allclose(fused[name], reference[name], rtol=1e-4, atol=1e-6,
                                       err_msg=name)


class TestOneOpPerStep:
    def test_gru_runs_one_op_per_step_and_no_matmul(self, rng):
        gru = nn.GRU(3, 4)
        x = Tensor(rng.normal(size=(2, 7, 3)).astype(np.float32), requires_grad=True)
        with Profiler() as prof:
            seq, _ = gru(x)
            seq.sum().backward()
        assert prof.ops[("gru_cell", "forward")].count == 7
        assert prof.ops[("gru_cell", "backward")].count == 7
        assert ("matmul", "forward") not in prof.ops
        # The three gate-major parameter stacks run once per sequence, not
        # once per step; the fourth stack is the output sequence.
        assert prof.ops[("stack", "forward")].count == 3 + 1
        assert ("concat", "forward") not in prof.ops

    def test_state_dict_keys_unchanged(self):
        keys = set(nn.GRU(2, 3).state_dict())
        assert keys == {f"cell.{p}_{g}" for p in "wub" for g in "zrh"}


class TestAnomalyGuardInsideTheStep:
    def _saturated_cell(self):
        # x @ W_z overflows to +inf, but sigmoid(+inf) = 1 keeps the output
        # finite: only a check on the step's internal products sees it.
        cell = nn.GRUCell(4, 3)
        cell.w_z.copy_(np.full((4, 3), 3e38, np.float32))
        x = Tensor(np.ones((2, 4), np.float32))
        return cell, x, Tensor.zeros((2, 3))

    def test_overflow_hidden_by_saturation_still_trips(self):
        cell, x, h = self._saturated_cell()
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(cell(x, h).numpy()).all()
            with pytest.raises(AnomalyError):
                with detect_anomaly():
                    cell(x, h)

    def test_trip_names_the_fused_op(self):
        cell, x, h = self._saturated_cell()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AnomalyError, match="op 'gru_cell'"):
                with detect_anomaly():
                    cell(x, h)
        assert tensor_mod._INTERNAL_CHECK_HOOK is None


class TestActivationFaultOnTheStep:
    def test_fault_accepts_and_poisons_gru_cell(self, rng):
        fault = ActivationFault(step=0, op="gru_cell")
        gru = nn.GRU(2, 3)
        x = Tensor(rng.normal(size=(1, 4, 2)).astype(np.float32))
        with fault.activation_context(0):
            seq, _ = gru(x)
        assert np.isnan(seq.numpy()).any()
        assert Tensor.gru_cell.__qualname__ == "Tensor.gru_cell"
        assert np.isfinite(gru(x)[0].numpy()).all()
