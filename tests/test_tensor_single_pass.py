"""Single-pass primitives: ``Tensor.linear``, ``Tensor.softmax`` and the
branch-free stable sigmoid, each against the formula it replaced."""

import numpy as np
import pytest

from repro import nn
from repro.check import AnomalyError, detect_anomaly
from repro.core import DynamicGraphLearner
from repro.obs import Profiler
from repro.tensor import Tensor, gradcheck
from repro.tensor.tensor import _stable_sigmoid


def where_sigmoid(x):
    """The ``np.where`` select ``_stable_sigmoid`` used before."""
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    d = t + 1.0
    np.divide(t, d, out=t)
    np.divide(1.0, d, out=d)
    return np.where(x >= 0, d, t).astype(x.dtype, copy=False)


def composite_softmax(x, axis=-1):
    """The composite ``F.softmax`` used before: detached max shift, exp, divide."""
    shift = np.max(x.data, axis=axis, keepdims=True)
    exps = (x - Tensor(shift)).exp()
    return exps / exps.sum(axis=axis, keepdims=True)


class TestBranchFreeSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_where_select(self, dtype, rng):
        info = np.finfo(dtype)
        special = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e38, -1e38, 1.0, -1.0,
             88.7, -88.7, 709.0, -709.0, info.max, -info.max, info.tiny,
             -info.tiny, info.eps, -info.eps],
            dtype=dtype,
        )
        spread = (rng.normal(size=4096) * 10.0 ** rng.integers(-8, 3, 4096)).astype(dtype)
        for x in (special, spread, spread.reshape(64, 64)):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _stable_sigmoid(x), where_sigmoid(x)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_softplus_derivative_is_the_sigmoid(self, rng):
        x = Tensor(rng.normal(size=(5, 7)).astype(np.float32) * 4.0, requires_grad=True)
        x.softplus().sum().backward()
        np.testing.assert_array_equal(x.grad, where_sigmoid(x.data))


class TestSoftmax:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_gradcheck(self, axis, rng):
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 4, 5)))
        assert gradcheck(lambda t: (t.softmax(axis) * weights).sum(), [x])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_the_composite(self, axis, rng):
        data = (rng.normal(size=(6, 7, 12)) * 3.0).astype(np.float32)
        weights = rng.normal(size=data.shape).astype(np.float32)
        x1 = Tensor(data, requires_grad=True)
        x2 = Tensor(data, requires_grad=True)
        y1 = x1.softmax(axis)
        y2 = composite_softmax(x2, axis)
        np.testing.assert_allclose(y1.data, y2.data, rtol=1e-6, atol=0)
        (y1 * Tensor(weights)).sum().backward()
        (y2 * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=1e-5, atol=1e-7)

    def test_stable_on_large_logits(self):
        x = Tensor(np.array([1000.0, 1000.0], dtype=np.float32), requires_grad=True)
        y = x.softmax(0)
        np.testing.assert_array_equal(y.data, [0.5, 0.5])
        y[0].backward()
        assert np.isfinite(x.grad).all()
        np.testing.assert_allclose(x.grad, [0.25, -0.25])

    def test_batched_attention_equals_single(self, rng):
        attention = nn.MultiHeadSelfAttention(8, num_heads=2)
        x = rng.normal(size=(5, 12, 8)).astype(np.float32)
        batched = attention(Tensor(x)).data
        for i in range(len(x)):
            single = attention(Tensor(x[i:i + 1])).data
            assert np.array_equal(batched[i:i + 1], single)


class TestLinear:
    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_forward_bit_equal_to_matmul_plus_bias(self, shape, bias, rng):
        x = Tensor(rng.normal(size=shape).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        b = Tensor(rng.normal(size=6).astype(np.float32)) if bias else None
        expected = x @ w + b if bias else x @ w
        assert np.array_equal(x.linear(w, b).data, expected.data)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4)])
    def test_gradcheck(self, shape, rng):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        assert gradcheck(lambda a, v, c: a.linear(v, c).tanh().sum(), [x, w, b])

    def test_layer_is_one_op(self, rng):
        layer = nn.Linear(4, 3)
        x = Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32), requires_grad=True)
        with Profiler() as prof:
            layer(x).sum().backward()
        assert prof.ops[("linear", "forward")].count == 1
        assert prof.ops[("linear", "backward")].count == 1
        assert ("matmul", "forward") not in prof.ops
        assert ("add", "forward") not in prof.ops


class TestAnomalyNamesThePrimitives:
    def test_linear(self):
        w = Tensor(np.full((4, 3), 3e38, np.float32))
        x = Tensor(np.ones((2, 4), np.float32))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AnomalyError, match="op 'linear'"):
                with detect_anomaly():
                    x.linear(w)

    def test_softmax(self):
        x = Tensor(np.array([[np.inf, 1.0]], np.float32))
        with np.errstate(invalid="ignore"):
            with pytest.raises(AnomalyError, match="op 'softmax'"):
                with detect_anomaly():
                    x.softmax(-1)


class TestGraphLearnerSharedFeatures:
    """``DF^u`` and ``DF^d`` share ``FC(X)`` and the time blocks (Eq. 13)."""

    @staticmethod
    def _inputs(rng, T=4, N=5, D=6):
        x = Tensor(rng.normal(size=(2, T, N, D)).astype(np.float32))
        t_day = Tensor(rng.normal(size=(2, T, D)).astype(np.float32))
        t_week = Tensor(rng.normal(size=(2, T, D)).astype(np.float32))
        source = Tensor(rng.normal(size=(N, D)).astype(np.float32))
        target = Tensor(rng.normal(size=(N, D)).astype(np.float32))
        p = np.abs(rng.normal(size=(N, N))).astype(np.float32)
        return x, t_day, t_week, source, target, p, p.T.copy()

    @staticmethod
    def _two_call(learner, x, t_day, t_week, source, target, p_f, p_b):
        """The forward as it was: every direction builds its own features."""
        df_u = learner._dynamic_features(*learner._shared_features(x, t_day, t_week), source)
        df_d = learner._dynamic_features(*learner._shared_features(x, t_day, t_week), target)
        return Tensor(p_f) * learner._mask(df_u), Tensor(p_b) * learner._mask(df_d)

    @pytest.mark.parametrize("per_step", [False, True])
    def test_bit_equal_to_two_calls_with_fewer_ops(self, per_step, rng):
        inputs = self._inputs(rng)
        learner = DynamicGraphLearner(history=4, hidden_dim=6, embed_dim=6, per_step=per_step)
        with Profiler() as shared:
            got = learner(*inputs)
        with Profiler() as separate:
            want = self._two_call(learner, *inputs)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)

        def forward_ops(prof):
            return sum(s.count for (_, phase), s in prof.ops.items() if phase == "forward")

        assert forward_ops(shared) < forward_ops(separate)
