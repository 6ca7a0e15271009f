"""Bit-identity of the engine fast paths and the vectorized batch gather.

The in-place / fast-scatter backward paths, the gradient buffer pool and
the sliding-window-view gather are pure performance work: they must
produce *exactly* the same bytes as their reference implementations.
``allclose`` is not good enough here — the kill-and-resume equivalence
contract compares training histories bit-for-bit, so any reordered float
summation would surface as a spurious resume mismatch.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.data import build_forecasting_data, load_dataset
from repro.data.windows import BatchIterator, WindowDataset
from repro import nn
from repro.models import build_model
from repro.obs import FAST_CONFIG, REFERENCE_CONFIG
from repro.optim import Adam, clip_grad_norm
from repro.tensor import tensor as engine
from repro.tensor import (
    Tensor,
    backward_tape_stats,
    configure_fast_backward,
    fast_backward_config,
    functional as F,
    reference_backward,
)
from repro.utils.seed import set_seed

# Models chosen to cover the structures that stress the fast paths: the
# paper model (gated graph convolutions + attention), a pure RNN
# encoder-decoder (whose decoder loop exposed grad-buffer layout bugs), a
# dilated-conv stack and a diffusion RNN.
MODELS = ("D2STGNN", "FC-LSTM", "GraphWaveNet", "DCRNN")


@pytest.fixture(autouse=True)
def _restore_engine_config():
    previous = fast_backward_config()
    yield
    configure_fast_backward(**previous)


def _train_steps(name, data, config, steps=2, recycle=True):
    """Run ``steps`` deterministic optimisation steps under ``config``.

    Returns (grads, params) as raw bytes; both must match across engine
    configurations for the fast paths to be safe.  ``recycle=False`` empties
    the gradient buffer pool before every backward, so each first
    accumulation allocates instead of copying into a recycled buffer.
    """
    configure_fast_backward(**config)
    set_seed(0)
    model, _ = build_model(name, data, hidden=8, layers=1)
    optimizer = Adam(model.parameters(), lr=1e-3)
    scaler = data.scaler
    iterator = iter(data.loader("train", batch_size=16, shuffle=False))
    for _ in range(steps):
        batch = next(iterator)
        optimizer.zero_grad()
        prediction = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
        loss = F.masked_mae_loss(prediction, Tensor(batch.y))
        if not recycle:
            engine._GRAD_POOL.clear()
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
    grads = [p.grad.tobytes() for p in model.parameters()]
    params = [p.data.tobytes() for p in model.parameters()]
    return grads, params


def _backward(model, data, batch):
    for p in model.parameters():
        p.grad = None
    scaler = data.scaler
    out = model(batch.x, batch.tod, batch.dow) * scaler.std + scaler.mean
    F.masked_mae_loss(out, Tensor(batch.y)).backward()


def _pooled_shapes():
    return sorted(
        (shape, str(dtype))
        for (shape, dtype), free in engine._GRAD_POOL.items()
        for _ in free
    )


class TestBackwardFastPaths:
    @pytest.mark.parametrize("name", MODELS)
    def test_grads_and_updates_bit_identical(self, name, tiny_data):
        fast = _train_steps(name, tiny_data, FAST_CONFIG)
        reference = _train_steps(name, tiny_data, REFERENCE_CONFIG)
        assert fast[0] == reference[0], f"{name}: gradients diverged"
        assert fast[1] == reference[1], f"{name}: parameter updates diverged"


class TestGradientPool:
    @pytest.mark.parametrize("name", MODELS)
    def test_recycling_is_bit_identical(self, name, tiny_data):
        pooled = _train_steps(name, tiny_data, FAST_CONFIG)
        fresh = _train_steps(name, tiny_data, FAST_CONFIG, recycle=False)
        assert pooled[0] == fresh[0], f"{name}: gradients diverged"
        assert pooled[1] == fresh[1], f"{name}: parameter updates diverged"

    def test_second_backward_reuses_buffers(self, tiny_data):
        set_seed(0)
        model, _ = build_model("GraphWaveNet", tiny_data, hidden=8, layers=1)
        batch = tiny_data.train.gather(np.arange(16))
        _backward(model, tiny_data, batch)
        before = backward_tape_stats()
        _backward(model, tiny_data, batch)
        after = backward_tape_stats()
        assert after["hits"] > before["hits"]
        assert after["pooled_buffers"] > 0

    def test_pool_holds_only_the_last_step(self, tiny_data):
        set_seed(0)
        model, _ = build_model("GraphWaveNet", tiny_data, hidden=8, layers=1)
        large = tiny_data.train.gather(np.arange(16))
        small = tiny_data.train.gather(np.arange(4))
        _backward(model, tiny_data, large)
        after_large = _pooled_shapes()
        _backward(model, tiny_data, small)
        after_small = _pooled_shapes()
        # The batch-16 step left buffers no batch-4 step uses ...
        assert set(after_large) - set(after_small)
        # ... and none of them survives: the pool is exactly what a steady
        # run of batch-4 steps holds.
        _backward(model, tiny_data, small)
        assert _pooled_shapes() == after_small
        assert backward_tape_stats()["pooled_buffers"] == len(after_small)

    def test_unbackpropagated_graph_is_freed(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((8, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        h = (x @ w).tanh()
        alive = weakref.ref(h.data)
        loss = (h * 2).sum()
        del h, loss
        gc.collect()
        assert alive() is None


def _fast_and_reference(build):
    """Run ``build()`` (forward + backward, returns arrays) on both paths;
    the bytes must match, so a -0.0 against a +0.0 fails."""
    fast = build()
    with reference_backward():
        reference = build()
    for got, want in zip(fast, reference, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    return fast


class TestSliceAccumulate:
    """The getitem backward adds each duplicate-free slice straight into the
    parent's gradient; every case must equal the zero-fill-and-add
    reference."""

    def test_many_slices_of_one_tensor(self, rng, monkeypatch):
        data = rng.normal(size=(6, 12, 5)).astype(np.float32)
        scale = rng.normal(size=(12, 5)).astype(np.float32)
        zero_fills = []
        zeros_like = np.zeros_like

        def counting_zeros_like(*args, **kwargs):
            zero_fills.append(fast_backward_config()["scatter"])
            return zeros_like(*args, **kwargs)

        def build():
            x = Tensor(data, requires_grad=True)
            y = x * 1.0  # an op node: its gradient buffer comes from the pool
            loss = Tensor.stack([(y[:, t, :] * scale[t]).tanh() for t in range(12)])
            loss.sum().backward()
            return [x.grad]

        build()  # leaves one step's buffers on the pool
        before = backward_tape_stats()
        monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
        _fast_and_reference(build)
        after = backward_tape_stats()
        assert after["hits"] > before["hits"]
        # Every slice after the first adds in place: no full-size zero fill,
        # where the reference fills one per slice.
        assert zero_fills.count(True) == 0
        assert zero_fills.count(False) == 12

    @pytest.mark.parametrize("slices_first", [True, False])
    def test_negative_zero_from_another_consumer(self, slices_first):
        # The mul consumer leaves -0.0 in y's gradient where the slices do
        # not reach; the reference's + 0.0 turns it into +0.0, and so must
        # the fast path, whichever consumer runs first.
        data = np.arange(8, dtype=np.float32).reshape(4, 2)
        sign = np.array([[1.0, -0.0], [-0.0, 2.0], [-0.0, -0.0], [3.0, -0.0]], np.float32)

        def build():
            x = Tensor(data, requires_grad=True)
            y = x * 1.0
            terms = [y[0:1].sum(), y[1, :].sum(), (y * sign).sum()]
            if not slices_first:
                terms.reverse()
            sum(terms[1:], start=terms[0]).backward()
            return [x.grad]

        (grad,) = _fast_and_reference(build)
        assert not np.signbit(grad).any()

    def test_leaf_gradient_holding_negative_zero(self):
        def build():
            x = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
            x.grad = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]], np.float32)
            x[1:2].sum().backward()
            x[2].sum().backward()
            return [x.grad]

        (grad,) = _fast_and_reference(build)
        assert grad.tobytes() == np.array(
            [[0.0, 1.0], [1.0, 1.0], [3.0, 1.0]], np.float32).tobytes()

    def test_first_slice_allocates_when_the_pool_is_empty(self, rng):
        data = rng.normal(size=(4, 3)).astype(np.float32)

        def misses():
            x = Tensor(data, requires_grad=True)
            engine._GRAD_POOL.clear()
            before = backward_tape_stats()["misses"]
            x[1:3].sum().backward()
            np.testing.assert_array_equal(x.grad, [[0] * 3, [1] * 3, [1] * 3, [0] * 3])
            return backward_tape_stats()["misses"] - before

        fast = misses()
        with reference_backward():
            reference = misses()
        assert fast == reference + 1  # the zeroed buffer counts as a miss

    def test_leaf_with_gradient_from_an_earlier_backward(self, rng):
        data = rng.normal(size=(5, 4)).astype(np.float32)

        def build():
            x = Tensor(data, requires_grad=True)
            (x * x).sum().backward()
            for i in range(5):
                (x[i] * float(i + 1)).sum().backward()
            (x[1:4, ::2] * 3.0).sum().backward()
            return [x.grad]

        _fast_and_reference(build)

    @pytest.mark.parametrize("kind", ["broadcast", "read-only"])
    def test_unwritable_parent_grad_takes_the_fallback(self, kind, rng):
        def build():
            x = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
            piece = x[1:3]
            if kind == "broadcast":
                x.grad = np.broadcast_to(np.float32(0.5), x.shape)
            else:
                x.grad = np.full(x.shape, 0.5, np.float32)
                x.grad.flags.writeable = False
            held = x.grad
            piece._backward(np.ones(piece.shape, np.float32))
            assert x.grad is not held and x.grad.flags.writeable
            return [x.grad]

        (grad,) = _fast_and_reference(build)
        np.testing.assert_array_equal(grad, [[0.5] * 3, [1.5] * 3, [1.5] * 3, [0.5] * 3])

    def test_integer_array_index_keeps_add_at(self, rng):
        data = rng.normal(size=(4, 3)).astype(np.float32)

        def build():
            x = Tensor(data, requires_grad=True)
            x[np.array([0, 2, 0, 0])].sum().backward()
            return [x.grad]

        (grad,) = _fast_and_reference(build)
        np.testing.assert_array_equal(grad[:, 0], [3, 0, 1, 0])

    def test_lstm(self, rng):
        data = rng.normal(size=(3, 7, 4)).astype(np.float32)

        def build():
            set_seed(0)
            lstm = nn.LSTM(4, 5)
            x = Tensor(data, requires_grad=True)
            seq, (h, _) = lstm(x)
            (seq.sum() + h.sum()).backward()
            return [x.grad] + [p.grad for p in lstm.parameters()]

        _fast_and_reference(build)

    def test_split(self, rng):
        data = rng.normal(size=(4, 6, 3)).astype(np.float32)

        def build():
            x = Tensor(data, requires_grad=True)
            pieces = (x * 2.0).split(3, axis=1)
            sum(((p * float(i + 1)).exp() for i, p in enumerate(pieces)),
                start=Tensor(0.0)).sum().backward()
            return [x.grad]

        _fast_and_reference(build)


class TestVectorizedGather:
    @pytest.mark.parametrize("preset", ["metr-la-sim", "pems08-sim"])
    def test_bitwise_equal_to_loop(self, preset):
        data = build_forecasting_data(load_dataset(preset, num_nodes=6, num_steps=200))
        dataset = data.windows
        assert dataset._views is not None
        rng = np.random.default_rng(3)
        indices = rng.integers(0, len(dataset), size=40)
        fast = dataset.gather(indices)
        loop = dataset.gather_loop(indices)
        for field in ("x", "y", "tod", "dow"):
            a, b = getattr(fast, field), getattr(loop, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), field
            assert a.flags.c_contiguous

    def test_time_channel_inputs(self, tiny_dataset):
        data = build_forecasting_data(tiny_dataset, time_channels=True)
        indices = np.arange(10)
        fast = data.windows.gather(indices)
        loop = data.windows.gather_loop(indices)
        assert fast.x.tobytes() == loop.x.tobytes()
        assert fast.x.shape[-1] == 3

    def test_subset_offsets(self, tiny_data):
        subset = tiny_data.val
        indices = np.arange(len(subset))[:8]
        fast = subset.gather(indices)
        loop = subset.dataset.gather_loop(indices + subset.start)
        assert fast.x.tobytes() == loop.x.tobytes()
        assert fast.y.tobytes() == loop.y.tobytes()

    def test_out_of_range_raises(self, tiny_data):
        dataset = tiny_data.windows
        with pytest.raises(IndexError):
            dataset.gather(np.array([len(dataset)]))
        with pytest.raises(IndexError):
            dataset.gather(np.array([-1]))

    def test_fallback_path_matches(self, tiny_data):
        """With views unavailable, gather must fall back to the loop."""
        dataset = tiny_data.windows
        indices = np.arange(12)
        expected = dataset.gather(indices)
        views, dataset._views = dataset._views, None
        try:
            fallback = dataset.gather(indices)
        finally:
            dataset._views = views
        assert fallback.x.tobytes() == expected.x.tobytes()
        assert fallback.y.tobytes() == expected.y.tobytes()

    def test_short_time_index_disables_views(self):
        """Time indices shorter than the series cannot be windowed."""
        values = np.arange(60.0, dtype=np.float32).reshape(30, 2)
        dataset = WindowDataset(
            values_scaled=values,
            values_raw=values,
            time_of_day=np.arange(5),
            day_of_week=np.arange(30),
            history=3,
            horizon=3,
        )
        assert dataset._views is None


class TestBatchIteratorRNG:
    def test_default_rng_streams_are_independent(self, tiny_data):
        set_seed(11)
        first = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        second = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        assert first.x.tobytes() != second.x.tobytes()

    def test_default_rng_is_seed_reproducible(self, tiny_data):
        set_seed(11)
        first = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        set_seed(11)
        replay = next(iter(BatchIterator(tiny_data.train, batch_size=16, shuffle=True)))
        assert first.x.tobytes() == replay.x.tobytes()

    def test_explicit_rng_still_wins(self, tiny_data):
        a = next(iter(BatchIterator(
            tiny_data.train, batch_size=16, shuffle=True, rng=np.random.default_rng(5)
        )))
        b = next(iter(BatchIterator(
            tiny_data.train, batch_size=16, shuffle=True, rng=np.random.default_rng(5)
        )))
        assert a.x.tobytes() == b.x.tobytes()
