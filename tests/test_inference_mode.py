"""The engine's inference mode: no recording, same numbers."""

import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.tensor import (
    Tensor,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
)
from repro.training import evaluate_split


class TestContext:
    def test_flags_inside_and_outside(self):
        assert is_grad_enabled() and not is_inference_mode()
        with inference_mode():
            assert not is_grad_enabled()
            assert is_inference_mode()
        assert is_grad_enabled() and not is_inference_mode()

    def test_restores_flags_on_exception(self):
        with pytest.raises(RuntimeError):
            with inference_mode():
                raise RuntimeError("boom")
        assert is_grad_enabled() and not is_inference_mode()

    def test_nests_inside_no_grad(self):
        with no_grad():
            with inference_mode():
                assert is_inference_mode()
            assert not is_grad_enabled()  # outer no_grad still active
        assert is_grad_enabled()

    def test_modes_are_per_thread(self):
        """Two threads whose inference blocks overlap and exit out of order
        must each get back their own flags."""
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def serve():
            with inference_mode():
                entered.set()
                release.wait(10)
            seen["after"] = (is_grad_enabled(), is_inference_mode())

        thread = threading.Thread(target=serve)
        thread.start()
        assert entered.wait(10)
        assert is_grad_enabled() and not is_inference_mode()  # not the other thread's
        with inference_mode():
            release.set()
            thread.join(timeout=10)
            assert is_inference_mode()
        assert not thread.is_alive()
        assert is_grad_enabled() and not is_inference_mode()
        assert seen["after"] == (True, False)

    def test_no_graph_is_built(self):
        a = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        with inference_mode():
            out = (a * 2.0).sum()
        assert not out.requires_grad


class TestTapeIsolation:
    def test_pending_training_tape_survives(self, tiny_data):
        # A forward awaiting backward must not be perturbed by an inference
        # forward in between (the hot-swap-while-training scenario).
        model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
        batch = next(iter(tiny_data.loader("train", batch_size=4, shuffle=False)))
        loss = model(batch.x, batch.tod, batch.dow).sum()
        with inference_mode():
            model(batch.x, batch.tod, batch.dow)
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())


class TestMetricsUnchanged:
    def test_evaluate_split_matches_no_grad_path(self, tiny_data):
        model, _ = build_model("STGCN", tiny_data, hidden=8, layers=1)
        under_inference = evaluate_split(model, tiny_data, split="val")
        # Reference: the same streaming evaluation under plain no_grad.
        model.eval()
        with no_grad():
            from repro.training.evaluation import HorizonAccumulator

            accumulator = HorizonAccumulator(0.0)
            for batch in tiny_data.loader("val", batch_size=64, shuffle=False):
                out = model(batch.x, batch.tod, batch.dow)
                prediction = tiny_data.scaler.inverse_transform(out.numpy())
                accumulator.update(prediction, batch.y)
            reference = accumulator.compute()
        assert under_inference["avg"] == reference
