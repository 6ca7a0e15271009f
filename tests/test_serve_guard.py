"""The micro-batcher's batch-level NaN/Inf check against the per-op guard.

``MicroBatcher.run_batch`` checks each batch once (finite parameters,
finite input, no floating-point error, finite output) and re-runs only a
failed batch under :func:`repro.check.detect_anomaly`.  These tests pin
that this is exact: every poisoned parameter or input either raises the
same :class:`AnomalyError` as a forward under the guard, or returns the
same bytes; a clean batch never enters the guard; and the one-slot memo
of parameter finiteness follows version swaps.
"""

import numpy as np
import pytest

from repro.check.sanitizers import AnomalyError, detect_anomaly, set_event_sink
from repro.models import build_model
from repro.nn import Module, Parameter
from repro.obs import MemorySink
from repro.serve import (
    ForecastRequest,
    MicroBatcher,
    ModelRegistry,
    ServableBundle,
    ServeConfig,
    ServingEngine,
    SlidingWindowStore,
    make_servable,
)
from repro.tensor import Tensor
from repro.utils.seed import set_seed

POISONS = (np.inf, -np.inf, np.nan, 1e30)


@pytest.fixture(scope="module")
def bundle(tiny_data):
    set_seed(0)
    model, _ = build_model("D2STGNN", tiny_data, hidden=8, layers=1)
    return make_servable("D2STGNN", model, tiny_data, hidden=8, layers=1)


@pytest.fixture(scope="module")
def model(bundle):
    return bundle.instantiate()


@pytest.fixture(scope="module")
def request_(tiny_data, bundle):
    series = tiny_data.dataset.series
    history = bundle.spec.history
    return ForecastRequest(
        x=tiny_data.scaler.transform(series.values[:history])[None, :, :, None],
        tod=series.time_of_day[:history][None, :],
        dow=series.day_of_week[:history][None, :],
    )


def _guarded(model, request):
    """What a forward under the per-op guard does: its message or its bytes."""
    try:
        with model.inference(), detect_anomaly():
            return "output", model(request.x, request.tod, request.dow).numpy().tobytes()
    except AnomalyError as error:
        return "error", str(error)


def _served(model, request):
    """The same, through a fresh batcher (a fresh parameter memo)."""
    batcher = MicroBatcher(lambda: ("v1", model, None))
    try:
        return "output", batcher.run_batch([request])[0][0].tobytes()
    except AnomalyError as error:
        return "error", str(error)


class TestParityWithPerOpGuard:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_poisoned_parameter(self, model, request_):
        mismatches, raised = [], 0
        for name, param in model.named_parameters():
            flat = param.data.reshape(-1)
            original = flat[0].copy()
            for value in POISONS:
                flat[0] = value
                try:
                    expected, got = _guarded(model, request_), _served(model, request_)
                finally:
                    flat[0] = original
                raised += expected[0] == "error"
                if got != expected:
                    mismatches.append((name, value, expected[0], got[0]))
        assert mismatches == []
        assert raised > 0, "no poisoned parameter tripped the guard"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_poisoned_input(self, model, request_, value):
        x = request_.x.copy()
        x[0, 3, 1, 0] = value
        poisoned = ForecastRequest(x, request_.tod, request_.dow)
        expected = _guarded(model, poisoned)
        assert expected[0] == "error"
        assert _served(model, poisoned) == expected

    def test_clean_batch_matches_guarded_forward(self, model, request_):
        expected = _guarded(model, request_)
        assert expected[0] == "output"
        assert _served(model, request_) == expected

    def test_one_sanitizer_event_per_tripped_batch(self, model, request_):
        sink = MemorySink()
        batcher = MicroBatcher(lambda: ("v1", model, None))
        param = model.parameters()[0]
        flat = param.data.reshape(-1)
        original = flat[0].copy()
        set_event_sink(sink)
        try:
            batcher.run_batch([request_])
            assert sink.records == []
            flat[0] = np.nan
            batcher = MicroBatcher(lambda: ("v1", model, None))
            for tripped in (1, 2):
                with pytest.raises(AnomalyError):
                    batcher.run_batch([request_])
                events = [r for r in sink.records if r["event"] == "sanitizer"]
                assert len(events) == tripped
                assert events[-1]["kind"] == "anomaly"
        finally:
            flat[0] = original
            set_event_sink(None)


class _Saturating(Module):
    """``sigmoid(x * w)``: an Inf in ``x * w`` saturates to 1 at the output."""

    def __init__(self, w: float) -> None:
        super().__init__()
        self.w = Parameter(np.full((1,), w, dtype=np.float32))

    def forward(self, x, tod, dow):
        return (Tensor(x) * self.w).sigmoid()


class TestEachCheckIsNeeded:
    """An Inf that saturates away leaves the output finite; each of the
    batch checks must still send the batch to the guard, which names
    ``mul``.  The three cases fail without, in turn, the parameter check,
    the input check and the floating-point error check."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("w, x", [(np.inf, 0.5), (1.0, np.inf), (1e30, 1e30)],
                             ids=["inf-parameter", "inf-input", "overflow"])
    def test_saturated_inf_still_raises(self, w, x):
        model = _Saturating(w)
        request = ForecastRequest(
            x=np.full((1, 2, 3, 1), x, dtype=np.float32),
            tod=np.zeros((1, 2), dtype=np.int64),
            dow=np.zeros((1, 2), dtype=np.int64),
        )
        expected = _guarded(model, request)
        assert expected == ("error", "op 'mul' produced NaN/Inf in its forward output")
        assert _served(model, request) == expected


class TestFastPath:
    def test_clean_batch_never_enters_the_guard(self, model, request_, monkeypatch):
        entered = []
        enter = detect_anomaly.__enter__

        def spy(self):
            entered.append(self)
            return enter(self)

        monkeypatch.setattr(detect_anomaly, "__enter__", spy)
        batcher = MicroBatcher(lambda: ("v1", model, None))
        for _ in range(3):
            batcher.run_batch([request_, request_])
        assert entered == []

        # The spy is live: a poisoned input does take the guarded re-run.
        x = request_.x.copy()
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(AnomalyError):
            batcher.run_batch([ForecastRequest(x, request_.tod, request_.dow)])
        assert len(entered) == 1


class TestParameterMemo:
    def test_hot_swap_refreshes_the_one_slot(self, bundle, tiny_data):
        poisoned = ServableBundle(
            spec=bundle.spec,
            state={k: np.full_like(v, np.nan) for k, v in bundle.state.items()},
            adjacency=bundle.adjacency,
            fallback_profile=bundle.fallback_profile,
            extra={},
        )
        series = tiny_data.dataset.series
        history = bundle.spec.history
        registry = ModelRegistry()
        registry.publish(bundle)
        store = SlidingWindowStore.for_bundle(bundle)
        store.warm_from(
            series.values[:history], series.time_of_day[:history],
            series.day_of_week[:history],
        )

        def memo_holds_active(finite):
            model = registry.resolve()[1]
            assert engine.batcher._finite_memo == (model, finite)

        with ServingEngine(registry, store, ServeConfig(max_wait_s=0.001)) as engine:
            first = engine.forecast()
            assert first.source == "model" and first.version == "v1"
            memo_holds_active(True)

            registry.publish(poisoned)  # activates v2
            swapped = engine.forecast()
            assert swapped.source == "fallback" and swapped.reason == "anomaly"
            memo_holds_active(False)

            registry.activate("v1")
            engine.observe(
                series.values[history], int(series.time_of_day[history]),
                int(series.day_of_week[history]),
            )
            back = engine.forecast()
            assert back.source == "model" and back.version == "v1"
            memo_holds_active(True)
