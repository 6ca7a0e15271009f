"""Runtime sanitizers: mutation guard, anomaly detection, telemetry, zero cost."""

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro.check import (
    AnomalyError,
    InplaceMutationError,
    SanitizerError,
    detect_anomaly,
    guard_mutations,
    set_event_sink,
)
from repro.obs import MemorySink, Profiler
from repro.tensor import Tensor
from repro.tensor import tensor as tensor_mod


def _engine_is_pristine():
    """The instrumentation points must all be back to their resting state."""
    from types import MemberDescriptorType

    assert tensor_mod._BACKWARD_OP_HOOK is None
    assert tensor_mod._INTERNAL_CHECK_HOOK is None
    assert isinstance(Tensor.__dict__["data"], MemberDescriptorType)
    assert isinstance(Tensor.__dict__["_make"], staticmethod)
    assert "exp" not in vars(Tensor) or Tensor.exp.__qualname__.startswith("Tensor.")


@contextlib.contextmanager
def _guard_in_other_thread():
    """Hold a ``detect_anomaly`` guard open in a second thread meanwhile."""
    entered, release = threading.Event(), threading.Event()

    def guarded():
        with detect_anomaly():
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=guarded)
    thread.start()
    try:
        assert entered.wait(10)
        yield
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestVersionCounter:
    def test_fresh_tensor_has_version_zero(self):
        assert Tensor(np.ones(3)).version == 0

    def test_copy_bumps_version(self):
        t = Tensor(np.ones(3))
        t.copy_(np.zeros(3))
        t.copy_(np.ones(3))
        assert t.version == 2

    def test_copy_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Tensor(np.ones(3)).copy_(np.ones(4))

    def test_plain_data_assignment_is_free_when_guard_inactive(self):
        t = Tensor(np.ones(3))
        t.data = np.zeros(3)
        assert t.version == 0  # no guard active: no version accounting


class TestGuardMutations:
    def test_mutation_between_forward_and_backward_raises(self):
        with guard_mutations():
            x = Tensor(np.ones((3, 3)), requires_grad=True)
            out = (x * 2.0).exp().sum()
            x.data = x.data + 1.0
            with pytest.raises(InplaceMutationError, match="op 'mul'"):
                out.backward()

    def test_augmented_assignment_is_caught(self):
        with guard_mutations():
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            out = x.sigmoid().sum()
            x.data += 0.5
            with pytest.raises(InplaceMutationError):
                out.backward()

    def test_clean_pass_is_untouched(self):
        with guard_mutations():
            x = Tensor(np.ones((3, 3)), requires_grad=True)
            (x * 2.0).exp().sum().backward()
        assert np.isfinite(x.grad).all()

    def test_error_names_versions(self):
        with guard_mutations():
            x = Tensor(np.ones(4), requires_grad=True)
            out = (x * 3.0).sum()
            x.copy_(np.zeros(4))
            with pytest.raises(InplaceMutationError, match=r"version \d+ -> \d+"):
                out.backward()

    def test_does_not_nest_with_itself(self):
        with guard_mutations():
            with pytest.raises(RuntimeError, match="does not nest"):
                with guard_mutations():
                    pass

    def test_engine_restored_after_exit(self):
        with guard_mutations():
            pass
        _engine_is_pristine()

    def test_engine_restored_after_trip(self):
        with guard_mutations():
            x = Tensor(np.ones(2), requires_grad=True)
            out = (x * 2.0).sum()
            x.data = np.zeros(2)
            with pytest.raises(InplaceMutationError):
                out.backward()
        _engine_is_pristine()

    def test_emits_telemetry_record(self):
        sink = MemorySink()
        with guard_mutations(sink=sink):
            x = Tensor(np.ones(2), requires_grad=True)
            out = (x * 2.0).sum()
            x.data = np.zeros(2)
            with pytest.raises(InplaceMutationError):
                out.backward()
        [record] = sink.records
        assert record["event"] == "sanitizer"
        assert record["kind"] == "inplace_mutation"
        assert record["op"] == "mul"
        assert record["phase"] == "backward"
        assert record["schema"] == "repro.obs.telemetry/v1"


# The non-finite values below are the point of the tests, not a defect.
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestDetectAnomaly:
    def test_forward_inf_names_originating_op(self):
        with pytest.raises(AnomalyError, match="op 'div'"):
            with detect_anomaly():
                Tensor(np.array([1.0]), requires_grad=True) / Tensor(np.array([0.0]))

    def test_forward_nan_names_originating_op(self):
        with pytest.raises(AnomalyError, match="op 'log'"):
            with detect_anomaly():
                Tensor(np.array([-1.0]), requires_grad=True).log()

    def test_backward_gradient_anomaly_names_op(self):
        with pytest.raises(AnomalyError, match="backward of op 'sqrt'"):
            with detect_anomaly():
                x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
                x.sqrt().sum().backward()

    def test_finite_array_whose_sum_overflows_passes(self):
        big = Tensor(np.array([3e38, 3e38], np.float32), requires_grad=True)
        with detect_anomaly():
            out = big * 1.0
        assert np.isfinite(out.numpy()).all()

    @pytest.mark.parametrize("values", [[1.0, np.inf], [np.nan]])
    def test_any_non_finite_element_trips(self, values):
        with pytest.raises(AnomalyError, match="op 'mul'"):
            with detect_anomaly():
                Tensor(np.array(values, np.float32), requires_grad=True) * 1.0

    def test_finite_graph_passes(self):
        with detect_anomaly():
            x = Tensor(np.ones((3, 3)), requires_grad=True)
            ((x @ x).relu() + 1.0).sum().backward()
        assert np.isfinite(x.grad).all()

    def test_does_not_nest_with_itself(self):
        with detect_anomaly():
            with pytest.raises(RuntimeError, match="does not nest"):
                with detect_anomaly():
                    pass

    def test_unguarded_thread_does_not_trip_while_another_is_guarded(self):
        with _guard_in_other_thread():
            out = Tensor(np.array([1.0])) / Tensor(np.array([0.0]))  # unguarded: no raise
            assert np.isinf(out.numpy()).all()
            with pytest.raises(AnomalyError, match="op 'div'"):
                with detect_anomaly():  # this thread's own guard still checks
                    Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
        _engine_is_pristine()

    def test_stress_guards_enter_and_exit_in_many_threads(self):
        errors: list[BaseException] = []

        def worker():
            try:
                for _ in range(40):
                    with detect_anomaly():
                        x = Tensor(np.ones(4, np.float32), requires_grad=True)
                        (x * 2.0).sum().backward()
                        with pytest.raises(AnomalyError, match="op 'div'"):
                            Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
            except BaseException as error:  # reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        _engine_is_pristine()

    def test_engine_stays_instrumented_until_the_last_thread_exits(self):
        with _guard_in_other_thread():
            with detect_anomaly():
                pass
            assert tensor_mod._INTERNAL_CHECK_HOOK is not None
        _engine_is_pristine()

    def test_engine_restored_after_exit_and_trip(self):
        with pytest.raises(AnomalyError):
            with detect_anomaly():
                Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
        _engine_is_pristine()
        out = Tensor(np.array([1.0])) / Tensor(np.array([0.0]))  # no raise now
        assert np.isinf(out.numpy()).all()

    def test_emits_telemetry_record(self):
        sink = MemorySink()
        with pytest.raises(AnomalyError):
            with detect_anomaly(sink=sink):
                Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
        [record] = sink.records
        assert record["kind"] == "anomaly"
        assert record["op"] == "div"
        assert record["phase"] == "forward"

    def test_global_event_sink_routing(self):
        sink = MemorySink()
        set_event_sink(sink)
        try:
            with pytest.raises(AnomalyError):
                with detect_anomaly():
                    Tensor(np.array([0.0])).log()
        finally:
            set_event_sink(None)
        assert sink.records and sink.records[0]["event"] == "sanitizer"

    def test_error_hierarchy(self):
        assert issubclass(AnomalyError, SanitizerError)
        assert issubclass(InplaceMutationError, SanitizerError)
        assert issubclass(SanitizerError, RuntimeError)


class TestNesting:
    def test_sanitizers_nest_with_each_other(self):
        with detect_anomaly():
            with guard_mutations():
                x = Tensor(np.ones((2, 2)), requires_grad=True)
                (x * 3.0).sum().backward()
        _engine_is_pristine()
        assert np.allclose(x.grad, 3.0)

    def test_guard_nests_inside_profiler(self):
        with Profiler() as prof:
            with guard_mutations():
                x = Tensor(np.ones((4, 4)), requires_grad=True)
                (x @ x).sum().backward()
        _engine_is_pristine()
        assert ("matmul", "backward") in prof.ops

    def test_guard_still_trips_inside_profiler(self):
        with Profiler():
            with guard_mutations():
                x = Tensor(np.ones(3), requires_grad=True)
                out = (x * 2.0).sum()
                x.data = np.zeros(3)
                with pytest.raises(InplaceMutationError):
                    out.backward()
        _engine_is_pristine()


class TestZeroCostWhenDisabled:
    def test_no_version_slots_materialised_outside_guard(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        out = (x * 2.0).sum()
        assert not hasattr(out, "_saved_versions")
        assert not hasattr(x, "_version")
        out.backward()

    def test_tensor_methods_are_plain_functions_outside_contexts(self):
        # The swap pattern must leave no wrappers behind: the class dict
        # holds the original functions, so the disabled path is the
        # unmodified engine.
        for attr in ("exp", "log", "sigmoid", "relu"):
            fn = Tensor.__dict__[attr]
            assert fn.__qualname__ == f"Tensor.{attr}", fn.__qualname__
