"""The instrumentation seam: instruments compose and may exit in any order."""

import itertools
import threading

import numpy as np
import pytest

from repro.check import (
    AnomalyError,
    InplaceMutationError,
    detect_anomaly,
    guard_mutations,
)
from repro.faults import ActivationFault
from repro.nn import module as module_mod
from repro.nn.module import Module
from repro.obs import MemoryWatermark, Profiler
from repro.tensor import GraphTracer, Tensor, TraceListener
from repro.tensor import functional as F

from .test_check_sanitizers import _engine_is_pristine

_PRISTINE_TENSOR = dict(vars(Tensor))
_PRISTINE_CALL = Module.__call__
_PRISTINE_COMPOSITES = {name: getattr(F, name) for name in F.PROFILED_COMPOSITES}


def _fully_pristine():
    _engine_is_pristine()
    assert module_mod._FORWARD_SCOPE_HOOK is None
    assert Module.__call__ is _PRISTINE_CALL
    changed = [
        attr for attr, value in vars(Tensor).items()
        if _PRISTINE_TENSOR.get(attr) is not value
    ]
    assert changed == []
    for name, fn in _PRISTINE_COMPOSITES.items():
        assert getattr(F, name) is fn


# Each factory returns (instrument, check): ``check()`` runs an op while the
# instrument is the only one active and asserts the instrument saw it.

def _profiler():
    prof = Profiler()

    def check():
        stat = prof.ops.get(("matmul", "forward"))
        before = stat.count if stat else 0
        x = Tensor(np.ones((2, 2), np.float32))
        x @ x
        assert prof.ops[("matmul", "forward")].count == before + 1

    return prof, check


def _memory():
    mem = MemoryWatermark()

    def check():
        before = mem.total_bytes
        x = Tensor(np.ones(64, np.float32), requires_grad=True)
        y = x * 2.0
        assert mem.total_bytes == before + y.data.nbytes

    return mem, check


class _Counting(TraceListener):
    def __init__(self):
        self.nodes = 0
        self.backward = 0

    def on_node(self, out, parents, op):
        self.nodes += 1

    def on_backward_end(self, node):
        self.backward += 1


def _tracer():
    listener = _Counting()

    def check():
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        assert listener.nodes == 2 and listener.backward == 2

    return GraphTracer(listener), check


def _guard():
    def check():
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        out = (x * x).sum()
        x.data = np.zeros(3, np.float32)
        with pytest.raises(InplaceMutationError):
            out.backward()

    return guard_mutations(), check


def _anomaly():
    def check():
        with np.errstate(divide="ignore"), pytest.raises(AnomalyError, match="op 'div'"):
            Tensor(np.array([1.0])) / Tensor(np.array([0.0]))

    return detect_anomaly(), check


def _poison():
    def check():
        out = Tensor(np.zeros(3, np.float32)).exp()
        assert np.isnan(out.numpy()[0])

    return ActivationFault(step=0, op="exp").activation_context(0), check


def _float64_probe():
    from repro.check.analyzer import _Float64Probe

    probe = _Float64Probe()

    def check():
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        Tensor._make(np.zeros(2, np.float64), (x,), lambda grad: None, "probe")
        assert ("probe", "<top>") in probe.hits

    return probe, check


INSTRUMENTS = {
    "profiler": _profiler,
    "memory": _memory,
    "tracer": _tracer,
    "guard_mutations": _guard,
    "detect_anomaly": _anomaly,
    "activation_fault": _poison,
    "float64_probe": _float64_probe,
}
PAIRS = list(itertools.permutations(INSTRUMENTS, 2))


class TestExitInAnyOrder:
    @pytest.mark.parametrize("first,second", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
    def test_first_in_first_out(self, first, second):
        a, _ = INSTRUMENTS[first]()
        b, check_b = INSTRUMENTS[second]()
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)
        try:
            check_b()
        finally:
            b.__exit__(None, None, None)
        _fully_pristine()

    @pytest.mark.parametrize("first,second", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
    def test_last_in_first_out(self, first, second):
        a, check_a = INSTRUMENTS[first]()
        b, _ = INSTRUMENTS[second]()
        with a:
            with b:
                pass
            check_a()
        _fully_pristine()

    def test_anomaly_guard_exits_in_a_worker_while_main_profiles(self):
        entered, profiling, exited = threading.Event(), threading.Event(), threading.Event()
        errors = []

        def worker():
            try:
                with detect_anomaly():
                    entered.set()
                    assert profiling.wait(10)
            except BaseException as error:  # reported by the assert below
                errors.append(error)
            finally:
                exited.set()

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(10)
            with Profiler() as prof:
                profiling.set()
                assert exited.wait(10)
                x = Tensor(np.ones((2, 2), np.float32))
                x @ x
        finally:
            profiling.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and not errors
        assert prof.ops[("matmul", "forward")].count == 1
        _fully_pristine()


class TestComposition:
    def test_poisoners_may_overlap(self):
        first = ActivationFault(step=0, op="exp").activation_context(0)
        second = ActivationFault(step=0, op="relu").activation_context(0)
        with first, second:
            assert np.isnan(Tensor(np.zeros(2, np.float32)).exp().numpy()[0])
            assert np.isnan(Tensor(np.zeros(2, np.float32)).relu().numpy()[0])
        _fully_pristine()

    def test_scopes_compose_across_instruments(self):
        from repro.check.analyzer import _Float64Probe
        from repro.nn import Linear

        layer = Linear(2, 2)
        with Profiler() as prof, _Float64Probe() as probe:
            layer(Tensor(np.ones((1, 2), np.float32)))
            Tensor._make(np.zeros(2, np.float64), (layer.weight,), lambda g: None, "x")
        assert prof.scopes["Linear"].count == 1
        assert ("x", "<top>") in probe.hits
        _fully_pristine()
