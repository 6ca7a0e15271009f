"""The observability layer: op profiler, metrics sinks, trainer telemetry."""

import json

import numpy as np
import pytest

import repro.nn.module as module_mod
import repro.tensor.tensor as tensor_mod
from repro.baselines import FCLSTM
from repro.nn import Linear, Module, Parameter
from repro.obs import (
    FileSink,
    MemorySink,
    Profiler,
    StdoutSink,
    TELEMETRY_SCHEMA,
    annotate_model_scopes,
    compare_fast_reference,
    memory_high_water_mark_bytes,
    read_jsonl,
    train_step,
)
from repro.obs.stepbench import ROUNDS
from repro.optim import Adam
from repro.tensor import Tensor, configure_fast_backward, fast_backward_config
from repro.tensor import functional as F
from repro.training import Trainer, TrainerConfig


def scripted_forward_backward():
    """One fixed computation whose op counts are known exactly."""
    x = Tensor(np.ones((4, 5), dtype=np.float32), requires_grad=True)
    w = Tensor(np.full((5, 3), 0.1, dtype=np.float32), requires_grad=True)
    y = ((x @ w).relu().sum())  # matmul, relu, sum
    y.backward()
    return x, w


class TestProfilerRecords:
    def test_known_op_counts_forward_and_backward(self):
        with Profiler() as prof:
            scripted_forward_backward()
        assert prof.ops[("matmul", "forward")].count == 1
        assert prof.ops[("relu", "forward")].count == 1
        assert prof.ops[("sum", "forward")].count == 1
        assert prof.ops[("matmul", "backward")].count == 1
        assert prof.ops[("relu", "backward")].count == 1
        assert prof.ops[("sum", "backward")].count == 1

    def test_records_have_time_and_bytes(self):
        with Profiler() as prof:
            scripted_forward_backward()
        stat = prof.ops[("matmul", "forward")]
        assert stat.time >= 0.0
        assert stat.bytes == 4 * 3 * 4  # (4,3) float32 output
        back = prof.ops[("matmul", "backward")]
        assert back.bytes == 4 * 3 * 4  # incoming gradient, same shape

    def test_composite_functions_recorded(self):
        x = Tensor(np.random.rand(3, 4).astype(np.float32), requires_grad=True)
        with Profiler() as prof:
            F.softmax(x).sum().backward()
        assert prof.ops[("softmax", "forward")].count == 1

    def test_gradients_unaffected_by_profiling(self):
        x1, w1 = scripted_forward_backward()
        with Profiler():
            x2, w2 = scripted_forward_backward()
        np.testing.assert_array_equal(x1.grad, x2.grad)
        np.testing.assert_array_equal(w1.grad, w2.grad)

    def test_top_ops_and_to_dict_schema(self):
        with Profiler() as prof:
            scripted_forward_backward()
        payload = prof.to_dict()
        assert payload["schema"] == "repro.obs.profile/v1"
        assert payload["distinct_ops"] == prof.distinct_ops() >= 3
        for row in payload["ops"]:
            assert set(row) == {"op", "phase", "count", "time", "bytes"}
        assert json.loads(json.dumps(payload)) == payload  # JSON-clean
        assert len(prof.top_ops(2)) == 2


class TestProfilerDisabled:
    def test_disabled_mode_adds_no_entries(self):
        with Profiler() as prof:
            pass
        scripted_forward_backward()  # outside the with-block
        assert prof.ops == {}
        assert prof.scopes == {}

    def test_originals_restored_and_hooks_cleared(self):
        matmul = Tensor.__dict__["__matmul__"]
        concat = Tensor.__dict__["concatenate"]
        softmax = F.softmax
        with Profiler():
            assert Tensor.__dict__["__matmul__"] is not matmul
        assert Tensor.__dict__["__matmul__"] is matmul
        assert Tensor.__dict__["concatenate"] is concat
        assert F.softmax is softmax
        assert tensor_mod._BACKWARD_OP_HOOK is None
        assert module_mod._FORWARD_SCOPE_HOOK is None

    def test_profilers_do_not_nest(self):
        with Profiler():
            with pytest.raises(RuntimeError):
                with Profiler():
                    pass
        # and a crashed nesting attempt must not leave stale instrumentation
        assert tensor_mod._BACKWARD_OP_HOOK is None


class TestScopes:
    def test_module_forward_recorded_under_class_name(self):
        layer = Linear(5, 3)
        x = Tensor(np.random.rand(2, 5).astype(np.float32))
        with Profiler() as prof:
            layer(x)
        assert prof.scopes["Linear"].count == 1
        assert prof.scopes["Linear"].time >= prof.scopes["Linear"].self_time >= 0.0

    def test_annotate_scope_and_named_modules(self):
        class Net(Module):
            """Two-layer toy net."""

            def __init__(self):
                super().__init__()
                self.first = Linear(5, 4)
                self.second = Linear(4, 3)

            def forward(self, x):
                """Chain the two layers."""
                return self.second(self.first(x))

        net = Net()
        paths = dict(net.named_modules())
        assert set(paths) == {"", "first", "second"}
        annotate_model_scopes(net)
        with Profiler() as prof:
            net(Tensor(np.random.rand(2, 5).astype(np.float32)))
        assert prof.scopes["first"].count == 1
        assert prof.scopes["second"].count == 1
        # parent's inclusive time covers the children; self time excludes them
        net_stat = prof.scopes["Net"]
        assert net_stat.time >= prof.scopes["first"].time
        assert net_stat.self_time <= net_stat.time


class TestSinks:
    def test_file_sink_round_trips_json_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        records = [{"event": "epoch", "epoch": 1, "loss": 0.5},
                   {"event": "train_end", "epochs_run": 1}]
        with FileSink(path) as sink:
            for record in records:
                sink.emit(record)
        assert read_jsonl(path) == records

    def test_memory_sink_copies_records(self):
        sink = MemorySink()
        record = {"epoch": 1}
        sink.emit(record)
        record["epoch"] = 99
        assert sink.records == [{"epoch": 1}]

    def test_stdout_sink_emits_one_json_line(self, capsys):
        StdoutSink().emit({"a": 1, "b": "x"})
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"a": 1, "b": "x"}


class TestTrainerTelemetry:
    def test_epoch_and_end_records(self, tiny_data):
        sink = MemorySink()
        trainer = Trainer(FCLSTM(hidden_dim=4), tiny_data,
                          TrainerConfig(epochs=2, patience=5), sink=sink)
        trainer.train()
        epochs = [r for r in sink.records if r["event"] == "epoch"]
        ends = [r for r in sink.records if r["event"] == "train_end"]
        assert len(epochs) == 2 and len(ends) == 1
        first = epochs[0]
        assert first["schema"] == TELEMETRY_SCHEMA
        assert first["epoch"] == 1
        assert first["windows_per_second"] > 0
        assert first["grad_norm_mean"] > 0
        assert first["memory_peak_bytes"] > 0
        assert first["teacher_forcing_ratio"] is None  # no scheduled sampling
        assert ends[0]["epochs_run"] == 2
        assert ends[0]["best_val_mae"] == min(r["val_mae"] for r in epochs)
        # every record must be JSON-lines serialisable
        for record in sink.records:
            json.dumps(record)

    def test_history_gains_throughput_and_grad_norms(self, tiny_data):
        trainer = Trainer(FCLSTM(hidden_dim=4), tiny_data, TrainerConfig(epochs=1))
        history = trainer.train()
        assert len(history.grad_norm_mean) == 1
        assert len(history.windows_per_second) == 1
        assert history.windows_per_second[0] > 0

    def test_memory_high_water_mark_positive(self):
        assert memory_high_water_mark_bytes() > 1024 * 1024

class TestSanitizerTelemetry:
    """Sanitizer trips flow through the same MetricsSink as epoch records."""

    def test_sanitizer_record_shares_the_telemetry_schema(self):
        from repro.obs import sanitizer_record

        record = sanitizer_record(
            kind="anomaly", op="div", phase="forward", message="boom"
        )
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["event"] == "sanitizer"
        json.dumps(record)

    def test_trainer_detect_anomaly_clean_run_emits_no_sanitizer_records(self, tiny_data):
        sink = MemorySink()
        trainer = Trainer(FCLSTM(hidden_dim=4), tiny_data,
                          TrainerConfig(epochs=1, detect_anomaly=True), sink=sink)
        trainer.train()
        events = {record["event"] for record in sink.records}
        assert "sanitizer" not in events
        assert {"epoch", "train_end"} <= events
        # the engine must be back to its uninstrumented state
        assert tensor_mod._BACKWARD_OP_HOOK is None

    def test_trainer_detect_anomaly_reports_poisoned_forward(self, tiny_data):
        from repro.check import AnomalyError

        class PoisonedModel(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(1, 1)

            def forward(self, x, tod, dow):
                if not isinstance(x, Tensor):
                    x = Tensor(x)
                with np.errstate(divide="ignore"):
                    return self.lin(x) / Tensor(np.zeros(1, dtype=np.float32))

        sink = MemorySink()
        trainer = Trainer(PoisonedModel(), tiny_data,
                          TrainerConfig(epochs=1, detect_anomaly=True), sink=sink)
        with pytest.raises(AnomalyError, match="op 'div'"):
            trainer.train()
        sanitizer = [r for r in sink.records if r["event"] == "sanitizer"]
        assert len(sanitizer) == 1
        assert sanitizer[0]["kind"] == "anomaly"
        assert sanitizer[0]["op"] == "div"
        assert sanitizer[0]["phase"] == "forward"
        assert tensor_mod._BACKWARD_OP_HOOK is None

    def test_trainer_without_flag_does_not_wrap_steps(self, tiny_data):
        trainer = Trainer(FCLSTM(hidden_dim=4), tiny_data, TrainerConfig(epochs=1))
        assert trainer.config.detect_anomaly is False
        trainer.train()  # no sanitizer active: nothing to restore
        assert tensor_mod._BACKWARD_OP_HOOK is None


class TestCompareFastReference:
    def test_alternated_legs_and_switch_ablation(self, tiny_data):
        timing = compare_fast_reference(
            FCLSTM(hidden_dim=4), tiny_data, batch_size=4, steps=1, warmup=0
        )
        for leg in (timing["fast"], timing["reference"]):
            assert leg["rounds"] == ROUNDS and leg["steps"] == ROUNDS
            assert leg["step_ms_min"] <= leg["step_ms_median"]
        assert set(timing["switches"]) == {"scatter", "inplace"}
        for switch in timing["switches"].values():
            assert switch["off"]["rounds"] == ROUNDS
            assert switch["speedup_end_to_end"] > 0

    def test_train_step_updates_parameters(self, tiny_data):
        model = FCLSTM(hidden_dim=4)
        batch = tiny_data.train.gather(np.arange(4))
        optimizer = Adam(model.parameters(), lr=1e-2)
        before = [p.data.copy() for p in model.parameters()]
        backward_s = train_step(model, optimizer, batch, tiny_data.scaler)
        assert backward_s > 0
        assert any(
            not np.array_equal(b, p.data) for b, p in zip(before, model.parameters())
        )

    def test_restores_configuration(self, tiny_data):
        previous = configure_fast_backward(scatter=False)
        try:
            compare_fast_reference(FCLSTM(hidden_dim=4), tiny_data,
                                   batch_size=4, steps=1, warmup=0)
            assert fast_backward_config() == {**previous, "scatter": False}
        finally:
            configure_fast_backward(**previous)
