"""Fault injection, NaN-rollback recovery and kill-and-resume equivalence."""

import numpy as np
import pytest

from repro import nn
from repro.check import AnomalyError
from repro.faults import (
    ActivationFault,
    BatchFault,
    CrashFault,
    FaultSchedule,
    GradientFault,
    IMPUTE_STRATEGIES,
    OutageScenario,
    SimulatedCrash,
    evaluate_under_outage,
    impute_windows,
    sample_outage_mask,
)
from repro.obs import MemorySink
from repro.tensor import Tensor
from repro.training import (
    RecoveryExhausted,
    RecoveryPolicy,
    Trainer,
    TrainerConfig,
)
from repro.utils import CheckpointError
from repro.utils.seed import set_seed


class TinyForecaster(nn.Module):
    """Two Linears over the history axis — fast, and exercises relu+dropout."""

    def __init__(self, history=12, horizon=12):
        super().__init__()
        self.l1 = nn.Linear(history, 16)
        self.drop = nn.Dropout(0.2)
        self.l2 = nn.Linear(16, horizon)
        self.horizon = horizon

    def forward(self, x, tod, dow):
        h = Tensor(np.ascontiguousarray(np.transpose(x[..., 0], (0, 2, 1))))
        out = self.l2(self.drop(self.l1(h).relu()))  # (B, N, horizon)
        return out.transpose(0, 2, 1).reshape(x.shape[0], self.horizon, x.shape[2], 1)


def _config(**overrides):
    base = dict(epochs=2, batch_size=64, patience=10, seed=0)
    base.update(overrides)
    return TrainerConfig(**base)


def _records(sink, event):
    return [r for r in sink.records if r["event"] == event]


class TestKillAndResume:
    def test_resumed_run_matches_uninterrupted(self, tiny_data, tmp_path):
        """A run killed between epochs continues to the identical result."""
        cfg = _config(epochs=4)
        set_seed(7)
        reference = Trainer(TinyForecaster(), tiny_data, cfg)
        ref_history = reference.fit()

        state = tmp_path / "state.npz"
        set_seed(7)
        killed = Trainer(
            TinyForecaster(), tiny_data, cfg,
            faults=FaultSchedule([CrashFault(epoch=1)]),
        )
        with pytest.raises(SimulatedCrash):
            killed.fit(state_path=state)
        assert state.exists()

        set_seed(999)  # resume must restore the RNG streams, not reuse this
        sink = MemorySink()
        resumed = Trainer(TinyForecaster(), tiny_data, cfg, sink=sink)
        history = resumed.fit(resume_from=state, state_path=state)

        assert history.train_loss == ref_history.train_loss
        assert history.val_mae == ref_history.val_mae
        assert history.grad_norm_mean == ref_history.grad_norm_mean
        assert resumed.optimizer._step == reference.optimizer._step
        for name, value in reference.model.state_dict().items():
            np.testing.assert_array_equal(value, resumed.model.state_dict()[name])
        (resume,) = _records(sink, "resume")
        assert resume["path"] == str(state)
        assert resume["global_step"] == resumed._global_step - 2 * len(
            list(tiny_data.loader("train", batch_size=cfg.batch_size))
        )

    def test_resume_restores_iterator_order(self, tiny_data, tmp_path):
        """Loader shuffle order is part of the resume contract.

        The Trainer checkpoints both its own batch-order generator and the
        seeded library RNG (which default-constructed ``BatchIterator``s
        split their stream from), so any loader built *after* training must
        shuffle identically whether the run was resumed or not.
        """

        def first_shuffled_batch():
            loader = tiny_data.loader("train", batch_size=16, shuffle=True)
            return next(iter(loader)).x.tobytes()

        cfg = _config(epochs=3)
        set_seed(7)
        Trainer(TinyForecaster(), tiny_data, cfg).fit()
        expected = first_shuffled_batch()

        state = tmp_path / "state.npz"
        set_seed(7)
        killed = Trainer(
            TinyForecaster(), tiny_data, cfg,
            faults=FaultSchedule([CrashFault(epoch=1)]),
        )
        with pytest.raises(SimulatedCrash):
            killed.fit(state_path=state)

        set_seed(999)  # resume must restore the library stream, not reuse this
        resumed = Trainer(TinyForecaster(), tiny_data, cfg)
        resumed.fit(resume_from=state, state_path=state)
        assert first_shuffled_batch() == expected

    def test_resume_rejects_config_mismatch(self, tiny_data, tmp_path):
        state = tmp_path / "state.npz"
        set_seed(1)
        Trainer(TinyForecaster(), tiny_data, _config(epochs=1)).fit(state_path=state)
        set_seed(1)
        other = Trainer(TinyForecaster(), tiny_data, _config(epochs=1, learning_rate=0.01))
        with pytest.raises(CheckpointError, match="learning_rate"):
            other.fit(resume_from=state)

    def test_resume_allows_extending_epochs(self, tiny_data, tmp_path):
        state = tmp_path / "state.npz"
        set_seed(1)
        Trainer(TinyForecaster(), tiny_data, _config(epochs=1)).fit(state_path=state)
        set_seed(1)
        longer = Trainer(TinyForecaster(), tiny_data, _config(epochs=2))
        history = longer.fit(resume_from=state, state_path=state)
        assert history.epochs_run == 2

    def test_missing_state_raises(self, tiny_data, tmp_path):
        trainer = Trainer(TinyForecaster(), tiny_data, _config())
        with pytest.raises(CheckpointError):
            trainer.fit(resume_from=tmp_path / "nothing.npz")


class TestRecovery:
    def test_activation_fault_triggers_rollback(self, tiny_data):
        sink = MemorySink()
        set_seed(3)
        trainer = Trainer(
            TinyForecaster(), tiny_data,
            _config(recovery=RecoveryPolicy()),
            sink=sink,
            faults=FaultSchedule([ActivationFault(step=2, op="relu")]),
        )
        history = trainer.fit()
        (record,) = _records(sink, "recovery")
        assert record["step"] == 2
        assert record["lr_after"] == pytest.approx(record["lr_before"] * 0.5)
        assert np.isfinite(history.train_loss).all()
        assert np.isfinite(history.val_mae).all()
        for value in trainer.model.state_dict().values():
            assert np.isfinite(value).all()

    def test_gradient_fault_triggers_rollback(self, tiny_data):
        sink = MemorySink()
        set_seed(3)
        trainer = Trainer(
            TinyForecaster(), tiny_data,
            _config(recovery=RecoveryPolicy()),
            sink=sink,
            faults=FaultSchedule([GradientFault(step=1, mode="inf")]),
        )
        history = trainer.fit()
        (record,) = _records(sink, "recovery")
        assert "gradient" in record["reason"]
        assert np.isfinite(history.val_mae).all()

    def test_batch_fault_triggers_rollback(self, tiny_data):
        sink = MemorySink()
        set_seed(3)
        trainer = Trainer(
            TinyForecaster(), tiny_data,
            _config(recovery=RecoveryPolicy()),
            sink=sink,
            faults=FaultSchedule([BatchFault(step=0, mode="nan")]),
        )
        trainer.fit()
        assert len(_records(sink, "recovery")) == 1

    def test_without_policy_detect_anomaly_is_fatal(self, tiny_data):
        set_seed(3)
        trainer = Trainer(
            TinyForecaster(), tiny_data, _config(detect_anomaly=True),
            faults=FaultSchedule([ActivationFault(step=0, op="relu")]),
        )
        # The guard enters after the fault, so it is outermost and sees the
        # poisoned output of the op itself.
        with pytest.raises(AnomalyError, match="op 'relu'"):
            trainer.fit()

    def test_without_policy_nan_counts_against_patience(self, tiny_data):
        set_seed(3)
        trainer = Trainer(
            TinyForecaster(), tiny_data, _config(epochs=4, patience=2),
            faults=FaultSchedule([ActivationFault(step=None, op="relu")]),
        )
        history = trainer.fit()  # legacy contract: must return, not raise
        assert history.epochs_run <= 4

    def test_persistent_fault_exhausts_retries(self, tiny_data):
        sink = MemorySink()
        set_seed(3)
        trainer = Trainer(
            TinyForecaster(), tiny_data,
            _config(recovery=RecoveryPolicy(max_retries=2)),
            sink=sink,
            faults=FaultSchedule([GradientFault(step=None)]),  # every step
        )
        with pytest.raises(RecoveryExhausted):
            trainer.fit()
        assert len(_records(sink, "recovery")) == 2

    def test_backoff_is_cumulative_and_floored(self, tiny_data):
        sink = MemorySink()
        set_seed(3)
        policy = RecoveryPolicy(max_retries=3, lr_backoff=0.5, min_lr=4e-4)
        trainer = Trainer(
            TinyForecaster(), tiny_data,
            _config(recovery=policy),
            sink=sink,
            faults=FaultSchedule([GradientFault(step=0), GradientFault(step=1)]),
        )
        trainer.fit()
        records = _records(sink, "recovery")
        assert [r["lr_after"] for r in records] == [pytest.approx(5e-4), pytest.approx(4e-4)]
        assert records[-1]["total_recoveries"] == 2

    def test_rollback_restores_snapshot(self, tiny_data):
        """Params after a skipped batch equal those before the fault hit."""
        set_seed(3)
        clean = Trainer(TinyForecaster(), tiny_data, _config(epochs=1))
        set_seed(3)
        faulted = Trainer(
            TinyForecaster(), tiny_data,
            # No LR backoff, so the post-recovery trajectory only differs by
            # the skipped batch's missing update.
            _config(epochs=1, recovery=RecoveryPolicy(lr_backoff=1.0)),
            faults=FaultSchedule([ActivationFault(step=0, op="relu")]),
        )
        # Run a single batch each: clean applies step 0, faulted skips it.
        clean_batch = next(iter(tiny_data.loader("train", batch_size=64)))
        loss = clean._loss(clean_batch, 12)
        loss.backward()
        before = {k: v.copy() for k, v in faulted.model.state_dict().items()}
        history = faulted.fit()
        assert history.epochs_run == 1
        # The faulted model moved on (later batches trained), but never went
        # non-finite — the rollback caught the poisoned step.
        assert any(
            not np.array_equal(before[k], v)
            for k, v in faulted.model.state_dict().items()
        )
        for value in faulted.model.state_dict().values():
            assert np.isfinite(value).all()


class TestInjectors:
    def test_activation_fault_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            ActivationFault(step=0, op="definitely_not_an_op")

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            BatchFault(step=0, mode="zero")

    def test_batch_fault_fires_only_at_its_step(self, tiny_data):
        fault = BatchFault(step=3, mode="nan", fraction=0.5)
        batch = next(iter(tiny_data.loader("train", batch_size=4)))
        assert fault.corrupt_batch(2, batch) is batch
        corrupted = fault.corrupt_batch(3, batch)
        assert corrupted is not batch
        assert np.isnan(corrupted.x).any()
        assert np.isfinite(batch.x).all()  # original untouched

    def test_poison_context_restores_tensor_methods(self):
        fault = ActivationFault(step=0, op="relu")
        original = Tensor.relu
        with fault.activation_context(0):
            poisoned = Tensor(np.ones(3)).relu()
            assert np.isnan(poisoned.numpy()).any()
        assert Tensor.relu is original
        assert np.isfinite(Tensor(np.ones(3)).relu().numpy()).all()

    def test_schedule_composes_hooks(self, tiny_data):
        schedule = FaultSchedule([
            BatchFault(step=0, mode="nan"),
            GradientFault(step=5),
            CrashFault(epoch=0),
        ])
        batch = next(iter(tiny_data.loader("train", batch_size=4)))
        assert np.isnan(schedule.corrupt_batch(0, batch).x).any()
        with schedule.activation_context(0):
            pass  # no activation faults scheduled: empty composition
        with pytest.raises(SimulatedCrash):
            schedule.after_epoch(0)
        schedule.after_epoch(1)  # only the targeted epoch crashes

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(lr_backoff=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(min_lr=0.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(snapshot_every=0)


class TestOutage:
    def test_mask_shape_and_rate(self, rng):
        scenario = OutageScenario(rate=1.0, duration=(2, 4), seed=0)
        mask = sample_outage_mask(rng, 8, 12, 5, scenario)
        assert mask.shape == (8, 12, 5)
        assert mask.any(axis=1).all()  # rate=1: every sensor dark somewhere
        zero = sample_outage_mask(rng, 8, 12, 5, OutageScenario(rate=0.0))
        assert not zero.any()

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            OutageScenario(rate=1.5)
        with pytest.raises(ValueError):
            OutageScenario(duration=(0, 3))
        with pytest.raises(ValueError):
            OutageScenario(duration=(5, 2))

    def test_impute_strategies(self, tiny_data, rng):
        batch = next(iter(tiny_data.loader("test", batch_size=4)))
        mask = sample_outage_mask(rng, 4, 12, batch.x.shape[2], OutageScenario(rate=0.5))
        scaler = tiny_data.scaler
        zero = impute_windows(batch.x, mask, "zero", scaler)
        mean = impute_windows(batch.x, mask, "mean", scaler)
        ffill = impute_windows(batch.x, mask, "ffill", scaler)
        raw_zero = (0.0 - scaler.mean) / scaler.std
        assert np.allclose(zero[..., 0][mask], raw_zero)
        assert np.allclose(mean[..., 0][mask], 0.0)
        assert np.isfinite(ffill).all()
        # Untouched readings and time channels are preserved exactly.
        for imputed in (zero, mean, ffill):
            np.testing.assert_array_equal(imputed[..., 1:], batch.x[..., 1:])
            np.testing.assert_array_equal(
                imputed[..., 0][~mask], batch.x[..., 0][~mask]
            )
        # ffill actually carries the previous value forward.
        b, t, n = np.argwhere(mask[:, 1:, :] & ~mask[:, :-1, :])[0]
        assert ffill[b, t + 1, n, 0] == ffill[b, t, n, 0]

    def test_impute_validation(self, tiny_data, rng):
        batch = next(iter(tiny_data.loader("test", batch_size=2)))
        mask = np.zeros(batch.x.shape[:3], dtype=bool)
        with pytest.raises(ValueError, match="strategy"):
            impute_windows(batch.x, mask, "magic", tiny_data.scaler)
        with pytest.raises(ValueError, match="mask shape"):
            impute_windows(batch.x, mask[:1], "zero", tiny_data.scaler)

    def test_evaluation_degrades_gracefully(self, tiny_data):
        set_seed(5)
        model = TinyForecaster()
        Trainer(model, tiny_data, _config(epochs=1)).fit()
        reports = evaluate_under_outage(
            model, tiny_data, OutageScenario(rate=0.4, seed=11), split="val"
        )
        assert set(reports) == {"clean"} | set(IMPUTE_STRATEGIES)
        mae = {key: report["avg"]["mae"] for key, report in reports.items()}
        assert all(np.isfinite(v) for v in mae.values())
        # Imputing with the training mean beats feeding raw zeros (~7 sigma
        # off-distribution) into the model; clean is the lower bound.
        assert mae["mean"] <= mae["zero"]
        assert mae["clean"] <= mae["zero"]

    def test_evaluation_is_deterministic(self, tiny_data):
        set_seed(5)
        model = TinyForecaster()
        scenario = OutageScenario(rate=0.3, seed=2)
        first = evaluate_under_outage(model, tiny_data, scenario, split="val",
                                      strategies=("mean",))
        second = evaluate_under_outage(model, tiny_data, scenario, split="val",
                                       strategies=("mean",))
        assert first["mean"]["avg"]["mae"] == second["mean"]["avg"]["mae"]

    def test_unknown_strategy_rejected(self, tiny_data):
        with pytest.raises(ValueError, match="strategy"):
            evaluate_under_outage(
                TinyForecaster(), tiny_data, strategies=("nope",), split="val"
            )
