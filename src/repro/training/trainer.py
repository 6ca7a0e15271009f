"""Training loop for the neural forecasters.

Implements the paper's recipe (Sec. 5.4, 6.1): Adam at lr 1e-3, masked MAE
loss in original units, curriculum learning over horizons, gradient
clipping, and early stopping on validation MAE.  The same trainer drives
D2STGNN, all its ablation variants and every neural baseline — they share
the ``model(x, tod, dow) -> (B, T_f, N, C)`` forward contract.

Seq2seq baselines whose forward accepts ``targets``/``teacher_forcing``
(DCRNN, DGCRN) can additionally be trained with scheduled sampling
(``TrainerConfig(scheduled_sampling=True)``): the decoder consumes the
ground truth of the previous step with a probability that decays linearly
to zero over ``sampling_decay_batches`` — the original DCRNN recipe.

Telemetry: pass a :class:`~repro.obs.MetricsSink` as ``Trainer(...,
sink=...)`` to receive one structured record per epoch (throughput in
windows/sec, gradient norms, memory high-water mark, scheduled-sampling
state) plus an end-of-run summary; the JSON-lines schema lives in
:mod:`repro.obs.telemetry` and is documented in ``docs/observability.md``.

Fault tolerance (see ``docs/robustness.md``):

* **Crash-safe resume** — ``fit(state_path=...)`` writes a full
  training-state checkpoint (optimizer moments, RNG states, curriculum and
  early-stopping counters) after every epoch via
  :func:`~repro.utils.checkpoint.save_training_checkpoint`;
  ``fit(resume_from=...)`` restores it so a killed run continues to the
  same result as an uninterrupted one.
* **NaN rollback recovery** — ``TrainerConfig(recovery=RecoveryPolicy())``
  turns a non-finite loss/gradient (or an
  :class:`~repro.check.AnomalyError`) into a recoverable event: the batch
  is skipped, the last good model+optimizer snapshot restored, the learning
  rate optionally backed off, and a ``"recovery"`` telemetry record
  emitted.
* **Fault injection** — ``Trainer(..., faults=FaultSchedule([...]))``
  exercises those paths with the injectors from :mod:`repro.faults`.

Debugging: ``TrainerConfig(detect_anomaly=True)`` runs every training step
under :func:`repro.check.detect_anomaly`, so the first NaN/Inf raises
naming the originating op (and, when a sink is attached, lands in the
telemetry stream as a ``sanitizer`` record) instead of surfacing as a NaN
loss many batches later.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..check.sanitizers import AnomalyError
from ..data.datasets import ForecastingData
from ..nn.module import Module
from ..obs.sinks import MetricsSink
from ..obs.telemetry import epoch_record, recovery_record, resume_record, train_end_record
from ..optim import Adam, StepLR, clip_grad_norm
from ..tensor import Tensor, functional as F
from ..utils.checkpoint import (
    CheckpointError,
    load_training_checkpoint,
    save_training_checkpoint,
)
from ..utils.seed import get_rng
from ..utils.timer import now
from .curriculum import CurriculumSchedule
from .early_stopping import EarlyStopping
from .evaluation import evaluate_split
from .recovery import RecoveryExhausted, RecoveryPolicy

__all__ = ["TrainerConfig", "TrainingHistory", "Trainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.001
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    curriculum: bool = True
    curriculum_step: int = 8  # batches per horizon increment
    patience: int = 10
    lr_decay_epochs: int = 0  # 0 disables; else StepLR period (DCRNN-style)
    lr_decay_gamma: float = 0.5
    scheduled_sampling: bool = False  # DCRNN-style teacher forcing decay
    sampling_decay_batches: int = 200  # batches until teacher forcing reaches 0
    detect_anomaly: bool = False  # run each step under repro.check.detect_anomaly
    recovery: RecoveryPolicy | None = None  # None = a bad batch kills the run
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainingHistory:
    """Per-epoch record of a run."""

    train_loss: list[float] = field(default_factory=list)
    val_mae: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    grad_norm_mean: list[float] = field(default_factory=list)
    windows_per_second: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def mean_epoch_seconds(self) -> float:
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0


# Config fields that may legitimately differ between the original run and a
# resumed one: extending `epochs` continues training, `verbose` is cosmetic.
_RESUME_IGNORED_FIELDS = ("epochs", "verbose")


class Trainer:
    """Fit a forecaster on a :class:`~repro.data.ForecastingData` bundle."""

    def __init__(
        self,
        model: Module,
        data: ForecastingData,
        config: TrainerConfig | None = None,
        sink: MetricsSink | None = None,
        faults=None,
    ) -> None:
        self.model = model
        self.data = data
        self.config = config or TrainerConfig()
        self.sink = sink
        self.faults = faults  # a repro.faults.FaultSchedule, or None
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.scheduler = (
            StepLR(self.optimizer, self.config.lr_decay_epochs, self.config.lr_decay_gamma)
            if self.config.lr_decay_epochs > 0
            else None
        )
        self.history = TrainingHistory()
        self.resumed_from: str | None = None
        self._batches_seen = 0
        self._global_step = 0
        self._recoveries = 0
        self._stopper: EarlyStopping | None = None
        self._supports_sampling = self.config.scheduled_sampling and (
            "teacher_forcing" in inspect.signature(model.forward).parameters
        )

    # ------------------------------------------------------------------
    def _teacher_forcing_ratio(self) -> float:
        """Linear decay from 1 to 0 over ``sampling_decay_batches``."""
        decay = self.config.sampling_decay_batches
        return max(0.0, 1.0 - self._batches_seen / max(1, decay))

    def _loss(self, batch, active_horizon: int) -> Tensor:
        """Masked MAE in original units over the curriculum-active horizon."""
        scaler = self.data.scaler
        if self._supports_sampling:
            prediction = self.model(
                batch.x,
                batch.tod,
                batch.dow,
                targets=scaler.transform(batch.y),
                teacher_forcing=self._teacher_forcing_ratio(),
            )
        else:
            prediction = self.model(batch.x, batch.tod, batch.dow)
        self._batches_seen += 1
        prediction = prediction * scaler.std + scaler.mean
        target = Tensor(batch.y[:, :active_horizon])
        return F.masked_mae_loss(prediction[:, :active_horizon], target)

    # ------------------------------------------------------------------
    # Recovery helpers
    # ------------------------------------------------------------------
    def _take_snapshot(self) -> dict:
        """Deep-copy the model parameters and optimizer state for rollback."""
        return {
            "model": self.model.state_dict(),
            "optimizer": self.optimizer.state_dict(),
        }

    def _rollback(
        self,
        snapshot: dict,
        policy: RecoveryPolicy,
        *,
        epoch: int,
        step: int,
        reason: str,
        consecutive: int,
    ) -> None:
        """Restore the last good snapshot and apply the LR backoff."""
        lr_before = float(self.optimizer.lr)
        self.model.load_state_dict(snapshot["model"])
        self.optimizer.load_state_dict(snapshot["optimizer"])
        lr_after = max(policy.min_lr, lr_before * policy.lr_backoff)
        self.optimizer.lr = lr_after
        if self.scheduler is not None and lr_before > 0:
            # Rescale the schedule's base rate too, otherwise the next
            # scheduler.step() would silently undo the backoff.
            self.scheduler.base_lr *= lr_after / lr_before
        if self.sink is not None:
            self.sink.emit(recovery_record(
                epoch=epoch + 1,
                step=step,
                reason=reason,
                lr_before=lr_before,
                lr_after=lr_after,
                consecutive_failures=consecutive,
                total_recoveries=self._recoveries,
            ))

    # ------------------------------------------------------------------
    # Crash-safe resume helpers
    # ------------------------------------------------------------------
    def _save_run_state(
        self,
        path: str | Path,
        *,
        epoch: int,
        rng: np.random.Generator,
        curriculum: CurriculumSchedule,
        stopper: EarlyStopping,
        early_stopped: bool,
    ) -> None:
        """Atomically persist everything a resumed run needs after ``epoch``."""
        trainer_state = {
            "next_epoch": epoch + 1,
            "early_stopped": bool(early_stopped),
            "global_step": int(self._global_step),
            "batches_seen": int(self._batches_seen),
            "total_recoveries": int(self._recoveries),
            "curriculum": curriculum.state_dict(),
            "rng_state": rng.bit_generator.state,
            "library_rng_state": get_rng().bit_generator.state,
            "history": {
                "train_loss": list(self.history.train_loss),
                "val_mae": list(self.history.val_mae),
                "epoch_seconds": list(self.history.epoch_seconds),
                "grad_norm_mean": list(self.history.grad_norm_mean),
                "windows_per_second": list(self.history.windows_per_second),
            },
            "config": dataclasses.asdict(self.config),
        }
        save_training_checkpoint(
            path,
            model=self.model,
            optimizer=self.optimizer,
            scheduler=self.scheduler,
            stopper=stopper,
            trainer_state=trainer_state,
        )

    def _restore_run(
        self,
        path: str | Path,
        rng: np.random.Generator,
        curriculum: CurriculumSchedule,
        stopper: EarlyStopping,
    ) -> tuple[int, bool]:
        """Restore a run from ``path``; returns (start_epoch, early_stopped)."""
        info = load_training_checkpoint(
            path,
            model=self.model,
            optimizer=self.optimizer,
            scheduler=self.scheduler,
            stopper=stopper,
        )
        state = info["trainer_state"]
        stored_config = dict(state.get("config", {}))
        current_config = dataclasses.asdict(self.config)
        for name in _RESUME_IGNORED_FIELDS:
            stored_config.pop(name, None)
            current_config.pop(name, None)
        if stored_config != current_config:
            differing = sorted(
                key
                for key in set(stored_config) | set(current_config)
                if stored_config.get(key) != current_config.get(key)
            )
            raise CheckpointError(
                f"cannot resume from {path}: config differs on {differing}"
            )
        self._global_step = int(state["global_step"])
        self._batches_seen = int(state["batches_seen"])
        self._recoveries = int(state["total_recoveries"])
        curriculum.load_state_dict(state["curriculum"])
        rng.bit_generator.state = state["rng_state"]
        get_rng().bit_generator.state = state["library_rng_state"]
        for name, values in state["history"].items():
            getattr(self.history, name)[:] = [float(v) for v in values]
        self.resumed_from = str(path)
        start_epoch = int(state["next_epoch"])
        if self.sink is not None:
            self.sink.emit(resume_record(
                epoch=start_epoch + 1, global_step=self._global_step, path=str(path)
            ))
        return start_epoch, bool(state["early_stopped"])

    # ------------------------------------------------------------------
    def train(self) -> TrainingHistory:
        """Run the full loop (no checkpointing); alias for :meth:`fit`."""
        return self.fit()

    def fit(
        self,
        resume_from: str | Path | None = None,
        state_path: str | Path | None = None,
    ) -> TrainingHistory:
        """Run the training loop; restores the best-validation parameters.

        ``state_path`` persists a full training-state checkpoint (atomic
        write) after every epoch; ``resume_from`` restores one, continuing a
        killed run to the same result as an uninterrupted one — same
        optimizer step count, RNG streams, curriculum position and
        early-stopping state.  The ``repro train --resume`` CLI flag passes
        the same file for both.
        """
        cfg = self.config
        policy = cfg.recovery
        if cfg.detect_anomaly:
            # Lazy import: the sanitizer is only needed when on.
            from ..check.sanitizers import detect_anomaly

            def step_guard():
                return detect_anomaly(sink=self.sink)
        else:
            step_guard = contextlib.nullcontext
        rng = np.random.default_rng(cfg.seed)
        horizon = self.data.windows.horizon
        curriculum = CurriculumSchedule(
            horizon, step_every=cfg.curriculum_step, enabled=cfg.curriculum
        )
        stopper = EarlyStopping(patience=cfg.patience)
        self._stopper = stopper
        start_epoch = 0
        early_stopped = False
        if resume_from is not None:
            start_epoch, early_stopped = self._restore_run(
                resume_from, rng, curriculum, stopper
            )
        run_start = now()

        for epoch in range(start_epoch, cfg.epochs):
            if early_stopped:
                break  # resumed a run that had already early-stopped
            start = now()
            self.model.train()
            losses: list[float] = []
            grad_norms: list[float] = []
            windows = 0
            snapshot = self._take_snapshot() if policy is not None else None
            consecutive_failures = 0
            steps_since_snapshot = 0
            loader = self.data.loader("train", batch_size=cfg.batch_size, shuffle=True, rng=rng)
            for batch in loader:
                step = self._global_step
                self._global_step += 1
                if self.faults is not None:
                    batch = self.faults.corrupt_batch(step, batch)
                fault_ctx = (
                    self.faults.activation_context(step)
                    if self.faults is not None
                    else contextlib.nullcontext()
                )
                self.optimizer.zero_grad()
                try:
                    with fault_ctx, step_guard():
                        loss = self._loss(batch, curriculum.active_horizon)
                        loss_value = loss.item()
                        # Explicit finiteness checks only under a recovery
                        # policy: without one the legacy contract holds (a
                        # NaN loss flows into the epoch mean and the NaN
                        # validation MAE counts against patience).
                        if policy is not None and not np.isfinite(loss_value):
                            raise AnomalyError(
                                f"non-finite training loss ({loss_value})"
                            )
                        loss.backward()
                    if self.faults is not None:
                        self.faults.corrupt_gradients(step, self.model.parameters())
                    norm = clip_grad_norm(self.model.parameters(), cfg.clip_norm)
                    if policy is not None and not np.isfinite(norm):
                        raise AnomalyError(f"non-finite gradient norm ({norm})")
                except AnomalyError as error:
                    curriculum.step()
                    if policy is None:
                        raise
                    consecutive_failures += 1
                    self._recoveries += 1
                    if consecutive_failures > policy.max_retries:
                        raise RecoveryExhausted(
                            f"{consecutive_failures} consecutive failed batches "
                            f"(max_retries={policy.max_retries}): {error}"
                        ) from error
                    self._rollback(
                        snapshot, policy,
                        epoch=epoch, step=step, reason=str(error),
                        consecutive=consecutive_failures,
                    )
                    continue
                self.optimizer.step()
                consecutive_failures = 0
                if policy is not None:
                    steps_since_snapshot += 1
                    if steps_since_snapshot >= policy.snapshot_every:
                        snapshot = self._take_snapshot()
                        steps_since_snapshot = 0
                losses.append(loss_value)
                grad_norms.append(norm)
                windows += batch.x.shape[0]
                curriculum.step()
            elapsed = now() - start
            if self.scheduler is not None:
                self.scheduler.step()

            self.model.eval()
            val_mae = self.validate()
            train_loss = float(np.mean(losses)) if losses else float("nan")
            self.history.train_loss.append(train_loss)
            self.history.val_mae.append(val_mae)
            self.history.epoch_seconds.append(elapsed)
            self.history.grad_norm_mean.append(float(np.mean(grad_norms)) if grad_norms else 0.0)
            self.history.windows_per_second.append(windows / elapsed if elapsed > 0 else 0.0)
            if cfg.verbose:
                print(
                    f"epoch {epoch + 1:3d}  loss {train_loss:8.4f}  "
                    f"val MAE {val_mae:8.4f}  ({elapsed:.1f}s)"
                )
            if self.sink is not None:
                self.sink.emit(epoch_record(
                    epoch=epoch + 1,
                    train_loss=train_loss,
                    val_mae=float(val_mae),
                    epoch_seconds=elapsed,
                    windows=windows,
                    grad_norm_mean=float(np.mean(grad_norms)) if grad_norms else 0.0,
                    grad_norm_max=float(np.max(grad_norms)) if grad_norms else 0.0,
                    learning_rate=float(self.optimizer.lr),
                    active_horizon=curriculum.active_horizon,
                    teacher_forcing_ratio=(
                        self._teacher_forcing_ratio() if self._supports_sampling else None
                    ),
                ))
            early_stopped = stopper.update(val_mae, self.model.state_dict())
            if state_path is not None:
                self._save_run_state(
                    state_path,
                    epoch=epoch,
                    rng=rng,
                    curriculum=curriculum,
                    stopper=stopper,
                    early_stopped=early_stopped,
                )
            if self.faults is not None:
                # After the checkpoint write: a simulated kill here leaves a
                # resumable state file, like a real between-epoch crash.
                self.faults.after_epoch(epoch)
            if early_stopped:
                break

        if stopper.best_state is not None:
            self.model.load_state_dict(stopper.best_state)
        if self.sink is not None:
            self.sink.emit(train_end_record(
                epochs_run=self.history.epochs_run,
                best_val_mae=float(stopper.best_loss),
                total_seconds=now() - run_start,
                early_stopped=early_stopped,
            ))
        return self.history

    # ------------------------------------------------------------------
    def validate(self) -> float:
        """Masked MAE on the validation split (the early-stopping signal).

        Streamed through :func:`evaluate_split`, so validation never
        materialises the whole split.
        """
        report = evaluate_split(self.model, self.data, split="val", horizons=())
        return report["avg"]["mae"]

    def evaluate(self, split: str = "test") -> dict[str, dict[str, float]]:
        """Horizon-wise test metrics of the (best) trained model (streamed)."""
        self.model.eval()
        return evaluate_split(self.model, self.data, split=split)
