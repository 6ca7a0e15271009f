"""Composable fault injectors for exercising the trainer's recovery paths.

Each injector targets one failure mode the paper's data (and any production
deployment) exhibits, at a precisely controlled point of a training run:

* :class:`BatchFault` — corrupt the input windows of one batch (NaN/Inf),
  the "bad record slipped through ingestion" case;
* :class:`ActivationFault` — poison the output of a named primitive op
  (from :data:`repro.tensor.ops_registry.TENSOR_OPS`) during one training
  step, the "numerical blow-up mid-forward" case;
* :class:`GradientFault` — overwrite a parameter gradient after backward,
  the "NaN surfaced in backward" case;
* :class:`CrashFault` — raise :class:`SimulatedCrash` between two epochs
  (after the training-state checkpoint was written), the "process killed"
  case used by the kill-and-resume equivalence tests.

A :class:`FaultSchedule` composes any number of injectors and is what
``Trainer(..., faults=...)`` consumes.  Injectors fire on the trainer's
*global* step counter (batches counted across epochs), or on every step
when constructed with ``step=None``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..tensor.instrument import Instrument
from ..tensor.ops_registry import TENSOR_OPS
from ..tensor.tensor import Tensor

__all__ = [
    "SimulatedCrash",
    "Fault",
    "BatchFault",
    "ActivationFault",
    "GradientFault",
    "CrashFault",
    "FaultSchedule",
]

_MODES = {"nan": np.nan, "inf": np.inf}


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashFault` to emulate a process kill between epochs."""


def _corrupt_value(mode: str) -> float:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {sorted(_MODES)}, got {mode!r}")
    return _MODES[mode]


class Fault:
    """Base injector: every hook is a no-op; subclasses override one of them.

    ``step`` (for step-scoped faults) is the trainer's global batch index;
    ``None`` means "fire on every step" — useful for testing bounded-retry
    exhaustion.
    """

    def __init__(self, step: int | None = None) -> None:
        self.step = step

    def _fires_at(self, step: int) -> bool:
        return self.step is None or self.step == step

    def corrupt_batch(self, step: int, batch):
        """Return ``batch``, possibly replaced by a corrupted copy."""
        return batch

    def activation_context(self, step: int):
        """Return a context manager poisoning ops for this step, or ``None``."""
        return None

    def corrupt_gradients(self, step: int, parameters) -> None:
        """Mutate parameter gradients in place after backward."""

    def after_epoch(self, epoch: int) -> None:
        """Hook between epochs (after the state checkpoint is written)."""


class BatchFault(Fault):
    """Replace the leading entries of one batch's inputs with NaN/Inf."""

    def __init__(self, step: int | None, mode: str = "nan", fraction: float = 0.05) -> None:
        super().__init__(step)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.value = _corrupt_value(mode)
        self.fraction = fraction

    def corrupt_batch(self, step: int, batch):
        """Return a copy of ``batch`` whose first ``fraction`` inputs are poisoned."""
        if not self._fires_at(step):
            return batch
        x = np.array(batch.x, copy=True)
        count = max(1, int(round(x.size * self.fraction)))
        x.reshape(-1)[:count] = self.value
        return type(batch)(x=x, y=batch.y, tod=batch.tod, dow=batch.dow)


class _PoisonOps(Instrument):
    """Context manager: poison the first invocation of a named primitive op.

    An :class:`~repro.tensor.instrument.Instrument` wrapping that op alone,
    attached on ``__enter__`` and detached on ``__exit__``; it composes with
    ``detect_anomaly``/``Profiler`` (whichever enters later is outermost)
    and with other poisoners.  The corrupted output is written through
    :meth:`~repro.tensor.Tensor.copy_`, so the mutation sanitizer's version
    counters stay honest.
    """

    exclusive = False

    def __init__(self, op: str, value: float) -> None:
        self.op_table = tuple(entry for entry in TENSOR_OPS if entry[1] == op)
        self.value = value
        self._fired = False

    def _poison(self, result) -> None:
        target = result[0] if isinstance(result, (list, tuple)) else result
        if not isinstance(target, Tensor):
            return
        data = np.array(target.data, copy=True)
        data.reshape(-1)[0] = self.value
        target.copy_(data)

    def wrap_op(self, fn, op_name: str):
        def poisoned(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not self._fired:
                self._fired = True
                self._poison(out)
            return out

        poisoned.__name__ = getattr(fn, "__name__", op_name)
        poisoned.__doc__ = fn.__doc__
        return poisoned


class ActivationFault(Fault):
    """Poison the output of one primitive op during one training step."""

    def __init__(self, step: int | None, op: str = "relu", mode: str = "nan") -> None:
        super().__init__(step)
        known = {name for _, name, _ in TENSOR_OPS}
        if op not in known:
            raise ValueError(f"unknown op {op!r}; known ops: {sorted(known)}")
        self.op = op
        self.value = _corrupt_value(mode)

    def activation_context(self, step: int):
        """Return the op-poisoning context manager when this step is targeted."""
        if not self._fires_at(step):
            return None
        return _PoisonOps(self.op, self.value)


class GradientFault(Fault):
    """Overwrite the first available parameter gradient with NaN/Inf."""

    def __init__(self, step: int | None, mode: str = "nan") -> None:
        super().__init__(step)
        self.value = _corrupt_value(mode)

    def corrupt_gradients(self, step: int, parameters) -> None:
        """Poison the first parameter that received a gradient this step."""
        if not self._fires_at(step):
            return
        for param in parameters:
            if param.grad is not None:
                param.grad.reshape(-1)[0] = self.value
                return


class CrashFault(Fault):
    """Raise :class:`SimulatedCrash` at the end of a chosen epoch.

    The trainer invokes :meth:`after_epoch` *after* writing the epoch's
    training-state checkpoint, so a run killed here is exactly resumable —
    the scenario the kill-and-resume equivalence test exercises.
    """

    def __init__(self, epoch: int) -> None:
        super().__init__(None)
        self.epoch = epoch

    def after_epoch(self, epoch: int) -> None:
        """Raise when the targeted epoch finishes."""
        if epoch == self.epoch:
            raise SimulatedCrash(f"simulated process kill after epoch {epoch + 1}")


@contextlib.contextmanager
def _entered(contexts):
    """Enter ``contexts`` in order; exit them in reverse order."""
    with contextlib.ExitStack() as stack:
        for ctx in contexts:
            stack.enter_context(ctx)
        yield


class FaultSchedule:
    """A composition of :class:`Fault` injectors, consumed by the trainer.

    The trainer calls the four hooks at fixed points of its loop:
    :meth:`corrupt_batch` before the forward pass, :meth:`activation_context`
    around forward+backward, :meth:`corrupt_gradients` after backward, and
    :meth:`after_epoch` once the epoch's checkpoint is on disk.
    """

    def __init__(self, faults) -> None:
        self.faults = list(faults)

    def corrupt_batch(self, step: int, batch):
        """Run the batch through every injector's :meth:`Fault.corrupt_batch`."""
        for fault in self.faults:
            batch = fault.corrupt_batch(step, batch)
        return batch

    def activation_context(self, step: int):
        """Compose the op-poisoning contexts active at ``step``."""
        contexts = [
            ctx
            for fault in self.faults
            if (ctx := fault.activation_context(step)) is not None
        ]
        return _entered(contexts)

    def corrupt_gradients(self, step: int, parameters) -> None:
        """Let every injector poison gradients for ``step``."""
        parameters = list(parameters)
        for fault in self.faults:
            fault.corrupt_gradients(step, parameters)

    def after_epoch(self, epoch: int) -> None:
        """Run the between-epoch hooks (may raise :class:`SimulatedCrash`)."""
        for fault in self.faults:
            fault.after_epoch(epoch)
