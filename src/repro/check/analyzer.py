"""Static model analysis: shape contract, dtype drift, dead parameters.

:func:`analyze_models` instantiates every registered neural model against
dataset presets and certifies three properties per (model, dataset) pair —
without training, on a minimal probe batch, in seconds for the whole zoo:

* **shape contract** — the forward output must be ``(batch, horizon,
  num_nodes, channels)``, the invariant every trainer, metric and benchmark
  in this repository assumes;
* **dtype discipline** — all parameters are float32 and no op inside the
  forward/backward graph computes in float64.  The engine silently downcasts
  float64 results at tensor creation (:class:`repro.tensor.Tensor`), so
  float64 intermediates never surface as wrong dtypes — they surface as 2×
  memory traffic.  The analyzer intercepts op results *before* that downcast
  with an instrument on ``Tensor._make`` while the probe runs;
* **dead parameters** — parameters that are registered (so the optimizer
  updates them and checkpoints store them) but unreachable by gradients from
  the output.  Dead parameters silently inflate model size claims and
  invalidate "number of parameters" comparisons across baselines.

Reports are both machine-readable (:func:`model_report_dict`, schema
:data:`ANALYZER_SCHEMA`) and human-readable (:func:`format_model_report`);
``repro check`` is the CLI front end and exits non-zero on findings.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..data import PRESETS, build_forecasting_data, load_dataset
from ..models import NEURAL, build_model, canonical_model
from ..nn.module import Module
from ..tensor.instrument import Instrument
from ..tensor.tensor import Tensor
from ..utils.seed import set_seed

__all__ = [
    "ANALYZER_SCHEMA",
    "ModelCheck",
    "analyze_model",
    "analyze_models",
    "format_model_report",
    "model_report_dict",
]

ANALYZER_SCHEMA = "repro.check.models/v1"


@dataclass
class ModelCheck:
    """The analyzer's verdict for one (model, dataset) pair."""

    model: str
    dataset: str
    num_parameters: int
    output_shape: tuple[int, ...]
    expected_shape: tuple[int, ...]
    dead_parameters: list[str] = field(default_factory=list)
    dtype_violations: list[str] = field(default_factory=list)
    float64_ops: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the pair passed every check."""
        return not self.findings()

    def findings(self) -> list[str]:
        """Human-readable description of every violated property."""
        found = []
        if self.output_shape != self.expected_shape:
            found.append(
                f"output shape {self.output_shape} breaks the "
                f"(batch, horizon, nodes, channels) contract {self.expected_shape}"
            )
        for name in self.dead_parameters:
            found.append(f"dead parameter {name!r}: registered but unreachable by gradients")
        for violation in self.dtype_violations:
            found.append(f"dtype violation: {violation}")
        for op in self.float64_ops:
            found.append(f"float64 compute: {op}")
        return found

    def to_dict(self) -> dict:
        """JSON-ready mapping for the machine-readable report."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "num_parameters": self.num_parameters,
            "output_shape": list(self.output_shape),
            "expected_shape": list(self.expected_shape),
            "dead_parameters": self.dead_parameters,
            "dtype_violations": self.dtype_violations,
            "float64_ops": self.float64_ops,
            "ok": self.ok,
        }


class _Float64Probe(Instrument):
    """Records (op, innermost module class) for each float64 op result."""

    def __init__(self) -> None:
        self.hits: dict[tuple[str, str], None] = {}
        self._scopes: list[str] = []

    def wrap_make(self, make: Callable[..., Tensor]) -> Callable[..., Tensor]:
        def checking_make(data: Any, parents: Any, backward: Any, op: str) -> Tensor:
            if getattr(data, "dtype", None) == np.float64:
                scope = self._scopes[-1] if self._scopes else "<top>"
                self.hits[(op, scope)] = None
            return make(data, parents, backward, op)

        return checking_make

    @contextlib.contextmanager
    def wrap_scope(self, module: Any) -> Iterator[None]:
        self._scopes.append(type(module).__name__)
        try:
            yield
        finally:
            self._scopes.pop()


def analyze_model(
    model: Module,
    *,
    name: str,
    dataset: str,
    x: np.ndarray,
    tod: np.ndarray,
    dow: np.ndarray,
    horizon: int,
) -> ModelCheck:
    """Run the three checks on one constructed model with one probe batch.

    The model is put in eval mode, run forward once with op-level float64
    interception and module-scope tracking, then backpropagated from
    ``output.sum()`` to establish gradient reachability of every parameter.
    """
    check = ModelCheck(
        model=name,
        dataset=dataset,
        num_parameters=model.num_parameters(),
        output_shape=(),
        expected_shape=(x.shape[0], horizon, x.shape[2], x.shape[3]),
    )
    for param_name, param in model.named_parameters():
        if param.dtype != np.float32:
            check.dtype_violations.append(f"parameter {param_name!r} is {param.dtype}")

    with _Float64Probe() as probe:
        model.eval()
        model.zero_grad()
        output = model(x, tod, dow)
        check.output_shape = tuple(output.shape)
        if np.issubdtype(output.dtype, np.floating) and output.dtype != np.float32:
            check.dtype_violations.append(f"forward output is {output.dtype}")
        output.sum().backward()

    check.float64_ops = [f"op '{op}' in scope '{scope}'" for op, scope in sorted(probe.hits)]
    check.dead_parameters = [
        param_name
        for param_name, param in model.named_parameters()
        if param.grad is None
    ]
    model.zero_grad()
    return check


def analyze_models(
    models: list[str] | None = None,
    datasets: list[str] | None = None,
    *,
    num_nodes: int = 6,
    num_steps: int = 420,
    hidden: int = 8,
    layers: int = 1,
    batch_size: int = 2,
    seed: int = 0,
) -> list[ModelCheck]:
    """Analyze registered neural models against dataset presets.

    Defaults cover the full grid — every neural model × every preset — at
    probe size (6 nodes, 420 steps, batch 2), which keeps the whole sweep in
    the seconds range.  Statistical models carry no tensor graph and are
    skipped (requesting one raises ``ValueError``).
    """
    names = [canonical_model(name) for name in models] if models else list(NEURAL)
    for name in names:
        if name not in NEURAL:
            raise ValueError(f"{name} is a statistical model: nothing to analyze")
    checks = []
    for dataset_name in datasets or list(PRESETS):
        data = build_forecasting_data(
            load_dataset(dataset_name, num_nodes=num_nodes, num_steps=num_steps)
        )
        batch = next(iter(data.loader("train", batch_size=batch_size, shuffle=False)))
        horizon = data.windows.horizon
        for name in names:
            set_seed(seed)
            model, _ = build_model(name, data, hidden=hidden, layers=layers)
            checks.append(
                analyze_model(
                    model, name=name, dataset=dataset_name,
                    x=batch.x, tod=batch.tod, dow=batch.dow, horizon=horizon,
                )
            )
    return checks


def model_report_dict(checks: list[ModelCheck]) -> dict:
    """Machine-readable report (schema :data:`ANALYZER_SCHEMA`)."""
    return {
        "schema": ANALYZER_SCHEMA,
        "generated_by": "repro check",
        "checks": [check.to_dict() for check in checks],
        "findings_total": sum(len(check.findings()) for check in checks),
    }


def format_model_report(checks: list[ModelCheck]) -> str:
    """Human-readable table plus one line per finding."""
    lines = [f"{'model':<14} {'dataset':<14} {'params':>8} {'output':<18} {'status'}"]
    for check in checks:
        status = "ok" if check.ok else f"{len(check.findings())} finding(s)"
        lines.append(
            f"{check.model:<14} {check.dataset:<14} {check.num_parameters:>8,} "
            f"{str(check.output_shape):<18} {status}"
        )
    for check in checks:
        for finding in check.findings():
            lines.append(f"  {check.model} @ {check.dataset}: {finding}")
    total = sum(len(check.findings()) for check in checks)
    lines.append(f"check: {total} finding(s)")
    return "\n".join(lines)
