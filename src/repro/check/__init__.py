"""Correctness tooling for the autodiff engine and the model zoo.

Four passes, complementing the observability layer (:mod:`repro.obs`) with
enforcement (see ``docs/static-analysis.md`` and ``docs/tape-analysis.md``):

* :mod:`repro.check.sanitizers` — runtime autodiff sanitizers:
  :func:`guard_mutations` certifies that no tensor saved for backward was
  mutated in place between forward and backward (version counters), and
  :func:`detect_anomaly` raises on the first NaN/Inf naming the originating
  forward op.  Both attach through :mod:`repro.tensor.instrument`: zero
  overhead when not active, and any exit order leaves the engine clean.
* :mod:`repro.check.analyzer` — static model analysis: runs every registered
  model against dataset presets on a minimal probe batch and reports shape
  contract breaks, float64 drift inside the op graph, and dead parameters
  (registered but unreachable by gradients).
* :mod:`repro.check.tape` — static tape-IR analysis: records one
  forward+backward per (model, preset) into a flat SSA-like program and
  proves lifetime/arena, mutation-hazard, dead-value, and fusion
  properties over it (rules T001–T004).
* :mod:`repro.check.linter` — AST linter with repo-specific rules
  (R001–R012): global RNG use, missing ``super().__init__``, unregistered
  parameters, raw ``.data`` writes, wall-clock access outside the shared
  timer, non-atomic writes of persistent state, per-sample Python loops
  over batch indices, model forwards inside :mod:`repro.serve` outside
  the micro-batcher, evaluation/serving forwards outside
  ``inference_mode()``, unseeded scenario events, and engine patches
  outside the instrumentation seam.

Entry points: ``repro check`` / ``repro check tape`` / ``repro lint`` on
the command line, ``make lint`` / ``make check-tape`` / ``make ci`` in the
build, and the functions re-exported here in code.
"""

from .analyzer import (
    ANALYZER_SCHEMA,
    ModelCheck,
    analyze_model,
    analyze_models,
    format_model_report,
    model_report_dict,
)
from .linter import (
    DEFAULT_LINT_PATHS,
    Finding,
    LINT_RULES,
    LintRun,
    format_findings,
    lint_file,
    lint_file_report,
    lint_paths,
    lint_paths_report,
)
from .sanitizers import (
    AnomalyError,
    InplaceMutationError,
    SanitizerError,
    detect_anomaly,
    guard_mutations,
    set_event_sink,
)
from .tape import (
    TAPE_RULES,
    TAPE_SCHEMA,
    TapeAudit,
    TapeFinding,
    TapeProgram,
    audit_model,
    audit_models,
    format_tape_report,
    record_program,
    tape_report_dict,
)

__all__ = [
    "ANALYZER_SCHEMA",
    "AnomalyError",
    "DEFAULT_LINT_PATHS",
    "Finding",
    "InplaceMutationError",
    "LINT_RULES",
    "LintRun",
    "ModelCheck",
    "SanitizerError",
    "TAPE_RULES",
    "TAPE_SCHEMA",
    "TapeAudit",
    "TapeFinding",
    "TapeProgram",
    "analyze_model",
    "analyze_models",
    "audit_model",
    "audit_models",
    "detect_anomaly",
    "format_findings",
    "format_model_report",
    "format_tape_report",
    "guard_mutations",
    "lint_file",
    "lint_file_report",
    "lint_paths",
    "lint_paths_report",
    "model_report_dict",
    "record_program",
    "set_event_sink",
    "tape_report_dict",
]
