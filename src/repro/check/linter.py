"""AST linter with repo-specific rules the generic tools cannot express.

Eleven rules (R001–R011), each encoding an invariant this codebase relies on
for reproducibility or correctness — see ``docs/static-analysis.md`` for the
full rationale table:

========  ==============================================================
R001      no global numpy RNG (``np.random.*`` module state, or an
          unseeded ``np.random.default_rng()``) — randomness must flow
          from :mod:`repro.utils.seed` so runs are reproducible
R002      every ``nn.Module`` subclass that defines ``__init__`` must
          call ``super().__init__()`` — otherwise the registration dicts
          do not exist and parameters silently vanish
R003      learnable arrays in a Module ``__init__`` must be wrapped in
          :class:`~repro.nn.Parameter` — a bare ``init.*`` result or a
          ``Tensor(..., requires_grad=True)`` is invisible to
          ``parameters()``, the optimizer and ``state_dict()``
R004      no writes to ``.data`` outside the optimizer package and the
          engine itself — use :meth:`~repro.tensor.Tensor.copy_`, which
          bumps the version counter the mutation sanitizer checks
R005      no direct wall-clock reads (``time.time()`` etc.) outside
          :mod:`repro.utils.timer` — profiles and telemetry must share
          one clock
R006      persistent state must be written atomically — no raw
          ``np.savez*`` outside :mod:`repro.utils.atomic`, and no
          truncating ``open(..., "w")`` inside the state-persisting
          modules; a crash mid-write must never corrupt a checkpoint
R007      no per-sample Python loops over batch indices inside the data
          and training packages — batches must be assembled with one
          vectorized gather (fancy indexing), not a ``for i in
          indices`` / ``range(num_samples)`` loop, which dominates the
          train-step time (see benchmarks/results/train_step.json)
R008      no model forwards inside :mod:`repro.serve` outside the
          micro-batcher — every serving-path forward must flow through
          ``microbatch.py`` so requests coalesce into one batched pass
          and the throughput gate in ``benchmarks/results/serve.json``
          stays honest
R009      no model forwards in the sharded serving modules (router,
          transport, shard, loadgen) — requests must cross the
          engine/transport seam as ops and forwards stay inside each
          worker's micro-batcher; also catches invoking a freshly
          ``instantiate()``-d model directly, which R008's name
          heuristic cannot see
R010      model forwards in the evaluation/serving entry points
          (``evaluate_split``/``predict_split`` and the serving
          micro-batcher) must run under ``inference_mode()`` (or
          ``Module.inference()``) — an unguarded forward there records
          graph nodes that nobody will backpropagate
R011      every event class in :mod:`repro.data.events` must declare an
          explicit ``seed``/``rng`` field, and the module must not draw
          from an argless ``default_rng()`` — scenario schedules are
          replayed for conditional evaluation, so an event with hidden
          randomness can never reproduce the stream it perturbed
========  ==============================================================

Suppression: append ``# lint: disable`` (all rules) or
``# lint: disable=R004`` (one rule) to the offending line.  Suppressed
findings are not silently dropped: :class:`LintRun` carries them so
``repro lint`` can report the suppression count while still exiting 0.

The linter parses files with :mod:`ast` — it never imports them — so it is
safe on any tree, and runs over :data:`DEFAULT_LINT_PATHS` in well under a
second.  Entry points: :func:`lint_paths`, ``repro lint``, ``make lint``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_LINT_PATHS",
    "Finding",
    "LINT_RULES",
    "LintRun",
    "format_findings",
    "lint_file",
    "lint_file_report",
    "lint_paths",
    "lint_paths_report",
]

DEFAULT_LINT_PATHS = ("src", "examples", "benchmarks")

LINT_RULES = {
    "R001": "use the seeded RNG from repro.utils.seed, not global numpy random state",
    "R002": "nn.Module subclass __init__ must call super().__init__()",
    "R003": "learnable arrays must be registered as nn.Parameter",
    "R004": "no .data writes outside optim/ and the engine; use Tensor.copy_",
    "R005": "use repro.utils.timer.now(), not direct wall-clock reads",
    "R006": "persist state via repro.utils.atomic, not raw np.savez/open-for-write",
    "R007": "no per-sample Python loops over batch indices; use one vectorized gather",
    "R008": "no model forwards in repro.serve outside the micro-batcher",
    "R009": "no model forwards in the sharded serving modules; cross the transport as ops",
    "R010": "evaluation/serving model forwards must run under inference_mode()",
    "R011": "event classes must declare an explicit seed/rng field; no argless default_rng()",
}

# Paths (posix, repo-relative prefixes) where a rule legitimately does not
# apply: the optimizer and the engine own .data (R004); the shared timer is
# the one place allowed to read the wall clock (R005).
_DATA_WRITE_ALLOWED = ("src/repro/optim/", "src/repro/tensor/tensor.py")
_WALL_CLOCK_ALLOWED = ("src/repro/utils/timer.py",)

# R006: atomic persistence.  np.savez* may only appear inside the atomic
# write helper; the modules that persist state (checkpoints, datasets,
# telemetry) must additionally not truncate files with open(..., "w") —
# append-mode logs and reads are fine.
_ATOMIC_WRITE_ALLOWED = ("src/repro/utils/atomic.py",)
_PERSIST_STATE_PATHS = (
    "src/repro/utils/checkpoint.py",
    "src/repro/data/io.py",
    "src/repro/obs/sinks.py",
)

# np.random attributes that touch the module-global RandomState.
_GLOBAL_RNG_ATTRS = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "binomial", "poisson", "beta", "gamma", "exponential", "get_state",
    "set_state", "RandomState",
})

_WALL_CLOCK_FNS = frozenset({"time", "perf_counter", "monotonic", "process_time"})

# R007 applies only where batches are assembled and consumed — the hot paths
# the train-step benchmark gates.
_PER_SAMPLE_LOOP_PATHS = ("src/repro/data/", "src/repro/training/")

# Iterable names that denote per-sample batch indices.
_BATCH_INDEX_NAMES = frozenset({"indices", "idx", "idxs", "batch_indices", "sample_indices"})

# R008: inside the serving package every model forward must go through the
# micro-batcher, so single-request forwards sprinkled elsewhere in the
# package cannot silently bypass request coalescing.
_SERVE_PATHS = ("src/repro/serve/",)
_SERVE_FORWARD_ALLOWED = ("src/repro/serve/microbatch.py",)
_SERVE_MODEL_NAMES = frozenset({"model", "servable"})

# R009: the sharded serving modules sit on the caller side of the
# engine/transport seam and must never run a forward themselves — not even
# one R008's name heuristic misses, like calling an ``instantiate()`` result
# in place.  Reported instead of (not alongside) R008 in these files.
_SCALE_PATHS = (
    "src/repro/serve/router.py",
    "src/repro/serve/transport.py",
    "src/repro/serve/shard.py",
    "src/repro/serve/loadgen.py",
    "src/repro/serve/supervise.py",
)
_INSTANTIATE_NAMES = frozenset({"instantiate", "instantiate_fresh"})

# R010: the inference entry points — split evaluation/prediction and the
# serving micro-batcher (the one sanctioned forward site in repro.serve).
# Forwards here must sit inside `with inference_mode():` (or the
# `Module.inference()` shorthand) so no graph nodes are recorded.
_INFERENCE_REQUIRED_PATHS = (
    "src/repro/training/evaluation.py",
    "src/repro/serve/microbatch.py",
)
_INFERENCE_CONTEXT_NAMES = frozenset({"inference_mode", "inference", "no_grad"})

# R011: the event model.  Scenario events are seeded and replayed (the same
# schedule must perturb the stream and build its ground-truth effect masks),
# so every concrete event class must carry its randomness explicitly — a
# declared ``seed``/``rng`` field — and the module may never reach for an
# argless ``default_rng()``.
_EVENT_PATHS = ("src/repro/data/events.py",)
_EVENT_BASE_NAMES = frozenset({"Event"})
_EVENT_SEED_FIELDS = frozenset({"seed", "rng"})

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable(?:=(?P<rules>[\w,\s]+))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line: RULE message`` — the one-line report form."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _suppressed_rules(source_lines: list[str]) -> dict[int, set[str] | None]:
    """Map line number -> suppressed rule set (``None`` = all rules)."""
    suppressed: dict[int, set[str] | None] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match:
            rules = match.group("rules")
            suppressed[lineno] = (
                {r.strip() for r in rules.split(",")} if rules else None
            )
    return suppressed


def _is_np_random(node: ast.expr) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _is_module_base(base: ast.expr) -> bool:
    """True when a class base names the nn ``Module`` class."""
    if isinstance(base, ast.Name):
        return base.id == "Module"
    return isinstance(base, ast.Attribute) and base.attr == "Module"


def _calls_super_init(init_fn: ast.FunctionDef) -> bool:
    for node in ast.walk(init_fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super"
        ):
            return True
    return False


def _is_learnable_value(node: ast.expr) -> bool:
    """True when an expression builds a learnable array outside Parameter.

    Matches calls to the initializers (``init.xavier_uniform(...)`` etc.)
    and explicit ``Tensor(..., requires_grad=True)``; conditional
    expressions are checked on both branches.
    """
    if isinstance(node, ast.IfExp):
        return _is_learnable_value(node.body) or _is_learnable_value(node.orelse)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "init":
        return True
    if isinstance(func, ast.Name) and func.id == "Tensor":
        return any(
            kw.arg == "requires_grad"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._data_write_allowed = any(path.startswith(p) for p in _DATA_WRITE_ALLOWED)
        self._wall_clock_allowed = any(path.startswith(p) for p in _WALL_CLOCK_ALLOWED)
        self._atomic_write_allowed = any(path.startswith(p) for p in _ATOMIC_WRITE_ALLOWED)
        self._persists_state = any(path.startswith(p) for p in _PERSIST_STATE_PATHS)
        self._batch_loop_scoped = any(path.startswith(p) for p in _PER_SAMPLE_LOOP_PATHS)
        self._serve_forward_scoped = any(
            path.startswith(p) for p in _SERVE_PATHS
        ) and not any(path.startswith(p) for p in _SERVE_FORWARD_ALLOWED)
        self._scale_scoped = path in _SCALE_PATHS
        self._inference_required = path in _INFERENCE_REQUIRED_PATHS
        self._inference_depth = 0
        self._event_scoped = path in _EVENT_PATHS

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, rule, message))

    # -- R001 ----------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_np_random(node.value) and node.attr in _GLOBAL_RNG_ATTRS:
            self._report(
                node, "R001",
                f"np.random.{node.attr} uses global RNG state; "
                "use repro.utils.seed.get_rng()/spawn_rng()",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # R001: unseeded default_rng() — reproducible only by accident.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "default_rng"
            and _is_np_random(node.func.value)
            and not node.args
            and not node.keywords
        ):
            self._report(
                node, "R001",
                "unseeded np.random.default_rng(); "
                "use repro.utils.seed.get_rng()/spawn_rng()",
            )
        # R005: direct wall-clock reads.
        if (
            not self._wall_clock_allowed
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _WALL_CLOCK_FNS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
        ):
            self._report(
                node, "R005",
                f"time.{node.func.attr}() bypasses the shared clock; "
                "use repro.utils.timer.now()",
            )
        # R006: raw np.savez* anywhere outside the atomic-write helper.
        if (
            not self._atomic_write_allowed
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("savez", "savez_compressed")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            self._report(
                node, "R006",
                f"np.{node.func.attr} is not crash-safe; "
                "use repro.utils.atomic.atomic_savez",
            )
        # R008/R009: model forwards inside repro.serve outside the
        # micro-batcher.  The sharded serving modules get the stricter,
        # more specific R009 instead of R008.
        if self._serve_forward_scoped and self._is_model_forward(node):
            if self._scale_scoped:
                self._report(
                    node, "R009",
                    "model forward on the caller side of the transport seam; "
                    "send a forecast op to the worker instead",
                )
            else:
                self._report(
                    node, "R008",
                    "model forward outside the micro-batcher; "
                    "submit requests through repro.serve.MicroBatcher",
                )
        # R009: invoking a freshly instantiated model in place —
        # bundle.instantiate()(x) — which the name heuristic cannot see.
        if self._scale_scoped and self._is_instantiate_forward(node):
            self._report(
                node, "R009",
                "calling an instantiate() result runs a forward here; "
                "forwards belong inside the worker's micro-batcher",
            )
        # R010: forwards in the inference entry points must be guarded.
        if (
            self._inference_required
            and self._inference_depth == 0
            and self._is_model_forward(node)
        ):
            self._report(
                node, "R010",
                "model forward in an inference entry point outside "
                "inference_mode(); wrap it in `with inference_mode():` "
                "(or Module.inference())",
            )
        # R011: an argless default_rng() inside the event module draws from
        # OS entropy — the schedule can never be replayed.  (R001 catches
        # the np.random-qualified spelling; this catches the bare import.)
        if (
            self._event_scoped
            and isinstance(node.func, ast.Name)
            and node.func.id == "default_rng"
            and not node.args
            and not node.keywords
        ):
            self._report(
                node, "R011",
                "argless default_rng() in the event module; "
                "draw from the event's declared seed field",
            )
        # R006: truncating open() inside the state-persisting modules.
        if (
            self._persists_state
            and isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and self._opens_for_write(node)
        ):
            self._report(
                node, "R006",
                "open-for-write truncates on crash; "
                "use repro.utils.atomic.atomic_write",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_model_forward(node: ast.Call) -> bool:
        """True when a call invokes a model directly (R008).

        Matches ``model(...)`` / ``servable(...)`` calls through a bare name
        or a terminal attribute (``self.model(...)``), plus any explicit
        ``something.forward(...)`` invocation.
        """
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _SERVE_MODEL_NAMES
        if isinstance(func, ast.Attribute):
            return func.attr in _SERVE_MODEL_NAMES or func.attr == "forward"
        return False

    @staticmethod
    def _is_instantiate_forward(node: ast.Call) -> bool:
        """True for ``bundle.instantiate(...)(x)``-shaped calls (R009)."""
        func = node.func
        return (
            isinstance(func, ast.Call)
            and isinstance(func.func, ast.Attribute)
            and func.func.attr in _INSTANTIATE_NAMES
        )

    @staticmethod
    def _opens_for_write(node: ast.Call) -> bool:
        """True when an ``open`` call passes a mode string containing ``w``."""
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and "w" in mode.value
        )

    # -- R010 ----------------------------------------------------------
    @staticmethod
    def _is_inference_context(expr: ast.expr) -> bool:
        """True for ``inference_mode()`` / ``model.inference()`` / ``no_grad()``."""
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        if isinstance(func, ast.Name):
            return func.id in _INFERENCE_CONTEXT_NAMES
        return isinstance(func, ast.Attribute) and func.attr in _INFERENCE_CONTEXT_NAMES

    def _visit_with(self, node) -> None:
        guarded = self._inference_required and any(
            self._is_inference_context(item.context_expr) for item in node.items
        )
        if guarded:
            self._inference_depth += 1
        self.generic_visit(node)
        if guarded:
            self._inference_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- R011 ----------------------------------------------------------
    @staticmethod
    def _is_event_base(base: ast.expr) -> bool:
        """True when a class base names the events ``Event`` base class."""
        if isinstance(base, ast.Name):
            return base.id in _EVENT_BASE_NAMES
        return isinstance(base, ast.Attribute) and base.attr in _EVENT_BASE_NAMES

    @staticmethod
    def _declares_seed_field(node: ast.ClassDef) -> bool:
        """True when the class declares a ``seed``/``rng`` dataclass field
        or takes one as an ``__init__`` parameter."""
        for item in node.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id in _EVENT_SEED_FIELDS
            ):
                return True
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in _EVENT_SEED_FIELDS
                for t in item.targets
            ):
                return True
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                args = item.args
                names = [a.arg for a in args.args + args.kwonlyargs]
                if any(name in _EVENT_SEED_FIELDS for name in names):
                    return True
        return False

    # -- R002 / R003 ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if (
            self._event_scoped
            and any(self._is_event_base(base) for base in node.bases)
            and not self._declares_seed_field(node)
        ):
            self._report(
                node, "R011",
                f"event class {node.name} declares no explicit seed/rng "
                "field; scenario events must carry their randomness so "
                "schedules replay bit-identically",
            )
        if any(_is_module_base(base) for base in node.bases):
            init_fn = next(
                (
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                ),
                None,
            )
            if init_fn is not None:
                if not _calls_super_init(init_fn):
                    self._report(
                        init_fn, "R002",
                        f"{node.name}.__init__ never calls super().__init__(); "
                        "parameter/submodule registration will not work",
                    )
                self._check_parameter_registration(node.name, init_fn)
        self.generic_visit(node)

    def _check_parameter_registration(self, class_name: str, init_fn: ast.FunctionDef) -> None:
        for stmt in ast.walk(init_fn):
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in stmt.targets
            ):
                continue
            if _is_learnable_value(stmt.value):
                self._report(
                    stmt, "R003",
                    f"learnable array assigned raw in {class_name}.__init__; "
                    "wrap it in nn.Parameter so it is registered",
                )

    # -- R007 ----------------------------------------------------------
    @staticmethod
    def _is_batch_index_iterable(node: ast.expr) -> bool:
        """True when a loop iterates per-sample over batch indices.

        Matches iteration over a name/attribute called ``indices`` (and
        friends) and ``range(...)`` driven by ``num_samples``.
        """
        if isinstance(node, ast.Name) and node.id in _BATCH_INDEX_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _BATCH_INDEX_NAMES:
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
        ):
            for arg in node.args:
                terminal = (
                    arg.attr if isinstance(arg, ast.Attribute)
                    else arg.id if isinstance(arg, ast.Name)
                    else None
                )
                if terminal == "num_samples":
                    return True
        return False

    def _check_per_sample_loop(self, iter_node: ast.expr, report_node: ast.AST) -> None:
        if self._batch_loop_scoped and self._is_batch_index_iterable(iter_node):
            self._report(
                report_node, "R007",
                "per-sample Python loop over batch indices; "
                "assemble the batch with one vectorized gather (fancy indexing)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_per_sample_loop(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_per_sample_loop(generator.iter, node)
        self.generic_visit(node)

    visit_GeneratorExp = _visit_comprehension
    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- R004 ----------------------------------------------------------
    def _is_data_write_target(self, target: ast.expr) -> bool:
        # `self.data = ...` is a container storing an attribute that happens
        # to be called "data" (e.g. Trainer.data), not a tensor mutation —
        # every real violation writes through a tensor-valued name instead
        # (`param.data`, `target.data`, ...).
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "data"
            and not (isinstance(target.value, ast.Name) and target.value.id == "self")
        ):
            return True
        # t.data[...] = x — the slice write the version counter cannot see.
        return (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "data"
            and not (
                isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._data_write_allowed:
            for target in node.targets:
                if self._is_data_write_target(target):
                    self._report(
                        node, "R004",
                        ".data write bypasses the version counter; use Tensor.copy_",
                    )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._data_write_allowed and self._is_data_write_target(node.target):
            self._report(
                node, "R004",
                "in-place .data update bypasses the version counter; use Tensor.copy_",
            )
        self.generic_visit(node)


@dataclass(frozen=True)
class LintRun:
    """Result of a lint pass: surviving findings plus what was suppressed.

    ``findings`` decide the exit code; ``suppressed`` exist so a run where
    every finding carries a ``# lint: disable`` still *reports* how much
    was waved through instead of silently printing "clean".
    """

    findings: tuple[Finding, ...]
    suppressed: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        """True when no finding survived suppression (exit code 0)."""
        return not self.findings


def lint_file_report(
    path: str | Path, *, relative_to: str | Path | None = None
) -> LintRun:
    """Lint one python file, keeping suppressed findings on the side.

    ``relative_to`` controls the repo-relative path used for reports and the
    R004/R005/R006 allowlists (defaults to the path as given).
    """
    path = Path(path)
    rel = path.relative_to(relative_to).as_posix() if relative_to else path.as_posix()
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    visitor = _Visitor(rel)
    visitor.visit(tree)
    suppressions = _suppressed_rules(source.splitlines())
    kept: list[Finding] = []
    silenced: list[Finding] = []
    for finding in visitor.findings:
        rules = suppressions.get(finding.line, ())
        if rules is None or (rules and finding.rule in rules):
            silenced.append(finding)
        else:
            kept.append(finding)
    return LintRun(findings=tuple(kept), suppressed=tuple(silenced))


def lint_file(path: str | Path, *, relative_to: str | Path | None = None) -> list[Finding]:
    """Lint one python file; returns surviving (non-suppressed) findings."""
    return list(lint_file_report(path, relative_to=relative_to).findings)


def lint_paths_report(
    paths: tuple[str, ...] | list[str] = DEFAULT_LINT_PATHS,
    *,
    root: str | Path = ".",
) -> LintRun:
    """Lint every ``*.py`` file under ``paths``, with suppression stats.

    Missing paths are skipped, so the default set works from any checkout.
    Both finding lists come back sorted by (path, line, rule).
    """
    root = Path(root)
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for entry in paths:
        base = root / entry
        if base.is_file():
            files = [base]
        elif base.is_dir():
            files = sorted(base.rglob("*.py"))
        else:
            continue
        for file in files:
            run = lint_file_report(file, relative_to=root)
            findings.extend(run.findings)
            suppressed.extend(run.suppressed)
    key = lambda f: (f.path, f.line, f.rule)  # noqa: E731
    return LintRun(
        findings=tuple(sorted(findings, key=key)),
        suppressed=tuple(sorted(suppressed, key=key)),
    )


def lint_paths(
    paths: tuple[str, ...] | list[str] = DEFAULT_LINT_PATHS,
    *,
    root: str | Path = ".",
) -> list[Finding]:
    """Lint every ``*.py`` file under ``paths`` (relative to ``root``)."""
    return list(lint_paths_report(paths, root=root).findings)


def format_findings(findings: list[Finding], *, suppressed: int = 0) -> str:
    """Human-readable report: one line per finding plus a summary line.

    ``suppressed`` is the count of findings silenced by ``# lint:
    disable`` comments; it is always mentioned in the summary when
    non-zero, so a fully suppressed run does not masquerade as clean.
    """
    note = f", {suppressed} suppressed" if suppressed else ""
    if not findings:
        return f"lint: clean{note}" if note else "lint: clean"
    lines = [finding.format() for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s){note}")
    return "\n".join(lines)
