"""Op-level profiler for the tensor engine.

:class:`Profiler` answers "where does a training step spend its time?" on
the numpy substrate, the way ``torch.profiler`` would on the original
implementation.  While active it records, for every primitive tensor op and
every composite in :data:`repro.tensor.functional.PROFILED_COMPOSITES`:

* **count** — how many times the op executed,
* **time** — inclusive wall-clock seconds (shared clock, `repro.utils.now`),
* **bytes** — output allocation for forward ops, incoming-gradient size for
  backward ops,

split by **phase** (``forward`` / ``backward``), plus a named-scope
breakdown of :class:`~repro.nn.Module` forward calls (inclusive and self
time per scope).

Zero overhead when disabled
---------------------------
The profiler is an :class:`~repro.tensor.instrument.Instrument` timing
every op, backward closure and module scope while attached; outside a
profiling block the unmodified engine runs.  It also swaps the composites on
``repro.tensor.functional`` for timed wrappers for the same span.

Usage::

    from repro.obs import Profiler

    with Profiler() as prof:
        loss = model(batch.x, batch.tod, batch.dow).sum()
        loss.backward()
    print(prof.format_table(top=10))
    payload = prof.to_dict()          # JSON-ready

Only one profiler may be active at a time (nesting raises); it composes
with the other instruments and may exit before or after them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from ..nn.module import Module
from ..tensor import functional as _functional
from ..tensor.instrument import Instrument, attach, detach
from ..tensor.tensor import Tensor
from ..utils.timer import now

__all__ = ["OpStat", "ScopeStat", "Profiler", "annotate_model_scopes"]

SCHEMA = "repro.obs.profile/v1"


def _result_nbytes(value) -> int:
    """Bytes allocated by an op's result (tensor, or a list of tensors)."""
    if isinstance(value, Tensor):
        return int(value.data.nbytes)
    if isinstance(value, (list, tuple)):
        return sum(_result_nbytes(item) for item in value)
    return 0


@dataclass
class OpStat:
    """Aggregate record for one (op, phase) pair."""

    op: str
    phase: str
    count: int = 0
    time: float = 0.0
    bytes: int = 0

    def to_dict(self) -> dict:
        """JSON-ready mapping with ``op/phase/count/time/bytes`` keys."""
        return {
            "op": self.op,
            "phase": self.phase,
            "count": self.count,
            "time": self.time,
            "bytes": self.bytes,
        }


@dataclass
class ScopeStat:
    """Aggregate record for one module scope (see ``Module.scope_name``)."""

    scope: str
    count: int = 0
    time: float = 0.0        # inclusive of child module calls
    self_time: float = 0.0   # exclusive: time minus child module calls

    def to_dict(self) -> dict:
        """JSON-ready mapping with ``scope/count/time/self_time`` keys."""
        return {
            "scope": self.scope,
            "count": self.count,
            "time": self.time,
            "self_time": self.self_time,
        }


@dataclass
class _ScopeFrame:
    name: str
    start: float
    child_time: float = 0.0


class Profiler(Instrument):
    """Context manager that instruments the tensor engine while active.

    See the module docstring for the measurement model.  Attributes after
    (or during) a run:

    ``ops``
        ``{(op, phase): OpStat}`` aggregates.
    ``scopes``
        ``{scope_name: ScopeStat}`` module-forward aggregates.
    ``elapsed``
        wall-clock seconds the profiling block spanned.
    """

    def __init__(self) -> None:
        self.ops: dict[tuple[str, str], OpStat] = {}
        self.scopes: dict[str, ScopeStat] = {}
        self.elapsed: float = 0.0
        self._saved: dict[str, object] = {}
        self._scope_stack: list[_ScopeFrame] = []
        self._started: float = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, op: str, phase: str, seconds: float, nbytes: int) -> None:
        key = (op, phase)
        stat = self.ops.get(key)
        if stat is None:
            stat = self.ops[key] = OpStat(op=op, phase=phase)
        stat.count += 1
        stat.time += seconds
        stat.bytes += nbytes

    def wrap_backward(self, node: Tensor, inner) -> None:
        grad = node.grad
        start = now()
        inner(node)
        self._record(node._op or "leaf", "backward", now() - start,
                     int(grad.nbytes) if grad is not None else 0)

    @contextlib.contextmanager
    def wrap_scope(self, module: Module):
        frame = _ScopeFrame(module.scope_name, now())
        self._scope_stack.append(frame)
        try:
            yield
        finally:
            self._scope_stack.pop()
            total = now() - frame.start
            stat = self.scopes.get(frame.name)
            if stat is None:
                stat = self.scopes[frame.name] = ScopeStat(scope=frame.name)
            stat.count += 1
            stat.time += total
            stat.self_time += total - frame.child_time
            if self._scope_stack:
                self._scope_stack[-1].child_time += total

    def wrap_op(self, fn, op_name: str):
        def profiled(*args, **kwargs):
            start = now()
            out = fn(*args, **kwargs)
            self._record(op_name, "forward", now() - start, _result_nbytes(out))
            return out

        profiled.__name__ = getattr(fn, "__name__", op_name)
        profiled.__doc__ = fn.__doc__
        return profiled

    # ------------------------------------------------------------------
    # Instrumentation lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        attach(self)
        self._started = now()
        self._saved = {name: getattr(_functional, name) for name in _functional.PROFILED_COMPOSITES}
        for name, original in self._saved.items():
            setattr(_functional, name, self.wrap_op(original, name))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._saved.items():
            setattr(_functional, name, original)
        detach(self)
        self.elapsed += now() - self._started

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def top_ops(self, k: int = 10) -> list[OpStat]:
        """The ``k`` hottest (op, phase) aggregates by inclusive time."""
        return sorted(self.ops.values(), key=lambda s: s.time, reverse=True)[:k]

    def distinct_ops(self) -> int:
        """Number of distinct op names seen (phases collapsed)."""
        return len({op for op, _ in self.ops})

    def to_dict(self) -> dict:
        """JSON-ready summary: schema tag, totals, per-op and per-scope rows."""
        ops = sorted(self.ops.values(), key=lambda s: s.time, reverse=True)
        scopes = sorted(self.scopes.values(), key=lambda s: s.time, reverse=True)
        return {
            "schema": SCHEMA,
            "elapsed_seconds": self.elapsed if self.elapsed else now() - self._started,
            "distinct_ops": self.distinct_ops(),
            "ops": [stat.to_dict() for stat in ops],
            "scopes": [stat.to_dict() for stat in scopes],
        }

    def format_table(self, top: int = 10) -> str:
        """Human-readable top-``top`` op table plus the scope breakdown."""
        lines = [f"{'op':<16} {'phase':<9} {'count':>8} {'time s':>9} {'MB':>9}"]
        for stat in self.top_ops(top):
            lines.append(
                f"{stat.op:<16} {stat.phase:<9} {stat.count:>8} "
                f"{stat.time:>9.4f} {stat.bytes / 1e6:>9.2f}"
            )
        if self.scopes:
            lines.append("")
            lines.append(f"{'scope':<26} {'calls':>8} {'incl s':>9} {'self s':>9}")
            ranked = sorted(self.scopes.values(), key=lambda s: s.self_time, reverse=True)
            for stat in ranked[:top]:
                lines.append(
                    f"{stat.scope:<26} {stat.count:>8} {stat.time:>9.4f} {stat.self_time:>9.4f}"
                )
        return "\n".join(lines)


def annotate_model_scopes(model: Module) -> Module:
    """Annotate every submodule with its dotted path from ``named_modules``.

    Turns the profiler's scope table from class names (``Linear``) into
    positions in the model tree (``layers.0.diffusion.fc``).  Returns the
    model for chaining.
    """
    for path, module in model.named_modules():
        if path:
            module.annotate_scope(path)
    return model
