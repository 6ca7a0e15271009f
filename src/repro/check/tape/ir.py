"""Tape IR: the recorded forward+backward step as a flat SSA-like program.

:func:`record_program` runs a step callable once under
``reference_backward()`` with a :class:`repro.tensor.GraphTracer` attached
and lowers everything the engine did into a :class:`TapeProgram` — a flat
instruction list over numbered :class:`Value`\\ s with explicit defs/uses,
shapes, dtypes, aliasing, and saved-tensor version stamps.  The program is
purely symbolic: every analysis in this package (lifetimes, hazards, dead
values, fusion) runs over it without touching the engine again.

The value/instruction model:

* **Values** are SSA-ish names ``%k`` for array payloads: ``leaf`` values
  (parameters, inputs, constants — defined before the program starts),
  ``op`` values (tracked forward results), and ``grad`` values (gradient
  buffers materialised during backward).  A value whose numpy buffer is a
  view of another value's buffer carries ``alias_of`` pointing at the
  owner; aliases occupy no storage of their own.
* **Instructions** come in four phases.  ``forward`` instructions define
  one op value from their operand uses and stamp the ``(vid, version)``
  pairs their backward closure captured.  ``backward`` instructions are
  linked to their forward instruction via ``grad_of``; they use the
  incoming gradient plus every saved value and define (or accumulate
  into) the parents' grad values.  ``mutate`` instructions record payload
  rebinds/overwrites (the hazard analysis keys off these).  ``export``
  instructions record graph-external reads (``numpy()``/``item()``/
  ``detach()``) so dead-value analysis treats exported values as live
  roots.

Gradient accumulation is modelled as a read-modify-write: the second and
later defs of a grad value also list it as a use.  A grad value that
starts life as an alias (an adopted reshape/broadcast view of the child's
gradient) and is later reallocated by out-of-place accumulation is
promoted to an owner — the conservative choice for arena planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...tensor.tensor import Tensor, reference_backward
from ...tensor.trace import GraphTracer, TraceListener

__all__ = ["Value", "Instruction", "TapeProgram", "record_program"]


@dataclass
class Value:
    """One array payload in the program (see the module docstring)."""

    vid: int
    kind: str  # "leaf" | "op" | "grad"
    op: str  # producing op ("" for leaves; source forward op for grads)
    shape: tuple[int, ...]
    dtype: str
    nbytes: int  # nominal payload size; storage is owned only if alias_of is None
    alias_of: int | None
    name: str
    def_index: int  # instruction index of the first def; -1 for leaves
    requires_grad: bool = False

    @property
    def owns_storage(self) -> bool:
        """True when this value's buffer is not a view of another value's."""
        return self.alias_of is None

    def label(self) -> str:
        """Short human-readable handle, e.g. ``%12`` or ``%3(weight)``."""
        return f"%{self.vid}({self.name})" if self.name else f"%{self.vid}"

    def to_dict(self) -> dict:
        return {
            "vid": self.vid,
            "kind": self.kind,
            "op": self.op,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "nbytes": self.nbytes,
            "alias_of": self.alias_of,
            "name": self.name,
            "def_index": self.def_index,
            "requires_grad": self.requires_grad,
        }


@dataclass
class Instruction:
    """One step of the recorded program."""

    index: int
    phase: str  # "forward" | "backward" | "mutate" | "export"
    op: str
    defs: tuple[int, ...]
    uses: tuple[int, ...]
    saved: tuple[tuple[int, int], ...] = ()  # (vid, version-at-save) stamps
    grad_of: int | None = None  # backward: index of the matching forward instr
    kind: str = ""  # mutate: "rebind"/"inplace"; export: "numpy"/"item"/"detach"

    def to_dict(self) -> dict:
        record: dict = {
            "index": self.index,
            "phase": self.phase,
            "op": self.op,
            "defs": list(self.defs),
            "uses": list(self.uses),
        }
        if self.saved:
            record["saved"] = [list(pair) for pair in self.saved]
        if self.grad_of is not None:
            record["grad_of"] = self.grad_of
        if self.kind:
            record["kind"] = self.kind
        return record


class TapeProgram:
    """A recorded forward+backward step, ready for static analysis."""

    def __init__(
        self,
        values: list[Value],
        instructions: list[Instruction],
        loss_vid: int,
    ) -> None:
        self.values = values
        self.instructions = instructions
        self.loss_vid = loss_vid

    # -- navigation -----------------------------------------------------

    def value(self, vid: int) -> Value:
        """The :class:`Value` named ``%vid``."""
        return self.values[vid]

    def owner(self, vid: int) -> int:
        """Chase ``alias_of`` links to the vid that owns the storage."""
        seen = 0
        while self.values[vid].alias_of is not None:
            vid = self.values[vid].alias_of
            seen += 1
            if seen > len(self.values):  # pragma: no cover - defensive
                raise RuntimeError("alias cycle in tape program")
        return vid

    def phase_instructions(self, phase: str) -> list[Instruction]:
        """All instructions of one phase, in program order."""
        return [instr for instr in self.instructions if instr.phase == phase]

    def backward_index_of(self) -> dict[int, int]:
        """Map forward-instruction index -> its backward instruction index."""
        return {
            instr.grad_of: instr.index
            for instr in self.instructions
            if instr.phase == "backward" and instr.grad_of is not None
        }

    # -- accounting -----------------------------------------------------

    def owned_bytes(self, kinds: tuple[str, ...] = ("op", "grad")) -> int:
        """Bytes of storage owned by values of the given kinds.

        This is the number the :class:`repro.obs.MemoryWatermark` measures
        dynamically — the T001 consistency check compares the two.
        """
        return sum(
            v.nbytes for v in self.values if v.kind in kinds and v.owns_storage
        )

    def nominal_bytes(self, kind: str = "op") -> int:
        """Bytes of all values of ``kind`` counting aliases at full size.

        Matches the profiler's per-op byte accounting, which records every
        op result at its nominal size whether or not it is a view.
        """
        return sum(v.nbytes for v in self.values if v.kind == kind)

    def counts(self) -> dict:
        """Value/instruction census used by reports and tests."""
        by_phase: dict[str, int] = {}
        for instr in self.instructions:
            by_phase[instr.phase] = by_phase.get(instr.phase, 0) + 1
        by_kind: dict[str, int] = {}
        for v in self.values:
            by_kind[v.kind] = by_kind.get(v.kind, 0) + 1
        return {"instructions": by_phase, "values": by_kind}

    # -- rendering ------------------------------------------------------

    def format_instruction(self, instr: Instruction) -> str:
        """One diagnostic-friendly line for ``instr``."""
        defs = ", ".join(self.values[v].label() for v in instr.defs)
        uses = ", ".join(self.values[v].label() for v in instr.uses)
        line = f"[{instr.index:4d}] {instr.phase:8s} {instr.op}"
        if defs:
            line += f"  {defs} <- ({uses})"
        elif uses:
            line += f"  ({uses})"
        if instr.saved:
            stamps = ", ".join(f"%{vid}@{ver}" for vid, ver in instr.saved)
            line += f"  save[{stamps}]"
        if instr.grad_of is not None:
            line += f"  grad_of=[{instr.grad_of}]"
        return line

    def format(self, limit: int | None = None) -> str:
        """Textual listing of the program (first ``limit`` instructions)."""
        shown = self.instructions if limit is None else self.instructions[:limit]
        lines = [self.format_instruction(instr) for instr in shown]
        if limit is not None and len(self.instructions) > limit:
            lines.append(f"... {len(self.instructions) - limit} more")
        return "\n".join(lines)

    def to_dict(self, include_instructions: bool = False) -> dict:
        """JSON-ready summary (full listing only on request — it is large)."""
        record = {
            "counts": self.counts(),
            "loss_vid": self.loss_vid,
            "owned_bytes": self.owned_bytes(),
            "owned_forward_bytes": self.owned_bytes(kinds=("op",)),
            "owned_grad_bytes": self.owned_bytes(kinds=("grad",)),
            "nominal_forward_bytes": self.nominal_bytes("op"),
        }
        if include_instructions:
            record["values"] = [v.to_dict() for v in self.values]
            record["instructions"] = [i.to_dict() for i in self.instructions]
        return record


class _ProgramBuilder(TraceListener):
    """Lowers :class:`GraphTracer` events into a :class:`TapeProgram`.

    Keeps strong references to every tensor and buffer it has numbered —
    ``id()``-keyed maps stay sound only while the objects stay alive.
    """

    def __init__(self, names: dict[int, str]) -> None:
        self._names = names
        self.values: list[Value] = []
        self.instructions: list[Instruction] = []
        self._tensor_vid: dict[int, int] = {}
        self._buffer_vid: dict[int, int] = {}
        self._grad_vid: dict[int, int] = {}  # tensor vid -> grad value vid
        self._versions: dict[int, int] = {}  # vid -> trace-local version
        self._keep: list[object] = []
        self._loss_vid: int | None = None
        self._pending: list[Tensor] = []  # backward begin/end bracket stack

    # -- value numbering ------------------------------------------------

    @staticmethod
    def _root_buffer(array: np.ndarray) -> np.ndarray:
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array

    def _claim_buffer(self, array: np.ndarray, vid: int) -> int | None:
        """Register ``vid`` as the owner of ``array``'s root buffer, or
        return the vid that already owns it.

        A view of a private buffer no value holds (an op's scratch result it
        exposes only through a reshape or moveaxis view) makes its first
        viewer the owner, so later views of the same buffer alias it.
        """
        root = self._root_buffer(array)
        owner = self._buffer_vid.get(id(root))
        if owner is None:
            self._buffer_vid[id(root)] = vid
        return owner

    def _ensure_value(
        self, tensor: Tensor, kind: str = "leaf", op: str = "", def_index: int = -1
    ) -> int:
        vid = self._tensor_vid.get(id(tensor))
        if vid is not None:
            return vid
        vid = len(self.values)
        data = tensor.data
        alias_of = self._claim_buffer(data, vid) if isinstance(data, np.ndarray) else None
        self.values.append(
            Value(
                vid=vid,
                kind=kind,
                op=op,
                shape=tuple(np.shape(data)),
                dtype=str(getattr(data, "dtype", type(data).__name__)),
                nbytes=int(getattr(data, "nbytes", 0)),
                alias_of=alias_of,
                name=self._names.get(id(tensor), ""),
                def_index=def_index,
                requires_grad=bool(tensor.requires_grad),
            )
        )
        self._tensor_vid[id(tensor)] = vid
        self._versions[vid] = tensor.version
        self._keep.append(tensor)
        self._keep.append(data)
        return vid

    def _new_grad_value(self, array: np.ndarray, source_vid: int, def_index: int) -> int:
        vid = len(self.values)
        alias_of = self._claim_buffer(array, vid)
        source = self.values[source_vid]
        self.values.append(
            Value(
                vid=vid,
                kind="grad",
                op=source.op or "leaf",
                shape=tuple(array.shape),
                dtype=str(array.dtype),
                nbytes=int(array.nbytes),
                alias_of=alias_of,
                name=f"grad({source.label()})" if source.name else "",
                def_index=def_index,
            )
        )
        self._versions[vid] = 0
        self._keep.append(array)
        return vid

    def _refresh_grad_buffer(self, gvid: int, array: np.ndarray) -> None:
        """Out-of-place accumulation rebound a grad to a new owned buffer."""
        if array.base is not None or id(array) in self._buffer_vid:
            return
        self._buffer_vid[id(array)] = gvid
        value = self.values[gvid]
        if value.alias_of is not None:
            value.alias_of = None  # promoted: it owns storage from here on
        value.nbytes = int(array.nbytes)
        value.shape = tuple(array.shape)
        self._keep.append(array)

    def _saved_from_closure(self, backward) -> tuple[tuple[int, int], ...]:
        """(vid, version) stamps for every tensor the closure captured."""
        cells = getattr(backward, "__closure__", None)
        if not cells:
            return ()
        stamps: list[tuple[int, int]] = []
        seen: set[int] = set()

        def visit(obj: object) -> None:
            if isinstance(obj, Tensor):
                vid = self._ensure_value(obj)
            elif isinstance(obj, np.ndarray):
                root = self._root_buffer(obj)
                vid = self._buffer_vid.get(id(root))
                if vid is None:
                    return  # closure-internal helper array, not a graph value
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    visit(item)
                return
            else:
                return
            if vid not in seen:
                seen.add(vid)
                stamps.append((vid, self._versions[vid]))

        for cell in cells:
            try:
                visit(cell.cell_contents)
            except ValueError:  # pragma: no cover - empty cell
                continue
        return tuple(stamps)

    # -- trace events ---------------------------------------------------

    def on_node(self, out: Tensor, parents: tuple[Tensor, ...], op: str) -> None:
        use_vids = tuple(self._ensure_value(p) for p in parents)
        index = len(self.instructions)
        out_vid = self._ensure_value(out, kind="op", op=op, def_index=index)
        saved = self._saved_from_closure(out._backward)
        self.instructions.append(
            Instruction(index, "forward", op, (out_vid,), use_vids, saved=saved)
        )

    def on_mutation(self, tensor: Tensor, kind: str) -> None:
        vid = self._tensor_vid.get(id(tensor))
        if vid is None:
            vid = self._ensure_value(tensor)
        self._versions[vid] += 1
        if kind == "rebind" and isinstance(tensor.data, np.ndarray):
            if tensor.data.base is None:
                self._buffer_vid[id(tensor.data)] = vid
            self._keep.append(tensor.data)
        index = len(self.instructions)
        self.instructions.append(
            Instruction(index, "mutate", "copy_" if kind == "rebind" else "inplace_write",
                        (), (vid,), kind=kind)
        )

    def on_export(self, tensor: Tensor, how: str) -> None:
        vid = self._tensor_vid.get(id(tensor))
        if vid is None or self.values[vid].kind != "op":
            return  # leaves are live by definition; unseen tensors are external
        index = len(self.instructions)
        self.instructions.append(
            Instruction(index, "export", how, (), (vid,), kind=how)
        )

    def on_backward_begin(self, node: Tensor) -> None:
        nvid = self._ensure_value(node)
        if nvid not in self._grad_vid and node.grad is not None:
            # First gradient of the program: the seed at the loss root.
            index = len(self.instructions)
            gvid = self._new_grad_value(node.grad, nvid, def_index=index)
            self._grad_vid[nvid] = gvid
            self.instructions.append(
                Instruction(index, "backward", "seed_grad", (gvid,), ())
            )
        self._pending.append(node)

    def on_backward_end(self, node: Tensor) -> None:
        if self._pending and self._pending[-1] is node:
            self._pending.pop()
        nvid = self._tensor_vid[id(node)]
        incoming = self._grad_vid.get(nvid)
        forward_index = self.values[nvid].def_index
        uses: list[int] = [incoming] if incoming is not None else []
        if forward_index >= 0:
            for vid, _version in self.instructions[forward_index].saved:
                if vid not in uses:
                    uses.append(vid)
        index = len(self.instructions)
        defs: list[int] = []
        for parent in node._parents:
            if not parent.requires_grad or parent.grad is None:
                continue
            pvid = self._ensure_value(parent)
            gvid = self._grad_vid.get(pvid)
            if gvid is None:
                gvid = self._new_grad_value(parent.grad, pvid, def_index=index)
                self._grad_vid[pvid] = gvid
            else:
                if gvid not in uses:
                    uses.append(gvid)  # accumulation reads the running sum
                self._refresh_grad_buffer(gvid, parent.grad)
            defs.append(gvid)
        self.instructions.append(
            Instruction(
                index,
                "backward",
                self.values[nvid].op or "backward",
                tuple(defs),
                tuple(uses),
                grad_of=forward_index if forward_index >= 0 else None,
            )
        )

    # -- assembly -------------------------------------------------------

    def set_loss(self, loss: Tensor) -> None:
        self._loss_vid = self._ensure_value(loss)

    def finish(self) -> TapeProgram:
        if self._loss_vid is None:
            raise RuntimeError("set_loss() was never called during recording")
        program = TapeProgram(self.values, self.instructions, self._loss_vid)
        program.grad_vids = dict(self._grad_vid)  # type: ignore[attr-defined]
        return program


def record_program(step, *, names: dict[int, str] | None = None) -> TapeProgram:
    """Record one forward+backward of ``step`` into a :class:`TapeProgram`.

    ``step`` is a zero-argument callable that runs the forward pass and
    returns the scalar loss tensor; ``record_program`` calls
    ``loss.backward()`` itself.  Recording happens under
    ``reference_backward()`` so the program reflects the engine's clean
    dataflow semantics (no replay cache, no buffer donation, no fused
    fast paths) — the same semantics an arena-planned executor would
    implement.

    ``names`` optionally maps ``id(tensor)`` to a display name (use
    ``{id(p): n for n, p in model.named_parameters()}``) so leaf values
    render readably in diagnostics.
    """
    builder = _ProgramBuilder(dict(names or {}))
    with reference_backward(), GraphTracer(builder):
        loss = step()
        if not isinstance(loss, Tensor) or not loss.requires_grad:
            raise ValueError("step() must return a loss Tensor that requires grad")
        builder.set_loss(loss)
        loss.backward()
    return builder.finish()
