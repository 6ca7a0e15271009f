"""Fusion-candidate detection (T004) over a tape program.

Finds adjacent forward instructions a tape-compiling executor (ROADMAP
item 1) could fuse into one kernel, in three shapes the profiler's
``benchmarks/results/profile.json`` breakdown shows are hot:

* ``matmul_bias_act`` / ``matmul_bias`` — a matmul whose sole consumer is
  an add/sub (bias), optionally followed by a sole-consumer activation:
  the classic GEMM-epilogue fusion;
* ``linear_act`` — a ``linear`` (GEMM with its bias already fused in)
  whose sole consumer is an activation: the epilogue left once every
  ``nn.Linear`` runs as one op;
* ``elementwise_chain`` — a run of same-shape elementwise ops linked by
  single-use intermediates (the GRU cell body in DCRNN/DGCRN/D²STGNN
  lowers to exactly these), fusable into one loop without materialising
  intermediates.

A candidate is *informational*: it never fails CI.  Each is annotated
with whether any interior intermediate is saved for backward (a fused
kernel must rematerialise or spill those) and, when per-op timings from
:class:`repro.obs.Profiler` are supplied, an estimated time share used to
rank candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Instruction, TapeProgram

__all__ = [
    "ELEMENTWISE_OPS",
    "ACTIVATION_OPS",
    "FusionCandidate",
    "find_fusion_candidates",
]

# Primitive ops that are pure elementwise maps over same-shape operands
# (broadcasting aside) — safe to fuse into a single loop.
ELEMENTWISE_OPS = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt",
    "tanh", "sigmoid", "relu", "abs", "leaky_relu", "clip", "softplus",
    "gelu", "where",
})

# The subset that terminates a matmul epilogue.
ACTIVATION_OPS = frozenset({
    "sigmoid", "tanh", "relu", "gelu", "leaky_relu", "softplus",
})


@dataclass
class FusionCandidate:
    """One fusable run of forward instructions."""

    kind: str  # "matmul_bias_act" | "matmul_bias" | "linear_act" | "elementwise_chain"
    instruction_indices: list[int]
    ops: list[str]
    saved_intermediates: int  # interior values a fused kernel must keep
    est_seconds: float = 0.0  # from profiler per-op averages, when given

    def message(self) -> str:
        chain = "+".join(self.ops)
        note = (
            f", {self.saved_intermediates} saved intermediate(s)"
            if self.saved_intermediates
            else ""
        )
        timing = f", ~{self.est_seconds * 1e6:.0f}us/step" if self.est_seconds else ""
        return f"{self.kind}: {chain} at [{self.instruction_indices[0]}]{note}{timing}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "instruction_indices": self.instruction_indices,
            "ops": self.ops,
            "saved_intermediates": self.saved_intermediates,
            "est_seconds": self.est_seconds,
        }


def find_fusion_candidates(
    program: TapeProgram,
    op_seconds: dict[str, float] | None = None,
    *,
    min_chain: int = 3,
) -> list[FusionCandidate]:
    """Detect fusable runs, ranked by estimated per-step seconds.

    ``op_seconds`` maps op name to *average seconds per call* (derive it
    from ``Profiler.ops`` forward stats); without it candidates keep
    program order within kind.
    """
    forward = program.phase_instructions("forward")
    consumers: dict[int, list[Instruction]] = {}
    saved_vids: set[int] = set()
    for instr in forward:
        for vid in instr.uses:
            consumers.setdefault(vid, []).append(instr)
        for vid, _version in instr.saved:
            saved_vids.add(vid)

    def sole_consumer(vid: int) -> Instruction | None:
        using = consumers.get(vid, ())
        return using[0] if len(using) == 1 else None

    taken: set[int] = set()
    candidates: list[FusionCandidate] = []

    def add(kind: str, chain: list[Instruction]) -> None:
        interior = [instr.defs[0] for instr in chain[:-1]]
        candidates.append(
            FusionCandidate(
                kind=kind,
                instruction_indices=[instr.index for instr in chain],
                ops=[instr.op for instr in chain],
                saved_intermediates=sum(1 for vid in interior if vid in saved_vids),
            )
        )
        taken.update(instr.index for instr in chain)

    def activation_of(vid: int) -> Instruction | None:
        consumer = sole_consumer(vid)
        if consumer is None or consumer.op not in ACTIVATION_OPS or consumer.index in taken:
            return None
        return consumer

    # 1. GEMM epilogues.
    for instr in forward:
        if instr.index in taken:
            continue
        if instr.op == "linear":
            activation = activation_of(instr.defs[0])
            if activation is not None:
                add("linear_act", [instr, activation])
            continue
        if instr.op != "matmul":
            continue
        bias = sole_consumer(instr.defs[0])
        if bias is None or bias.op not in ("add", "sub") or bias.index in taken:
            continue
        activation = activation_of(bias.defs[0])
        if activation is not None:
            add("matmul_bias_act", [instr, bias, activation])
        else:
            add("matmul_bias", [instr, bias])

    # 2. Same-shape elementwise chains over single-use intermediates.
    for instr in forward:
        if instr.op not in ELEMENTWISE_OPS or instr.index in taken:
            continue
        chain = [instr]
        shape = program.value(instr.defs[0]).shape
        while True:
            consumer = sole_consumer(chain[-1].defs[0])
            if (
                consumer is None
                or consumer.op not in ELEMENTWISE_OPS
                or consumer.index in taken
                or program.value(consumer.defs[0]).shape != shape
            ):
                break
            chain.append(consumer)
        if len(chain) >= min_chain:
            add("elementwise_chain", chain)

    if op_seconds:
        for candidate in candidates:
            candidate.est_seconds = sum(
                op_seconds.get(op, 0.0) for op in candidate.ops
            )
        candidates.sort(key=lambda c: -c.est_seconds)
    return candidates
