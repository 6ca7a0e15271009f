"""The tape-IR audit: recording, lifetimes/arena, hazards, dead values, fusion.

The small fixtures build steps by hand from raw tensors — ``record_program``
only needs a callable returning a scalar loss.  The end-to-end class runs the
real audit on D2STGNN at the probe scale, which is the acceptance gate the
``make check-tape`` target enforces across the whole zoo.
"""

import numpy as np
import pytest

from repro.check import (
    TAPE_RULES,
    TAPE_SCHEMA,
    audit_models,
    format_tape_report,
    record_program,
    tape_report_dict,
)
from repro.check.tape import (
    compute_lifetimes,
    find_dead_values,
    find_fusion_candidates,
    find_mutation_hazards,
    plan_arena,
)
from repro.tensor import Tensor


def leaf(shape, *, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestRecording:
    def _program(self):
        w = leaf((4, 3), seed=1)
        b = leaf((3,), seed=2)
        x = Tensor(np.ones((2, 4)))

        def step():
            return ((x @ w + b).tanh()).sum()

        return record_program(step, names={id(w): "w", id(b): "b"})

    def test_phases_and_counts(self):
        program = self._program()
        counts = program.counts()["instructions"]
        assert counts["forward"] == 4  # matmul, add, tanh, sum
        assert counts["backward"] == 5  # seed_grad + one per forward op
        assert program.phase_instructions("forward")[0].phase == "forward"

    def test_defs_precede_uses(self):
        program = self._program()
        defined = {v.vid for v in program.values if v.kind == "leaf"}
        for instr in program.instructions:
            for vid in instr.uses:
                # A use either names something already defined or the
                # instruction's own def (gradient read-modify-write).
                assert vid in defined or vid in instr.defs, program.format_instruction(instr)
            defined.update(instr.defs)

    def test_leaf_names_are_attached(self):
        program = self._program()
        names = {v.name for v in program.values if v.kind == "leaf"}
        assert {"w", "b"} <= names

    def test_forward_saves_are_stamped(self):
        program = self._program()
        matmul = next(i for i in program.instructions if i.op == "matmul")
        assert matmul.saved  # the backward closure captured operands

    def test_backward_links_to_forward(self):
        program = self._program()
        for instr in program.phase_instructions("backward"):
            if instr.grad_of is not None:
                assert program.instructions[instr.grad_of].phase == "forward"

    def test_requires_grad_loss_is_enforced(self):
        x = Tensor(np.ones((2, 2)))  # untracked: no parents require grad

        def step():
            return (x * 2.0).sum()

        with pytest.raises(ValueError):
            record_program(step)

    def test_format_is_readable(self):
        program = self._program()
        text = program.format(limit=5)
        assert "%" in text and "matmul" in text


class TestLifetimeArena:
    def _program(self):
        w = leaf((8, 8), seed=3)
        x = Tensor(np.ones((4, 8)))

        def step():
            h = (x @ w).relu()
            return (h @ w).tanh().sum()

        return record_program(step)

    def test_lifetimes_cover_owned_values(self):
        program = self._program()
        lifetimes = compute_lifetimes(program)
        owned = {
            v.vid for v in program.values
            if v.owns_storage and v.kind in ("op", "grad")
        }
        assert owned <= set(lifetimes)
        for life in lifetimes.values():
            assert life.start <= life.end

    def test_arena_is_aligned_and_bounded(self):
        program = self._program()
        plan = plan_arena(program)
        assert plan.arena_bytes <= plan.total_bytes
        assert plan.arena_bytes >= plan.ideal_peak_bytes
        assert plan.reuse_ratio >= 1.0
        for slot in plan.slots.values():
            assert slot.offset % plan.alignment == 0

    def test_overlapping_lifetimes_never_share_storage(self):
        program = self._program()
        lifetimes = compute_lifetimes(program)
        plan = plan_arena(program)
        items = [(lifetimes[vid], slot) for vid, slot in plan.slots.items()]
        for i, (life_a, slot_a) in enumerate(items):
            for life_b, slot_b in items[i + 1:]:
                if life_a.start <= life_b.end and life_b.start <= life_a.end:
                    disjoint = (
                        slot_a.offset + slot_a.size <= slot_b.offset
                        or slot_b.offset + slot_b.size <= slot_a.offset
                    )
                    assert disjoint, (slot_a, slot_b)


class TestMutationHazards:
    def test_mutating_a_saved_tensor_is_flagged(self):
        w = leaf((3, 3), seed=4)
        x = Tensor(np.ones((2, 3)))

        def step():
            out = (x @ w).sum()  # matmul saves w for backward
            w.copy_(np.zeros((3, 3)))  # stale-save: backward reads new data
            return out

        program = record_program(step, names={id(w): "w"})
        hazards = find_mutation_hazards(program)
        assert len(hazards) == 1
        hazard = hazards[0]
        assert hazard.forward_op == "matmul"
        assert hazard.forward_index < hazard.mutate_index < hazard.backward_index
        assert "w" in hazard.message()

    def test_clean_step_has_no_hazards(self):
        w = leaf((3, 3), seed=5)
        x = Tensor(np.ones((2, 3)))

        def step():
            return (x @ w).sum()

        assert find_mutation_hazards(record_program(step)) == []

    def test_mutation_after_the_last_read_is_safe(self):
        w = leaf((3, 3), seed=6)
        x = Tensor(np.ones((2, 3)))

        def step():
            out = (x + 0.0).sum()  # w is never saved
            w.copy_(np.zeros((3, 3)))
            return out + (w * 0.0).sum()

        assert find_mutation_hazards(record_program(step)) == []


class TestDeadValues:
    def test_dead_branch_is_flagged(self):
        w = leaf((3, 3), seed=7)
        x = Tensor(np.ones((2, 3)))

        def step():
            (x @ w).tanh()  # computed, never consumed by the loss
            return (x * w.sum()).sum()

        program = record_program(step)
        dead = find_dead_values(program)
        assert len(dead) == 1
        ops = {program.instructions[i].op for i in dead[0].instruction_indices}
        assert "tanh" in ops
        assert dead[0].nbytes > 0
        # The tanh is the branch tip — nothing consumes it, so it is the sink.
        sinks = {program.instructions[i].op for i in dead[0].sink_indices}
        assert sinks == {"tanh"}
        assert "tanh" in dead[0].message(program)

    def test_export_keeps_a_branch_alive(self):
        w = leaf((3, 3), seed=8)
        x = Tensor(np.ones((2, 3)))

        def step():
            probe = (x @ w).tanh()
            probe.numpy()  # exported: telemetry reads it, so it is live
            return (x * w.sum()).sum()

        assert find_dead_values(record_program(step)) == []

    def test_fully_consumed_graph_is_clean(self):
        w = leaf((3, 3), seed=9)
        x = Tensor(np.ones((2, 3)))

        def step():
            return ((x @ w).tanh()).sum()

        assert find_dead_values(record_program(step)) == []


class TestFusion:
    def test_gemm_epilogue_is_detected(self):
        w = leaf((4, 4), seed=10)
        b = leaf((4,), seed=11)
        x = Tensor(np.ones((2, 4)))

        def step():
            return ((x @ w + b).sigmoid()).sum()

        program = record_program(step)
        kinds = {c.kind for c in find_fusion_candidates(program)}
        assert "matmul_bias_act" in kinds

    def test_linear_epilogue_is_detected(self):
        w = leaf((4, 4), seed=16)
        b = leaf((4,), seed=17)
        x = Tensor(np.ones((2, 3, 4)))

        def step():
            return x.linear(w, b).relu().sum()

        program = record_program(step)
        candidates = [
            c for c in find_fusion_candidates(program) if c.kind == "linear_act"
        ]
        assert [c.ops for c in candidates] == [["linear", "relu"]]

    def test_elementwise_chain_is_detected(self):
        w = leaf((4, 4), seed=12)

        def step():
            return (((w * 2.0) + 1.0).tanh().sigmoid()).sum()

        program = record_program(step)
        chains = [
            c for c in find_fusion_candidates(program) if c.kind == "elementwise_chain"
        ]
        assert chains and len(chains[0].ops) >= 3

    def test_short_chains_are_ignored(self):
        w = leaf((4, 4), seed=13)

        def step():
            return (w * 2.0).sum()

        program = record_program(step)
        assert find_fusion_candidates(program) == []

    def test_candidates_are_ranked_by_time(self):
        w = leaf((4, 4), seed=14)
        b = leaf((4,), seed=15)
        x = Tensor(np.ones((2, 4)))

        def step():
            h = (x @ w + b).sigmoid()
            return (((h * 2.0) + 1.0).tanh().relu()).sum()

        program = record_program(step)
        seconds = {("matmul", "forward"): 1.0}  # make the GEMM chain dominant
        ranked = find_fusion_candidates(program, op_seconds=seconds)
        assert ranked[0].kind == "matmul_bias_act"
        assert ranked[0].est_seconds >= ranked[-1].est_seconds


class TestAuditEndToEnd:
    @pytest.fixture(scope="class")
    def audit(self):
        audits = audit_models(models=["d2stgnn"], datasets=["metr-la-sim"])
        assert len(audits) == 1
        return audits[0]

    def test_default_preset_is_clean(self, audit):
        assert audit.ok, [f.message for f in audit.findings()]
        assert find_mutation_hazards(audit.program) == []
        assert find_dead_values(audit.program) == []

    def test_projected_vs_measured_bytes_within_tolerance(self, audit):
        consistency = audit.consistency
        assert consistency["within_tolerance"]
        assert abs(consistency["ratio"] - 1.0) <= consistency["tolerance"] == 0.10

    def test_arena_reuses_storage(self, audit):
        assert audit.arena["arena_bytes"] < audit.arena["total_bytes"]
        assert audit.arena["reuse_ratio"] > 1.0
        assert audit.arena["measured_peak_bytes"] > 0

    def test_fusion_finds_the_gru_and_loss_chains(self, audit):
        kinds = {c.kind for c in audit.fusion}
        assert "elementwise_chain" in kinds
        assert "linear_act" in kinds  # the MLPs' Linear -> ReLU epilogues

    def test_report_shapes(self, audit):
        report = tape_report_dict([audit])
        assert report["schema"] == TAPE_SCHEMA == "repro.check.tape/v1"
        assert report["rules"] == TAPE_RULES
        assert report["findings_total"] == 0
        assert report["audits"][0]["model"] == "D2STGNN"
        text = format_tape_report([audit])
        assert "D2STGNN" in text and text.splitlines()[-1].startswith("tape: 0 finding(s)")

    def test_statistical_models_are_rejected(self):
        with pytest.raises(ValueError):
            audit_models(models=["HA"], datasets=["metr-la-sim"])
