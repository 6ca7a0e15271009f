"""The repo linter: golden fixture, suppression, allowlists, clean HEAD."""

from pathlib import Path

import pytest

from repro.check import (
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

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "lint_violations.py"

# The golden contract: linting the fixture yields exactly these (line, rule)
# pairs — every deliberate violation caught, both suppressions honoured,
# and none of the compliant lines flagged.
EXPECTED = [
    (19, "R001"),  # np.random.seed
    (20, "R001"),  # np.random.rand
    (21, "R001"),  # unseeded default_rng()
    (28, "R002"),  # Module subclass without super().__init__()
    (35, "R003"),  # raw init.* assignment
    (36, "R003"),  # raw Tensor(requires_grad=True) assignment
    (41, "R004"),  # .data rebinding
    (42, "R004"),  # .data augmented assignment
    (43, "R004"),  # .data slice write
    (50, "R005"),  # time.time()
    (51, "R005"),  # time.perf_counter()
    (56, "R006"),  # raw np.savez
    (57, "R006"),  # raw np.savez_compressed
    (62, "R012"),  # setattr(Tensor, ...)
    (63, "R012"),  # assignment to a Tensor class attribute
]


class TestGoldenFixture:
    def test_exact_findings(self):
        findings = lint_file(FIXTURE)
        assert [(f.line, f.rule) for f in findings] == EXPECTED

    def test_every_rule_fires_at_least_once(self):
        rules = {f.rule for f in lint_file(FIXTURE)}
        # R007 is scoped to the data/training packages, R008 to the serve
        # package, R009 to the sharded-serving modules, R010 to the
        # inference entry points and R011 to the event module, so none of
        # them can fire on the fixture's path; TestPerSampleLoops,
        # TestServeForwards, TestScaleForwards, TestInferenceForwards,
        # TestEventSeeds and TestPerRuleFixtures cover them in place.
        assert rules == set(LINT_RULES) - {"R007", "R008", "R009", "R010", "R011"}

    def test_suppressed_lines_do_not_appear(self):
        lines = {f.line for f in lint_file(FIXTURE)}
        source = FIXTURE.read_text().splitlines()
        for lineno, text in enumerate(source, start=1):
            if "lint: disable" in text:
                assert lineno not in lines

    def test_format_is_path_line_rule(self):
        first = lint_file(FIXTURE)[0]
        formatted = first.format()
        assert formatted.startswith(f"{first.path}:19: R001")


class TestAllowlists:
    def _write(self, root: Path, rel: str, body: str) -> Path:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return path

    def test_optim_may_write_data(self, tmp_path):
        body = "def step(param, update):\n    param.data -= update\n"
        inside = self._write(tmp_path, "src/repro/optim/sgd.py", body)
        outside = self._write(tmp_path, "src/repro/nn/bad.py", body)
        assert lint_file(inside, relative_to=tmp_path) == []
        assert [f.rule for f in lint_file(outside, relative_to=tmp_path)] == ["R004"]

    def test_timer_may_read_wall_clock(self, tmp_path):
        body = "import time\n\ndef now():\n    return time.perf_counter()\n"
        inside = self._write(tmp_path, "src/repro/utils/timer.py", body)
        outside = self._write(tmp_path, "src/repro/utils/other.py", body)
        assert lint_file(inside, relative_to=tmp_path) == []
        assert [f.rule for f in lint_file(outside, relative_to=tmp_path)] == ["R005"]

    def test_self_data_attribute_is_not_a_tensor_write(self, tmp_path):
        body = "class Holder:\n    def __init__(self, data):\n        self.data = data\n"
        path = self._write(tmp_path, "src/repro/thing.py", body)
        assert lint_file(path, relative_to=tmp_path) == []

    def test_atomic_helper_may_savez(self, tmp_path):
        body = "import numpy as np\n\ndef save(handle, arrays):\n    np.savez_compressed(handle, **arrays)\n"
        inside = self._write(tmp_path, "src/repro/utils/atomic.py", body)
        outside = self._write(tmp_path, "src/repro/utils/other.py", body)
        assert lint_file(inside, relative_to=tmp_path) == []
        assert [f.rule for f in lint_file(outside, relative_to=tmp_path)] == ["R006"]

    def test_persist_modules_may_not_open_for_write(self, tmp_path):
        body = (
            "def dump(path, text):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(text)\n"
        )
        inside = self._write(tmp_path, "src/repro/obs/sinks.py", body)
        elsewhere = self._write(tmp_path, "src/repro/analysis/report.py", body)
        assert [f.rule for f in lint_file(inside, relative_to=tmp_path)] == ["R006"]
        assert lint_file(elsewhere, relative_to=tmp_path) == []

    def test_persist_modules_may_append_and_read(self, tmp_path):
        body = (
            "def tail(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        path = self._write(tmp_path, "src/repro/data/io.py", body)
        assert lint_file(path, relative_to=tmp_path) == []


class TestPerSampleLoops:
    """R007: no per-sample Python loops over batch indices in the hot paths."""

    def _lint(self, tmp_path: Path, rel: str, body: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return [f.rule for f in lint_file(path, relative_to=tmp_path)]

    def test_for_loop_over_indices_flagged_in_data(self, tmp_path):
        body = "def gather(self, indices):\n    for i in indices:\n        self.sample(i)\n"
        assert self._lint(tmp_path, "src/repro/data/windows.py", body) == ["R007"]

    def test_unscoped_packages_are_exempt(self, tmp_path):
        body = "def walk(indices):\n    for i in indices:\n        print(i)\n"
        assert self._lint(tmp_path, "src/repro/analysis/report.py", body) == []

    def test_comprehension_over_attribute_indices_flagged(self, tmp_path):
        body = "def gather(self):\n    return [self.sample(i) for i in self.batch_indices]\n"
        assert self._lint(tmp_path, "src/repro/training/loop.py", body) == ["R007"]

    def test_range_over_num_samples_flagged(self, tmp_path):
        body = "def walk(self):\n    return [self.sample(i) for i in range(self.num_samples)]\n"
        assert self._lint(tmp_path, "src/repro/data/windows.py", body) == ["R007"]

    def test_unrelated_loops_pass(self, tmp_path):
        body = (
            "def epochs(batches, n):\n"
            "    for batch in batches:\n"
            "        pass\n"
            "    for e in range(n):\n"
            "        pass\n"
        )
        assert self._lint(tmp_path, "src/repro/training/loop.py", body) == []

    def test_suppression_is_honoured(self, tmp_path):
        body = (
            "def gather_loop(self, indices):\n"
            "    return [self.sample(i) for i in indices]  # lint: disable=R007\n"
        )
        assert self._lint(tmp_path, "src/repro/data/windows.py", body) == []


class TestServeForwards:
    """R008: model forwards in repro.serve only inside the micro-batcher."""

    def _lint(self, tmp_path: Path, rel: str, body: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return [f.rule for f in lint_file(path, relative_to=tmp_path)]

    def test_direct_model_call_flagged_in_serve(self, tmp_path):
        body = "def answer(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/engine.py", body) == ["R008"]

    def test_attribute_model_call_flagged(self, tmp_path):
        body = "def answer(self, x, tod, dow):\n    return self.model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/registry.py", body) == ["R008"]

    def test_explicit_forward_call_flagged(self, tmp_path):
        body = "def answer(net, x, tod, dow):\n    return net.forward(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/cache.py", body) == ["R008"]

    def test_microbatcher_is_allowlisted(self, tmp_path):
        # The micro-batcher is the one sanctioned forward site (no R008), but
        # since R010 its forward additionally has to run under a guard.
        body = (
            "def run_batch(model, x, tod, dow):\n"
            "    with model.inference():\n"
            "        return model(x, tod, dow)\n"
        )
        assert self._lint(tmp_path, "src/repro/serve/microbatch.py", body) == []

    def test_outside_serve_is_exempt(self, tmp_path):
        body = "def answer(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/training/loop.py", body) == []

    def test_non_forward_calls_pass_in_serve(self, tmp_path):
        body = (
            "def publish(bundle, registry):\n"
            "    instance = bundle.instantiate()\n"
            "    registry.activate('v1')\n"
            "    return instance.state_dict()\n"
        )
        assert self._lint(tmp_path, "src/repro/serve/registry.py", body) == []

    def test_suppression_is_honoured(self, tmp_path):
        body = (
            "def probe(model, x, tod, dow):\n"
            "    return model(x, tod, dow)  # lint: disable=R008\n"
        )
        assert self._lint(tmp_path, "src/repro/serve/debug.py", body) == []


class TestScaleForwards:
    """R009: no model forwards in the sharded serving modules."""

    def _lint(self, tmp_path: Path, rel: str, body: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return [f.rule for f in lint_file(path, relative_to=tmp_path)]

    def test_forward_in_router_is_r009_not_r008(self, tmp_path):
        body = "def answer(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/router.py", body) == ["R009"]

    def test_forward_in_transport_flagged(self, tmp_path):
        body = "def answer(self, x, tod, dow):\n    return self.model.forward(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/transport.py", body) == ["R009"]

    def test_instantiate_and_call_flagged(self, tmp_path):
        body = "def answer(bundle, x, tod, dow):\n    return bundle.instantiate()(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/shard.py", body) == ["R009"]

    def test_instantiate_without_call_passes(self, tmp_path):
        body = "def template(bundle):\n    return bundle.instantiate_fresh()\n"
        assert self._lint(tmp_path, "src/repro/serve/shard.py", body) == []

    def test_plain_serve_module_still_reports_r008(self, tmp_path):
        body = "def answer(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/engine.py", body) == ["R008"]

    def test_suppression_is_honoured(self, tmp_path):
        body = (
            "def probe(model, x, tod, dow):\n"
            "    return model(x, tod, dow)  # lint: disable=R009\n"
        )
        assert self._lint(tmp_path, "src/repro/serve/loadgen.py", body) == []


class TestInferenceForwards:
    """R010: inference entry points must forward under inference_mode()."""

    def _lint(self, tmp_path: Path, rel: str, body: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return [f.rule for f in lint_file(path, relative_to=tmp_path)]

    def test_unguarded_forward_in_evaluation_flagged(self, tmp_path):
        body = "def evaluate_split(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/training/evaluation.py", body) == ["R010"]

    def test_unguarded_forward_in_microbatcher_flagged(self, tmp_path):
        # microbatch.py is R008-allowlisted — the forward is *supposed* to
        # happen there — but it still has to be guarded, so R010 fires alone.
        body = "def run_batch(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/serve/microbatch.py", body) == ["R010"]

    def test_inference_mode_guard_passes(self, tmp_path):
        body = (
            "from repro.tensor import inference_mode\n"
            "def evaluate_split(model, x, tod, dow):\n"
            "    with inference_mode():\n"
            "        return model(x, tod, dow)\n"
        )
        assert self._lint(tmp_path, "src/repro/training/evaluation.py", body) == []

    def test_module_inference_shorthand_passes(self, tmp_path):
        body = (
            "def run_batch(model, x, tod, dow):\n"
            "    with model.inference():\n"
            "        return model(x, tod, dow)\n"
        )
        assert self._lint(tmp_path, "src/repro/serve/microbatch.py", body) == []

    def test_guard_does_not_leak_past_the_with_block(self, tmp_path):
        body = (
            "from repro.tensor import inference_mode\n"
            "def evaluate_split(model, x, tod, dow):\n"
            "    with inference_mode():\n"
            "        pass\n"
            "    return model(x, tod, dow)\n"
        )
        assert self._lint(tmp_path, "src/repro/training/evaluation.py", body) == ["R010"]

    def test_unscoped_modules_are_exempt(self, tmp_path):
        body = "def step(model, x, tod, dow):\n    return model(x, tod, dow)\n"
        assert self._lint(tmp_path, "src/repro/training/loop.py", body) == []

    def test_unrelated_with_is_not_a_guard(self, tmp_path):
        body = (
            "def evaluate_split(model, x, tod, dow, lock):\n"
            "    with lock:\n"
            "        return model(x, tod, dow)\n"
        )
        assert self._lint(tmp_path, "src/repro/training/evaluation.py", body) == ["R010"]

    def test_suppression_is_honoured(self, tmp_path):
        body = (
            "def probe(model, x, tod, dow):\n"
            "    return model(x, tod, dow)  # lint: disable=R010\n"
        )
        assert self._lint(tmp_path, "src/repro/training/evaluation.py", body) == []


class TestEventSeeds:
    """R011: event classes carry explicit seeds; no argless default_rng()."""

    def _lint(self, tmp_path: Path, rel: str, body: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return [f.rule for f in lint_file(path, relative_to=tmp_path)]

    def test_event_class_without_seed_fires(self, tmp_path):
        body = "class Flood(Event):\n    start: int = 0\n"
        assert self._lint(tmp_path, "src/repro/data/events.py", body) == ["R011"]

    def test_rng_field_or_init_param_accepted(self, tmp_path):
        body = (
            "class A(Event):\n    rng: object = None\n"
            "class B(Event):\n"
            "    def __init__(self, start, seed=0):\n"
            "        self.start = start\n"
            "        self.seed = seed\n"
        )
        assert self._lint(tmp_path, "src/repro/data/events.py", body) == []

    def test_non_event_class_not_checked(self, tmp_path):
        body = "class Report:\n    start: int = 0\n"
        assert self._lint(tmp_path, "src/repro/data/events.py", body) == []

    def test_bare_default_rng_fires_only_in_events_module(self, tmp_path):
        body = "def schedule():\n    return default_rng()\n"
        assert self._lint(tmp_path, "src/repro/data/events.py", body) == ["R011"]
        assert self._lint(tmp_path, "src/repro/data/simulator.py", body) == []

    def test_seeded_default_rng_accepted(self, tmp_path):
        body = "def schedule(seed):\n    return default_rng(seed)\n"
        assert self._lint(tmp_path, "src/repro/data/events.py", body) == []

    def test_rule_does_not_apply_outside_events_module(self, tmp_path):
        body = "class Flood(Event):\n    start: int = 0\n"
        assert self._lint(tmp_path, "src/repro/faults/events.py", body) == []


class TestEnginePatches:
    """R012: only the instrumentation seam patches the tensor engine."""

    def _lint(self, tmp_path: Path, rel: str, body: str):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return [f.rule for f in lint_file(path, relative_to=tmp_path)]

    def test_module_call_and_global_hook_writes_fire(self, tmp_path):
        body = (
            "def swap(call, hook):\n"
            "    global _FORWARD_SCOPE_HOOK\n"
            "    Module.__call__ = call\n"
            "    _FORWARD_SCOPE_HOOK = hook\n"
        )
        assert self._lint(tmp_path, "src/repro/nn/module.py", body) == ["R012", "R012"]

    def test_module_level_declaration_is_not_a_patch(self, tmp_path):
        body = "_BACKWARD_OP_HOOK: object = None\n"
        assert self._lint(tmp_path, "src/repro/tensor/tensor.py", body) == []

    def test_the_seam_may_patch(self, tmp_path):
        body = (
            "def rebuild(make, hook):\n"
            "    setattr(Tensor, '_make', make)\n"
            "    _tensor_mod._BACKWARD_OP_HOOK = hook\n"
        )
        assert self._lint(tmp_path, "src/repro/tensor/instrument.py", body) == []
        assert self._lint(tmp_path, "src/repro/tensor/trace.py", body) == ["R012", "R012"]


# One (scoped path, violating body, compliant body) triple per rule: the
# violating body must fire exactly that rule at that path, the compliant
# body must be silent, and a `# lint: disable=<rule>` on the violating line
# must silence it while still being counted as suppressed.
RULE_FIXTURES = {
    "R001": (
        "src/repro/nn/anything.py",
        "import numpy as np\nvalue = np.random.rand(3)\n",
        "from repro.utils.seed import get_rng\nvalue = get_rng().random(3)\n",
    ),
    "R002": (
        "src/repro/nn/anything.py",
        "class Bad(Module):\n    def __init__(self):\n        self.x = 1\n",
        "class Good(Module):\n    def __init__(self):\n        super().__init__()\n",
    ),
    "R003": (
        "src/repro/nn/anything.py",
        "class Bad(Module):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        self.w = init.xavier_uniform(3, 3)\n",
        "class Good(Module):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        self.w = Parameter(init.xavier_uniform(3, 3))\n",
    ),
    "R004": (
        "src/repro/nn/anything.py",
        "def clobber(param, update):\n    param.data = update\n",
        "def apply(param, update):\n    param.copy_(update)\n",
    ),
    "R005": (
        "src/repro/nn/anything.py",
        "import time\nstamp = time.time()\n",
        "from repro.utils.timer import now\nstamp = now()\n",
    ),
    "R006": (
        "src/repro/nn/anything.py",
        "import numpy as np\n\ndef save(path, arrays):\n    np.savez(path, **arrays)\n",
        "from repro.utils.atomic import atomic_savez\n\n"
        "def save(path, arrays):\n    atomic_savez(path, **arrays)\n",
    ),
    "R007": (
        "src/repro/data/anything.py",
        "def gather(self, indices):\n    return [self.sample(i) for i in indices]\n",
        "def gather(self, indices):\n    return self.windows[indices]\n",
    ),
    "R008": (
        "src/repro/serve/anything.py",
        "def answer(model, x, tod, dow):\n    return model(x, tod, dow)\n",
        "def answer(batcher, request):\n    return batcher.submit(request)\n",
    ),
    "R009": (
        "src/repro/serve/router.py",
        "def answer(bundle, x, tod, dow):\n    return bundle.instantiate()(x, tod, dow)\n",
        "def answer(transport, op):\n    return transport.send(op)\n",
    ),
    "R010": (
        "src/repro/training/evaluation.py",
        "def evaluate_split(model, x, tod, dow):\n    return model(x, tod, dow)\n",
        "def evaluate_split(model, x, tod, dow):\n"
        "    with inference_mode():\n"
        "        return model(x, tod, dow)\n",
    ),
    "R011": (
        "src/repro/data/events.py",
        "class Flood(Event):\n    start: int = 0\n",
        "class Flood(Event):\n    start: int = 0\n    seed: int = 0\n",
    ),
    "R012": (
        "src/repro/obs/anything.py",
        "def install(hook):\n    _tensor_mod._BACKWARD_OP_HOOK = hook\n",
        "class Probe(Instrument):\n"
        "    def wrap_backward(self, node, inner):\n"
        "        inner(node)\n",
    ),
}


class TestPerRuleFixtures:
    """Every rule has a positive, a negative and a suppressed fixture."""

    def _install(self, tmp_path: Path, rel: str, body: str) -> Path:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
        return path

    def test_every_rule_has_a_fixture(self):
        assert set(RULE_FIXTURES) == set(LINT_RULES)

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_positive_fires_exactly_that_rule(self, tmp_path, rule):
        rel, bad, _ = RULE_FIXTURES[rule]
        path = self._install(tmp_path, rel, bad)
        assert [f.rule for f in lint_file(path, relative_to=tmp_path)] == [rule]

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_negative_is_silent(self, tmp_path, rule):
        rel, _, good = RULE_FIXTURES[rule]
        path = self._install(tmp_path, rel, good)
        assert lint_file(path, relative_to=tmp_path) == []

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_suppression_moves_the_finding_not_drops_it(self, tmp_path, rule):
        rel, bad, _ = RULE_FIXTURES[rule]
        lines = bad.splitlines()
        flagged = lint_file(
            self._install(tmp_path, rel, bad), relative_to=tmp_path
        )[0].line
        lines[flagged - 1] += f"  # lint: disable={rule}"
        path = self._install(tmp_path, rel, "\n".join(lines) + "\n")
        run = lint_file_report(path, relative_to=tmp_path)
        assert run.findings == ()
        assert [f.rule for f in run.suppressed] == [rule]
        assert run.ok


class TestSuppressionReporting:
    """Exit-code semantics: fully-suppressed runs pass but are counted."""

    def test_fully_suppressed_run_is_ok(self, tmp_path):
        body = (
            "import time\n"
            "a = time.time()  # lint: disable=R005\n"
            "b = time.perf_counter()  # lint: disable\n"
        )
        src = tmp_path / "src" / "repro" / "x.py"
        src.parent.mkdir(parents=True)
        src.write_text(body)
        run = lint_paths_report(("src",), root=tmp_path)
        assert isinstance(run, LintRun)
        assert run.ok and run.findings == ()
        assert len(run.suppressed) == 2

    def test_mixed_run_is_not_ok(self, tmp_path):
        body = (
            "import time\n"
            "a = time.time()  # lint: disable=R005\n"
            "b = time.perf_counter()\n"
        )
        src = tmp_path / "src" / "repro" / "x.py"
        src.parent.mkdir(parents=True)
        src.write_text(body)
        run = lint_paths_report(("src",), root=tmp_path)
        assert not run.ok
        assert [f.rule for f in run.findings] == ["R005"]
        assert len(run.suppressed) == 1

    def test_wrong_rule_suppression_does_not_silence(self, tmp_path):
        body = "import time\na = time.time()  # lint: disable=R001\n"
        src = tmp_path / "src" / "repro" / "x.py"
        src.parent.mkdir(parents=True)
        src.write_text(body)
        run = lint_paths_report(("src",), root=tmp_path)
        assert [f.rule for f in run.findings] == ["R005"]
        assert run.suppressed == ()

    def test_format_mentions_suppression_count(self):
        assert format_findings([], suppressed=2) == "lint: clean, 2 suppressed"
        report = format_findings([Finding("a.py", 1, "R001", "msg")], suppressed=1)
        assert report.endswith("lint: 1 finding(s), 1 suppressed")

    def test_cli_exit_code_tracks_ok(self, tmp_path, capsys, monkeypatch):
        import argparse

        from repro.cli import cmd_lint

        body = "import time\na = time.time()  # lint: disable\n"
        src = tmp_path / "src" / "repro" / "x.py"
        src.parent.mkdir(parents=True)
        src.write_text(body)
        monkeypatch.chdir(tmp_path)
        args = argparse.Namespace(paths=["src"], root=".", json=False)
        assert cmd_lint(args) == 0
        out = capsys.readouterr().out
        assert "1 suppressed" in out
        src.write_text("import time\na = time.time()\n")
        assert cmd_lint(args) == 1


class TestLintPaths:
    def test_repo_head_is_clean(self):
        findings = lint_paths(root=REPO_ROOT)
        assert findings == [], format_findings(findings)

    def test_default_paths_cover_the_source_tree(self):
        assert DEFAULT_LINT_PATHS == ("src", "examples", "benchmarks")

    def test_missing_paths_are_skipped(self, tmp_path):
        assert lint_paths(("nothing_here",), root=tmp_path) == []

    def test_findings_sorted_and_hashable(self):
        findings = lint_file(FIXTURE)
        assert findings == sorted(findings, key=lambda f: (f.path, f.line, f.rule))
        assert len(set(findings)) == len(findings)  # frozen dataclass


class TestRuleTable:
    def test_rules_are_documented(self):
        assert set(LINT_RULES) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
            "R009", "R010", "R011", "R012",
        }
        for rule, description in LINT_RULES.items():
            assert description, rule

    def test_format_findings_clean(self):
        assert format_findings([]) == "lint: clean"

    def test_format_findings_summary_line(self):
        findings = [Finding("a.py", 1, "R001", "msg")]
        assert format_findings(findings).endswith("lint: 1 finding(s)")
