"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-d2stgnn --seed 1 --seconds 25 --trace 0

The launcher pins every BLAS library to one thread before numpy loads, so
the router, its K=2 shard workers and the client threads never ask for
more cores than the machine's two.  The result line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the context
behind it (environment fingerprint, sample counts, span report) is printed
on the line before and written to ``.perfbench/<workload>-<seed>-trace<t>.json``
together with the raw spans of a traced run.  A failed correctness check
exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("train-d2stgnn", "serve-fresh-k1", "serve-city-k2")


def _load_program() -> None:
    """Make ``repro`` (from ``src``) and this package importable, or exit."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _metric_names(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads(SPEC.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    _load_program()

    from perfbench import serve_city, serve_fresh, train
    from perfbench.common import WORK_DIR, CheckFailed, fingerprint, write_spans

    workload = {"train-d2stgnn": train, "serve-fresh-k1": serve_fresh,
                "serve-city-k2": serve_city}[args.workload]
    trace = bool(args.trace)
    try:
        outcome = workload.run(args.seed, args.seconds, trace, args.size)
    except CheckFailed as error:
        print(f"perfbench: correctness check failed: {error}", file=sys.stderr)
        return 1

    measured = outcome.per_layer if trace else outcome.end_to_end
    declared = dict(_metric_names(trace))
    undeclared = sorted(set(measured) - set(declared))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for name, unit in declared.items():
        # A per-layer metric of a layer this workload does not run reads 0.
        value, measured_unit = measured.get(name, (0.0, unit))
        if measured_unit != unit:
            raise RuntimeError(f"{name} measured in {measured_unit}, declared in {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    outcome.detail["not_run_here"] = sorted(set(declared) - set(measured))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": fingerprint(),
              **outcome.detail}
    WORK_DIR.mkdir(exist_ok=True)
    stem = WORK_DIR / f"{args.workload}-{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2, default=str) + "\n")
    if trace:
        write_spans(outcome.spans, stem.with_suffix(".spans.jsonl"))
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
