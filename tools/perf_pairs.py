#!/usr/bin/env python
"""Alternated fresh-process A/B pairs of one ``perfbench`` workload.

Usage, from anywhere::

    python tools/perf_pairs.py BASE_DIR CHANGE_DIR --workload train-d2stgnn --seeds 1-10

``BASE_DIR`` and ``CHANGE_DIR`` are two checkouts (for example the parent
commit unpacked with ``git archive`` and the working tree).  For every seed
the tool runs ``perfbench/run.py --trace 0`` once in each checkout, each run
in a fresh process and as long as ``BENCHMARK.json``'s ``run_seconds``; the
base side goes first on even seeds and the change side on odd ones, so slow
drift of the host loads both sides alike.

It prints every pair's end-to-end metrics as the runs finish, then one
summary row per metric: the medians of both sides, the interquartile range
of the base side's runs and the number of pairs the change won, in the
direction ``BENCHMARK.json`` declares.  ``claim`` reads ``yes`` when at
least ten pairs ran, the change won at least nine in ten, the medians
differ by more than the base side's IQR and the change's runs failed no
larger share of their operations than the base side's: the rule a claimed
gain has to meet (``docs/performance.md``, "Measurement discipline").
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fewer pairs than this support no claim, however they come out.
MIN_PAIRS = 10


def parse_result(stdout: str) -> dict:
    """The result object ``perfbench/run.py`` prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed no result line")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError(f"not a perfbench result line: {lines[-1][:80]}")
    return result


def parse_seeds(text: str) -> list[int]:
    """``"3"`` -> [3]; ``"1-10"`` -> [1, ..., 10]."""
    first, _, last = text.partition("-")
    low, high = int(first), int(last or first)
    if high < low:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(low, high + 1))


def _values(results: list[dict], name: str) -> list[float]:
    return [float(result["metrics"][name]["value"]) for result in results]


def summarise(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per declared metric over ``(seed, base, change)`` pairs.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries.  Each row
    holds the medians, the base side's IQR, the pairs won (a tie wins
    neither side) and whether the claim rule holds; no claim holds when the
    change failed a larger share of its attempted operations than the base.
    """
    failed = {side: sum(pair[side]["failed"] for pair in pairs) for side in (1, 2)}
    attempted = {side: sum(pair[side]["attempted"] for pair in pairs) for side in (1, 2)}
    # failed[2] / attempted[2] <= failed[1] / attempted[1], without dividing.
    no_more_failures = failed[2] * attempted[1] <= failed[1] * attempted[2]
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        base = _values([pair[1] for pair in pairs], name)
        change = _values([pair[2] for pair in pairs], name)
        won = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        if len(base) >= 2:
            q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
            iqr = q3 - q1
        else:
            iqr = 0.0
        base_median, change_median = statistics.median(base), statistics.median(change)
        gain = (change_median - base_median) if higher else (base_median - change_median)
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "base_median": base_median, "change_median": change_median,
            "base_iqr": iqr, "won": won, "pairs": len(pairs),
            "claim": (len(pairs) >= MIN_PAIRS and won * 10 >= 9 * len(pairs)
                      and gain > iqr and no_more_failures),
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    header = (f"{'metric':<18} {'base median':>12} {'change median':>14} "
              f"{'change':>8} {'base IQR':>10} {'won':>7}  claim")
    lines = [header]
    for row in rows:
        base, change = row["base_median"], row["change_median"]
        relative = f"{(change - base) / base:+.1%}" if base else "n/a"
        lines.append(
            f"{row['metric']:<18} {base:>12.4g} {change:>14.4g} {relative:>8} "
            f"{row['base_iqr']:>10.4g} {row['won']:>3}/{row['pairs']:<3}  "
            f"{'yes' if row['claim'] else 'no'}"
        )
    return "\n".join(lines)


def format_pair(seed: int, first: str, base: dict, change: dict, names: list[str]) -> str:
    cells = [f"seed {seed:>3} ({first} first)"]
    for name in names:
        cells.append(f"{name} {base['metrics'][name]['value']:.4g} -> "
                     f"{change['metrics'][name]['value']:.4g}")
    cells.append(f"failed {base['failed']}/{base['attempted']} -> "
                 f"{change['failed']}/{change['attempted']}")
    return "  ".join(cells)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_result(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base (parent) side")
    parser.add_argument("change", type=Path, help="checkout of the changed side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="N or A-B")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    names = [metric["name"] for metric in metrics]
    pairs = []
    for seed in args.seeds:
        sides = {"base": args.base, "change": args.change}
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        results = {side: run_once(sides[side], args.workload, seed, seconds)
                   for side in order}
        pairs.append((seed, results["base"], results["change"]))
        print(format_pair(seed, order[0], results["base"], results["change"], names),
              flush=True)
    print(format_summary(summarise(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
