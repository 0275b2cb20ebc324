"""Steadiness check: run workloads repeatedly and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload eval-drive --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --seed 100
    python3 perfbench/steady.py --workload reset-paper --runs 10 \\
        --tree ../parent-checkout --tree .

Run ``i`` uses seed ``--seed + i``.  For every end-to-end metric the
tool prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread -- the distance between the quartiles as a share of the
median -- next to the metric's bound from ``BENCHMARK.json``, marking
spreads above a third of the bound.

With two ``--tree`` directories (a parent checkout and a change), each
seed runs on both trees, alternating which tree runs first, and the
change's median is compared with the parent's against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A run that builds may take this long; any other run ends within 180 s.
RUN_TIMEOUT_S = 900.0


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - began
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree} is not correct:\n"
                           f"{done.stderr[-2000:]}")
    result["elapsed_s"] = elapsed
    return result


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` reads than ``parent``, as a share."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--tree", action="append", type=Path,
                        help="checkout to run in (give two to compare; "
                             "default: this checkout)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.tree or [ROOT])]
    if len(trees) > 2:
        parser.error("give at most two --tree directories")
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    unsteady = 0
    for workload in names if args.workload == "all" else [args.workload]:
        values = {tree: {} for tree in trees}
        elapsed = []
        for index in range(args.runs):
            seed = args.seed + index
            order = trees if index % 2 == 0 else trees[::-1]
            for tree in order:
                result = run_once(tree, workload, seed, args.seconds)
                elapsed.append(result["elapsed_s"])
                print(f"  {workload} seed {seed} [{tree.name}]: " + "  ".join(
                    f"{name}={entry['value']:.5g}"
                    for name, entry in result["metrics"].items()), flush=True)
                for name, entry in result["metrics"].items():
                    values[tree].setdefault(name, []).append(entry["value"])
        print(f"\n{workload}: {args.runs} runs per tree, seeds "
              f"{args.seed}..{args.seed + args.runs - 1}, "
              f"{args.seconds} s each, slowest run {max(elapsed):.1f} s wall")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            for tree in trees:
                median, q1, q3, spread = summary(values[tree][name])
                gated = name != "setup_s"
                flag = ("" if not gated or spread <= bound / 3
                        else "  <- above a third of the bound")
                unsteady += bool(flag)
                label = f" [{tree.name}]" if len(trees) > 1 else ""
                print(f"  {name:18s}{label} median {median:11.5g} "
                      f"q1 {q1:11.5g} q3 {q3:11.5g} {metric['unit']:5s} "
                      f"spread {spread:6.3f} (bound {bound}){flag}")
            if len(trees) == 2:
                parent = statistics.median(values[trees[0]][name])
                change = statistics.median(values[trees[1]][name])
                worse = worse_by(parent, change, metric["better"])
                verdict = "REGRESSION" if worse > bound else "within bound"
                print(f"  {'':18s} change vs parent: {worse:+.3f} worse "
                      f"-> {verdict}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
