"""Alternating pairs of benchmark runs in two checkouts, and the gain rule.

    python3 tools/ab_pairs.py PARENT CHANGE --workload left_orbit --seconds 20 --pairs 10 --seed 1

PARENT and CHANGE are the roots of two checkouts; standard library only,
run by hand and not in CI.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, in a fresh interpreter with the checkout as its
working directory, so each side imports its own src; the side that runs
first alternates from pair to pair, parent first in pair 1.  Nothing
under perfbench/ is edited or copied.  The environment is passed on as
it is (set PYTHONDONTWRITEBYTECODE=1 to time runs without a bytecode
cache, as a fresh checkout has none).

For every metric of the result line it prints the median and quartiles
of each side, the change's median relative to the parent's, the pairs
the change wins (ties count for neither side) and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range.  Which way is
better comes from the change's BENCHMARK.json.  A run that is not
correct or has failed tasks is named under the table.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(root: pathlib.Path, args) -> dict:
    """The result object (last stdout line) of one untraced benchmark run in root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"ab_pairs: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs: list) -> tuple:
    """(q1, median, q3) of xs, by statistics.quantiles' default method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def directions(root: pathlib.Path) -> dict:
    """{metric: "lower" | "higher"} from the end-to-end list of root's BENCHMARK.json."""
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def report(results: dict, better: dict) -> None:
    parent, change = results["parent"], results["change"]
    n = len(parent)
    print(f"\n{'metric':14s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'rel':>8s}"
          f" {'wins':>6s}  gain rule")
    for name in parent[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(a), quartiles(b)
        rel = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "-"
        way = better.get(name)
        if way is None:
            wins, rule = "-", "? (no direction)"
        else:
            sign = 1 if way == "higher" else -1
            won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            holds = won >= 0.9 * n and sign * (cm - pm) > pq3 - pq1
            wins, rule = f"{won}/{n}", ("holds" if holds else "does not hold") + f" (parent IQR {pq3 - pq1:.4g})"
        print(f"{name:14s} {f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':>32s} {f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':>32s}"
              f" {rel:>8s} {wins:>6s}  {rule}")
    for side, runs in results.items():
        for i, r in enumerate(runs, 1):
            if r["correct"] is not True or r["failed"]:
                print(f"{side} run of pair {i}: correct {r['correct']}, failed {r['failed']}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path, help="root of the parent checkout")
    ap.add_argument("change", type=pathlib.Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            results[side].append(run_once(roots[side], args))
        line = "  ".join(
            f"{side} {results[side][-1]['metrics'].get('task_p50_ms', {}).get('value', float('nan')):.4g}"
            for side in order
        )
        print(f"pair {i}/{args.pairs} ({order[0]} first): task_p50_ms {line}", flush=True)
    report(results, directions(roots["change"]))


if __name__ == "__main__":
    main()
