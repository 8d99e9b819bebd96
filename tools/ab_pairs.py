"""Alternating pairs of benchmark runs in two checkouts, and the gain rule.

    python3 tools/ab_pairs.py PARENT CHANGE --workload left_orbit --seconds 20 --pairs 10 --seed 1 [--json PATH]

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

--json PATH also writes that table as a JSON object, the file a perf
change checks in as BENCH_<n>.json: for every metric its direction,
each side's median and quartiles, the relative change of the medians,
the wins, the pair count and the gain rule's verdict; with the
workload, seed, seconds, pair count, Python version, the usable CPU
count (nproc) and each checkout's git rev-parse HEAD (null outside git).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
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


def summarize(results: dict, better: dict) -> dict:
    """{metric: its medians, quartiles, wins and gain rule verdict} of the pairs in results."""
    parent, change = results["parent"], results["change"]
    n = len(parent)
    summary = {}
    for name in parent[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(a), quartiles(b)
        way, wins, holds = better.get(name), None, None
        if way is not None:
            sign = 1 if way == "higher" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            holds = wins >= 0.9 * n and sign * (cm - pm) > pq3 - pq1
        summary[name] = {
            "better": way,
            "parent": {"median": pm, "q1": pq1, "q3": pq3},
            "change": {"median": cm, "q1": cq1, "q3": cq3},
            "rel": (cm - pm) / pm if pm else None,
            "wins": wins,
            "pairs": n,
            "gain_rule": holds,
        }
    return summary


def report(results: dict, summary: dict) -> None:
    print(f"\n{'metric':14s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'rel':>8s}"
          f" {'wins':>6s}  gain rule")
    for name, m in summary.items():
        p, c = m["parent"], m["change"]
        rel = "-" if m["rel"] is None else f"{m['rel'] * 100:+.1f}%"
        if m["better"] is None:
            wins, rule = "-", "? (no direction)"
        else:
            wins = f"{m['wins']}/{m['pairs']}"
            rule = ("holds" if m["gain_rule"] else "does not hold") + f" (parent IQR {p['q3'] - p['q1']:.4g})"
        parent_cell = f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
        change_cell = f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
        print(f"{name:14s} {parent_cell:>32s} {change_cell:>32s} {rel:>8s} {wins:>6s}  {rule}")
    for side, runs in results.items():
        for i, r in enumerate(runs, 1):
            if r["correct"] is not True or r["failed"]:
                print(f"{side} run of pair {i}: correct {r['correct']}, failed {r['failed']}")


def revision(root: pathlib.Path) -> str | None:
    """git rev-parse HEAD in root; None where root is no git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path, help="root of the parent checkout")
    ap.add_argument("change", type=pathlib.Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=pathlib.Path, metavar="PATH", help="also write the summary to PATH as JSON")
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
    summary = summarize(results, directions(roots["change"]))
    report(results, summary)
    if args.json is not None:
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "revisions": {side: revision(root) for side, root in roots.items()},
            "metrics": summary,
        }
        args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
