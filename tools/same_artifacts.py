"""Byte identity of every perfbench task's outcome in two checkouts.

    python3 tools/same_artifacts.py PARENT CHANGE [--seeds 1 5]

PARENT and CHANGE are the roots of two checkouts; standard library only,
run by hand and not in CI, like ab_pairs.py.  For each checkout a fresh
interpreter (python -B, so no bytecode is written into it) takes every
task of the four perfbench workloads at each seed, in process through
that checkout's ifslab.cli.main, as perfbench/run.py does.  The inputs
come from that checkout's perfbench/workloads.prepare and are written,
like every --out directory, under the same relative paths in a scratch
directory of each side, so the command lines are the same text on both.
Nothing under perfbench/ is edited or copied.

It then compares the two scratch trees file by file (every input and
artifact, byte for byte) and each task's exit status, stdout and stderr,
and exits 1 naming the first file or task that differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

# Run in each side's scratch directory with argv [root, seed, ...]: every
# task's artifacts go to out/<seed>/<task id>/, its inputs to
# in/<seed>/<workload>/, and its status, stdout and stderr to outcomes.json.
DRIVER = r"""
import contextlib, io, json, pathlib, sys
root = pathlib.Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
from ifslab import cli
outcomes = {}
for seed in sys.argv[2:]:
    for workload in workloads.WORKLOADS:
        for task in workloads.prepare(workload, int(seed), pathlib.Path("in", seed, workload)):
            out, stdout, stderr = pathlib.Path("out", seed, task["id"]), io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    status = cli.main(["--out", str(out)] + task["argv"])
                except SystemExit as e:
                    status = e.code
                except Exception as e:
                    status = f"{type(e).__name__}: {e}"
            outcomes[f"{seed}/{task['id']}"] = {"status": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
pathlib.Path("outcomes.json").write_text(json.dumps(outcomes, indent=1), encoding="utf-8")
"""


def run_side(root: pathlib.Path, work: pathlib.Path, seeds: list) -> dict:
    """Run every task of root's checkout in work; its outcomes by task."""
    work.mkdir()
    cmd = [sys.executable, "-B", "-c", DRIVER, str(root.resolve())] + [str(s) for s in seeds]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"same_artifacts: the tasks of {root} did not run (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads((work / "outcomes.json").read_text(encoding="utf-8"))


def first_difference(parent: pathlib.Path, change: pathlib.Path) -> str | None:
    """The first relative path whose presence or bytes differ in the two trees, or None."""
    files = {}
    for side, top in (("parent", parent), ("change", change)):
        files[side] = {p.relative_to(top): p for p in top.rglob("*") if p.is_file() and p.name != "outcomes.json"}
    for rel in sorted(files["parent"].keys() | files["change"].keys()):
        a, b = files["parent"].get(rel), files["change"].get(rel)
        if a is None or b is None:
            return f"{rel} (only in the {'change' if a is None else 'parent'})"
        if a.read_bytes() != b.read_bytes():
            return str(rel)
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 5])
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as tmp:
        work = pathlib.Path(tmp)
        outcomes = {side: run_side(root, work / side, args.seeds)
                    for side, root in (("parent", args.parent), ("change", args.change))}
        for task in sorted(outcomes["parent"].keys() | outcomes["change"].keys()):
            a, b = outcomes["parent"].get(task), outcomes["change"].get(task)
            if a != b:
                which = "the task" if a is None or b is None else ", ".join(k for k in a if a[k] != b.get(k))
                print(f"same_artifacts: task {task} differs in {which}")
                return 1
        rel = first_difference(work / "parent", work / "change")
        if rel is not None:
            print(f"same_artifacts: {rel} differs")
            return 1
        count = sum(1 for p in (work / "change").rglob("*") if p.is_file()) - 1
        print(f"same_artifacts: {len(outcomes['change'])} tasks at seeds {args.seeds}, {count} files: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
