"""Which lines of src/ifslab the tests and the programs reach.

    python3 tools/line_coverage.py

Run from the root of a checkout; standard library and pytest only.  Two
child processes each trace every line executed in src/ifslab with
sys.settrace: one runs the tier-1 suite, the other the perfbench tasks
of every workload at seeds 1 and 7 and then scripts/*.py at their
defaults.  The report gives the executable lines, the lines each run
reached, and, grouped by function, the lines reached by nothing and the
lines reached only by tests.  Tracing slows the suite several times over.
"""

import contextlib
import io
import json
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ifslab"


def executable_lines() -> dict:
    """{file name: {line: enclosing function}} from the compiled code objects."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        lines, todo = {}, [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")]
        while todo:
            code, owner = todo.pop()
            for _, _, line in code.co_lines():
                if line:  # 0 is a module's entry, not a source line
                    lines.setdefault(line, owner)
            # co_qualname is new in Python 3.11; 3.10 names the function alone
            todo += [(c, getattr(c, "co_qualname", c.co_name)) for c in code.co_consts if hasattr(c, "co_lines")]
        out[path.name] = lines
    return out


def _trace(dump: str, run) -> None:
    """Run run() under a line tracer of src/ifslab; write the reached lines."""
    hits, prefix = set(), str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename[len(prefix):], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    pathlib.Path(dump).write_text(json.dumps(sorted(hits)), encoding="utf-8")


def _tests() -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def _programs() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from ifslab import cli

    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in (1, 7):
                for i, task in enumerate(workloads.prepare(workload, seed, pathlib.Path(tmp, "in"))):
                    out = pathlib.Path(tmp, f"{workload}-{seed}-{i}")
                    with contextlib.suppress(Exception, SystemExit), contextlib.redirect_stderr(io.StringIO()):
                        cli.main(["--out", str(out), *task["argv"]])
    for script in sorted((ROOT / "scripts").glob("*.py")):
        sys.argv = [str(script)]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def main() -> None:
    if len(sys.argv) == 3:  # child: <phase> <dump file>
        sys.path.insert(0, str(ROOT / "src"))
        _trace(sys.argv[2], {"tests": _tests, "programs": _programs}[sys.argv[1]])
        return
    reached = {}
    with tempfile.TemporaryDirectory() as tmp:
        for phase in ("tests", "programs"):
            dump = pathlib.Path(tmp, phase)
            subprocess.run([sys.executable, __file__, phase, str(dump)], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            reached[phase] = {tuple(h) for h in json.loads(dump.read_text(encoding="utf-8"))}
    lines = executable_lines()
    every = {(name, line) for name, ls in lines.items() for line in ls}
    tests, programs = reached["tests"] & every, reached["programs"] & every
    print(f"executable {len(every)}, tier-1 reaches {len(tests)}, programs reach {len(programs)}")
    for title, rows in (("reached by nothing", every - tests - programs), ("reached only by tests", tests - programs)):
        print(f"\n{title}: {len(rows)}")
        groups = {}
        for name, line in sorted(rows):
            groups.setdefault((name, lines[name][line]), []).append(line)
        for (name, owner), ls in groups.items():
            print(f"  {name} {owner}: {' '.join(map(str, ls))}")


if __name__ == "__main__":
    main()
