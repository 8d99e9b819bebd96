"""One mutant of the program against the tier-1 suite: killed or survived.

    python3 tools/mutants.py FILE OLD NEW

Run from anywhere; standard library and pytest only, run by hand and not
in CI.  It copies the checkout (without .git and caches) to a temporary
directory, replaces the single occurrence of the text OLD in FILE (a path
from the root, such as src/ifslab/ifs.py) by NEW, and runs
`python -m pytest -x -q` there with src on PYTHONPATH.  A failing run
kills the mutant and names the first failure.  A test that fails only as
a strict xfail passing (XPASS(strict)) does not count: it is deselected
and the suite runs again, so a mutant that only such a test catches is
reported as a survivor, with those tests named.  Exits 0 either way, and
2 when OLD does not occur exactly once.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work", "*.egg-info")


def main(path: str, old: str, new: str) -> int:
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        print(f"{path}: the text to replace occurs {text.count(old)} times, not once")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        (copy / path).write_text(text.replace(old, new))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        # wide COLUMNS: the summary lines keep their reasons, "[XPASS(strict)] ..." among them
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1", COLUMNS="100000")
        xpassed = []
        while True:
            run = subprocess.run(cmd + [f"--deselect={t}" for t in xpassed], cwd=copy, env=env,
                                 capture_output=True, text=True)
            failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
            strict = [line.split()[1] for line in failed if "XPASS(strict)" in line]
            if run.returncode == 0 or not failed or len(strict) < len(failed) or set(strict) <= set(xpassed):
                break
            xpassed += strict
    tail = run.stdout.strip().splitlines()[-1:] or ["(no output)"]
    if run.returncode == 0:
        print("survived:", tail[0])
        for t in xpassed:
            print("  only an XPASS(strict) failed:", t)
    else:
        print("killed:", failed[0] if failed else tail[0])
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
