"""ifslab benchmark: seeded lab workloads driven through `ifslab.cli.main`.

    python3 perfbench/run.py --workload left_orbit --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory, never from an installed copy.

One process, one thread, one client in a closed loop: every task is one
in-process `ifslab.cli.main([...])` call that waits for the previous
one, writing into a scratch --out directory under perfbench/.work.  The
loop runs whole passes over the seed's task list until --seconds have
gone by.  Each task's artifacts go through the oracle (oracle.py); a
task fails if it exits 2 or 3, raises, writes a non-finite value, or
disagrees with the stored reference.  Failures are listed by task and
error name and are left out of latency and throughput.

--trace 0 prints the end-to-end metrics.  Times are wall times scaled to
the reference speed (see _calibrate): a fixed pure-Python chunk runs
before every task and after the last one, and each task's wall time is
multiplied by CALIBRATION_REF_S / the median of the CALIBRATION_WINDOW
chunks on each side of it.  On a shared host whose speed drifts by tens
of percent over seconds, this keeps the program's cost and drops the
host's; the raw wall-time figures are printed in the provenance line.
  task_p50_ms   median scaled time of one successful task
  task_tail_ms  the workload's tail percentile (workloads.TAIL_PERCENTILE)
                of the scaled times of successful tasks; the provenance
                line names it and counts the samples beyond it
  ops_per_s     work units of successful tasks / scaled time of all
                tasks, over the whole run
  setup_s       median over SETUP_PROBES fresh interpreters of the scaled
                time to import ifslab and write the workload's inputs
  peak_rss_mb   peak resident memory of this process

--trace 1 runs one pass untraced and the same pass traced (tracer.py),
checks that both wrote identical artifacts and that the wrappers came
off again, then traces the fixed paired-size scaling probes, and prints
the per-layer metrics.  The spans go to perfbench/.work/trace-*.

The last stdout line is the result object; earlier lines carry the
provenance (nproc, Python, clock, load average, task count) and one line
per failed task.  --write-reference stores the default seed's outcomes
as the oracle's reference.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import gc
import io
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference"
SETUP_PROBES = 7
# _calibrate's median time on the 2-vCPU VM the baseline was measured on;
# scaled times are in milliseconds or seconds at that speed
CALIBRATION_REF_S = 0.010
CALIBRATION_WINDOW = 4  # chunks on each side of a task
ERROR_NAMES = (
    "NonAutomorphismError", "ConsistencyError", "InconclusiveError", "DepthCapError",
    "TrackingRefusal", "DomainError", "SingularityError", "UsageError", "NonFiniteOutput",
    "MalformedOutput", "ReferenceMismatch", "ZeroDivisionError", "OverflowError",
)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_ifslab():
    src = ROOT / "src"
    if not (src / "ifslab" / "__init__.py").is_file():
        raise HarnessError(f"no ifslab sources under {src}")
    sys.path.insert(0, str(src))
    import ifslab.cli

    if pathlib.Path(ifslab.__file__).resolve().parent != (src / "ifslab").resolve():
        raise HarnessError(f"imported ifslab from {ifslab.__file__}, not from {src}")
    return ifslab.cli


def _run_task(cli, task: dict, out: pathlib.Path):
    """One CLI invocation; returns (wall ns, exit status or exception)."""
    if out.exists():
        shutil.rmtree(out)
    gc.collect()  # every task starts from the same collector state
    argv = ["--out", str(out)] + task["argv"]
    sink = io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except SystemExit as e:  # argparse rejected the command line
        status = e.code
    except Exception as e:  # a task that raises is a failed task, not a harness crash
        status = e
    return time.perf_counter_ns() - start, status


class Ledger:
    """Outcomes per task id, checked once and then held to byte identity."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first = {}  # task id -> (artifact hash, outcome)
        self.problems = []  # reasons the run is not correct

    def outcome(self, task: dict, out: pathlib.Path, status) -> dict:
        digest = oracle.artifact_hash(out)
        seen = self.first.get(task["id"])
        if seen is not None and seen[0] == digest:
            return seen[1]
        result = oracle.check(task, out, status)
        if seen is not None:
            self.problems.append(f"{task['id']}: artifacts differ between identical runs")
        elif self.reference is not None:
            ref = self.reference.get(task["id"])
            diffs = ["no reference entry"] if ref is None else oracle.compare(ref, result)
            if diffs:
                self.problems.append(f"{task['id']}: reference mismatch: {'; '.join(diffs[:3])}")
                result = dict(result, ok=False, error="ReferenceMismatch", detail="; ".join(diffs[:3]))
        self.first[task["id"]] = (digest, result)
        return result


def _load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise HarnessError(f"missing reference {path}")
    return json.loads(path.read_text(encoding="utf-8"))["tasks"]


def _percentile(sorted_ms: list, p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_ms)))
    return sorted_ms[rank - 1]


def _tail(samples_ms: list, p: float):
    """(value, number of samples beyond it) of the p-th percentile."""
    xs = sorted(samples_ms)
    return _percentile(xs, p), len(xs) - max(1, math.ceil(p / 100.0 * len(xs)))


def _calibrate() -> float:
    """Wall time of a fixed chunk of pure-Python work, independent of ifslab.

    About 10 ms of exact and complex arithmetic, small statistics and
    string formatting, spread over many interpreter code paths: a chunk
    with a broad code footprint slows down with a busy host more like the
    program does than a tight loop would.
    """
    start = time.perf_counter()
    x = fractions.Fraction(1, 3)
    for i in range(1, 120):
        x = (x * fractions.Fraction(i, i + 1) + fractions.Fraction(1, i)) / (1 + x)
        x = x.limit_denominator(10**6)
    for i in range(40):
        statistics.median([((i * 37 + j) % 101) / 7 for j in range(60)])
        statistics.pvariance([float(i + j) for j in range(40)])
    z, acc = 0.3 + 0.1j, 0j
    for _ in range(10_000):
        z = (z * z + 0.1) / (1 + 0.5j * z.conjugate())
        acc += z
    "".join(f"{k}:{v!r}," for k, v in {str(i): i / 3 for i in range(800)}.items())
    return time.perf_counter() - start


def _scaled(raw: list, chunks: list) -> list:
    """raw[i] at the reference speed; chunks[i] ran just before raw[i], chunks[-1] after the last."""
    w = CALIBRATION_WINDOW
    return [x * CALIBRATION_REF_S / statistics.median(chunks[max(0, i - w + 1):i + w + 1])
            for i, x in enumerate(raw)]


def _setup_seconds(workload: str, seed: int, work: pathlib.Path):
    """(scaled, raw) median set-up time over SETUP_PROBES fresh interpreters."""
    times, chunks = [], []
    for i in range(SETUP_PROBES):
        chunks.append(_calibrate())
        indir = work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(indir),
               "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise HarnessError(f"setup probe failed: {line!r}, exit {code}")
        times.append(elapsed)
        shutil.rmtree(indir, ignore_errors=True)
    chunks.append(_calibrate())
    return statistics.median(_scaled(times, chunks)), statistics.median(times)


def _provenance(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "why": workloads.WHY[workload],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "clock": "time.perf_counter_ns, resolution %g s" % time.get_clock_info("perf_counter").resolution,
        "loadavg_at_start": list(os.getloadavg()),
        "client": "closed loop, 1 client, 1 thread, in-process cli.main",
    }


def _report_failures(records) -> int:
    failed = 0
    listed = set()
    for task, result in records:
        if result["ok"]:
            continue
        failed += 1
        if task["id"] not in listed:
            listed.add(task["id"])
            print(f"failure task={task['id']} error={result['error']} detail={result.get('detail', '')[:200]}")
    return failed


def _measure(cli, workload: str, seed: int, seconds: float, work: pathlib.Path):
    prov = _provenance(workload, seed, 0)
    if tracer.leftover_wrappers():
        raise HarnessError(f"untraced run sees wrappers: {tracer.leftover_wrappers()}")
    setup_s, raw_setup_s = _setup_seconds(workload, seed, work)
    tasks = workloads.prepare(workload, seed, work / "in")
    default = seed == workloads.DEFAULT_SEED
    ledger = Ledger(_load_reference(workload) if default else None)
    out = work / "out"
    records, wall_s, chunks = [], [], []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for task in tasks:
            chunks.append(_calibrate())
            ns, status = _run_task(cli, task, out)
            records.append((task, ledger.outcome(task, out, status)))
            wall_s.append(ns / 1e9)
        passes += 1
    chunks.append(_calibrate())
    loop_s = time.perf_counter() - start
    scaled_s = _scaled(wall_s, chunks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer.leftover_wrappers():
        ledger.problems.append(f"untraced run saw wrappers: {tracer.leftover_wrappers()}")
    if not default:
        # the stored reference applies to the default seed's inputs only
        ref_ledger = Ledger(_load_reference(workload))
        for task in workloads.prepare(workload, workloads.DEFAULT_SEED, work / "ref-in"):
            _, status = _run_task(cli, task, out)
            ref_ledger.outcome(task, out, status)
        ledger.problems.extend(ref_ledger.problems)
    ok = [r["ok"] for _, r in records]
    ok_ms = [s * 1e3 for s, good in zip(scaled_s, ok) if good]
    if not ok_ms:
        raise HarnessError("no task succeeded")
    units = sum(r["units"] for _, r in records if r["ok"])
    tail_p = workloads.TAIL_PERCENTILE[workload]
    tail_ms, beyond = _tail(ok_ms, tail_p)
    raw_ok_ms = [s * 1e3 for s, good in zip(wall_s, ok) if good]
    failed = _report_failures(records)
    prov.update(
        tasks_attempted=len(records), tasks_per_pass=len(tasks), passes=passes, loop_s=loop_s,
        successful_samples=len(ok_ms), task_tail_percentile=f"p{tail_p:g}",
        task_tail_samples_beyond=beyond, failed_share=failed / len(records),
        ops_unit=workloads.WHY[workload].rsplit("ops = ", 1)[1], problems=ledger.problems,
        calibration_median_s=statistics.median(chunks), calibration_ref_s=CALIBRATION_REF_S,
        raw_wall={"task_p50_ms": statistics.median(raw_ok_ms), "task_tail_ms": _tail(raw_ok_ms, tail_p)[0],
                  "ops_per_s": units / sum(wall_s), "setup_s": raw_setup_s},
    )
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics = {
        "task_p50_ms": {"value": statistics.median(ok_ms), "unit": "ms"},
        "task_tail_ms": {"value": tail_ms, "unit": "ms"},
        "ops_per_s": {"value": units / sum(scaled_s), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return not ledger.problems, len(records), failed, metrics


def _scaling(cli, work: pathlib.Path) -> dict:
    """Count-based scaling exponents from fixed paired-size probes.

    Each probe runs at size N and 2N under its own tracer; the exponent
    is log2(count at 2N / count at N) of an exact count, so it repeats
    exactly: evaluations inside right advances for a Blaschke cycle,
    evaluations inside verify_backward_orbit for a rotation orbit, and
    kth_root probes inside build_dense for 4 and 8 default targets.
    """
    replay = json.dumps({"type": "cycle", "generators": [
        {"kind": "blaschke", "zeros": [[0.3, 0.1], [-0.2, 0.4]], "phase": 0.5}]})
    rotation = complex(0.6, 0.8)
    stream = json.dumps({"type": "cycle", "generators": [{"kind": "mobius", "domain": "disc", "matrix": [
        [rotation.real, rotation.imag], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]})
    probes = []  # (metric, counter, argv)
    for n in (300, 600):
        probes.append(("ifs.right.scaling_exp", "ifs.right.evals",
                       ["simulate", "--side", "right", "--stream", replay, "-N", str(n)]))
        orbit = work / f"scaling-orbit-{n}.json"
        # backward orbit of the rotation: w_k = rotation^-k w_0
        pts = [0.5 * rotation ** -k for k in range(n + 1)]
        orbit.write_text(json.dumps([[w.real, w.imag] for w in pts]), encoding="utf-8")
        probes.append(("ifs.verify_backward.scaling_exp", "ifs.verify_backward.evals",
                       ["straighten", "--side", "right", "--stream", stream, "-N", "1", "--orbit", str(orbit)]))
    for count in (4, 8):
        probes.append(("gallery.build_dense.scaling_exp", "gallery.probes",
                       ["gallery", "--example", "dense", "--count", str(count)]))
    counts = {}
    for metric, counter, argv in probes:
        t = tracer.Tracer()
        t.install()
        try:
            _, status = _run_task(cli, {"argv": argv}, work / "out")
        finally:
            t.uninstall()
        if status != 0:
            raise HarnessError(f"scaling probe {argv} failed: {status!r}")
        counts.setdefault(metric, []).append(t.counts.get(counter, 0))
    return {metric: tracer.scaling_exp(*pair) for metric, pair in counts.items()}


def _trace(cli, workload: str, seed: int, work: pathlib.Path):
    prov = _provenance(workload, seed, 1)
    problems = []
    tasks = workloads.prepare(workload, seed, work / "in")
    out = work / "out"
    if tracer.leftover_wrappers():
        raise HarnessError(f"untraced pass sees wrappers: {tracer.leftover_wrappers()}")
    plain = []
    for task in tasks:
        ns, status = _run_task(cli, task, out)
        plain.append((ns, oracle.artifact_hash(out), oracle.check(task, out, status)))
    t = tracer.Tracer()
    t.install()
    traced = []
    try:
        for i, task in enumerate(tasks):
            t.task[0] = i
            ns, status = _run_task(cli, task, out)
            traced.append((ns, oracle.artifact_hash(out), oracle.check(task, out, status)))
    finally:
        t.uninstall()
    if tracer.leftover_wrappers():
        problems.append(f"wrappers left after uninstall: {tracer.leftover_wrappers()}")
    for task, a, b in zip(tasks, plain, traced):
        if a[1] != b[1]:
            problems.append(f"{task['id']}: traced artifacts differ from untraced ones")
    metrics = tracer.layer_metrics(t)
    metrics.update({k: {"value": v, "unit": "exp"} for k, v in _scaling(cli, work).items()})
    ok_plain = [a[0] for a in plain if a[2]["ok"]]
    ok_traced = [b[0] for b in traced if b[2]["ok"]]
    ratio = statistics.median(ok_traced) / statistics.median(ok_plain) if ok_plain and ok_traced else 0.0
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    errors = {name: 0 for name in ERROR_NAMES + ("Other",)}
    for _, _, r in traced:
        if not r["ok"]:
            key = r["error"] if r["error"] in errors else "Other"
            errors[key] += 1
    for name, n in errors.items():
        metrics[f"errors.{name}.count"] = {"value": n, "unit": "count"}
    stem = WORK / f"trace-{workload}"  # one span file per workload, overwritten
    t.dump(stem, [task["id"] for task in tasks])
    records = [(task, b[2]) for task, b in zip(tasks, traced)]
    failed = _report_failures(records)
    prov.update(tasks_attempted=len(tasks), spans=len(t.ids) // 4, span_file=str(stem.relative_to(ROOT)) + ".json",
                failed_share=failed / len(tasks), problems=problems)
    print("provenance " + json.dumps(prov, sort_keys=True))
    return not problems, len(tasks), failed, metrics


def _write_reference(cli, workload: str, work: pathlib.Path) -> None:
    tasks = workloads.prepare(workload, workloads.DEFAULT_SEED, work / "in")
    records = {}
    for task in tasks:
        _, status = _run_task(cli, task, work / "out")
        records[task["id"]] = oracle.reference_record(oracle.check(task, work / "out", status))
    REFERENCE.mkdir(exist_ok=True)
    doc = {"seed": workloads.DEFAULT_SEED, "rel_tol": oracle.REL_TOL, "abs_tol": oracle.ABS_TOL, "tasks": records}
    (REFERENCE / f"{workload}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default seed's outcomes as the oracle reference")
    args = ap.parse_args(argv)
    try:
        cli = _import_ifslab()
        if args.setup_probe:
            workloads.prepare(args.workload, args.seed, pathlib.Path(args.setup_probe))
            print("ready", flush=True)
            return 0
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        try:
            if args.write_reference:
                _write_reference(cli, args.workload, work)
                return 0
            if args.trace:
                correct, attempted, failed, metrics = _trace(cli, args.workload, args.seed, work)
            else:
                correct, attempted, failed, metrics = _measure(cli, args.workload, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
