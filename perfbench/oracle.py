"""Correctness oracle for benchmark tasks.

Every task, for any seed, is checked on its artifacts:

* the exit status is 0 (2 is a usage error, 3 a numerical abort whose
  error name comes from diagnostics.json);
* each expected artifact exists, every JSON artifact parses with NaN and
  Infinity rejected, and every CSV number is finite;
* repeated runs of one task write byte-identical artifacts.

For the default seed the artifacts are also compared with stored
reference results (reference/<workload>.json): strings, booleans and
integers must match exactly, floats within REL_TOL relative (plus
ABS_TOL absolute, for values that are rounding noise around zero).
Byte identity is deliberately not required there, so a change at the
rounding level is not a failure.  A task that failed in the reference
and now succeeds is not a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

REL_TOL = 1e-9
ABS_TOL = 1e-12
_LIST_KEEP = 16  # longer lists are summarised by length and last entry

_ARTIFACTS = {
    "simulate": ("orbit.csv",),
    "classify": ("classify.json",),
    "straighten": ("straighten.json", "straighten.csv"),
    "fixed-points": ("fixed_points.json",),
    "verify": ("verify.json", "margins.csv"),
    "gallery": ("gallery.json",),
}


class OutputError(Exception):
    """An artifact is missing, malformed or holds a non-finite number."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _reject_constant(token: str):
    raise OutputError("NonFiniteOutput", f"JSON holds {token}")


def _load_json(path: pathlib.Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise OutputError("MalformedOutput", f"{path.name}: {e}")


def _number(field: str):
    """A CSV field as float or complex; None for text (kind column)."""
    for parse in (float, complex):
        try:
            return parse(field)
        except ValueError:
            pass
    return None


def _finite(v) -> bool:
    if isinstance(v, complex):
        return math.isfinite(v.real) and math.isfinite(v.imag)
    return math.isfinite(v)


def _scan_csv(path: pathlib.Path):
    """Row count and last row; raises on any non-finite number."""
    rows = 0
    last = []
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            fields = line.rstrip("\n").split(",")
            parsed = []
            for f in fields:
                if f == "":
                    parsed.append(None)
                    continue
                v = _number(f)
                if v is not None and not _finite(v):
                    raise OutputError("NonFiniteOutput", f"{path.name} row {rows + 1}: {f}")
                parsed.append(f if v is None else v)
            rows += 1
            last = parsed
    return {"header": header, "rows": rows, "last": last}


def _summary(obj):
    if isinstance(obj, dict):
        return {k: _summary(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) <= _LIST_KEEP:
            return [_summary(v) for v in obj]
        return {"len": len(obj), "last": _summary(obj[-1])}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def artifact_hash(out: pathlib.Path) -> str:
    """Digest of every artifact in out; empty when the task wrote nothing."""
    if not out.exists():
        return ""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _units(argv: list, found: dict) -> int:
    cmd = argv[0]
    if cmd == "simulate":
        csv = found["orbit.csv"]
        seeds = max(1, sum(a.startswith("--seed-point") for a in argv))
        return csv["rows"] - seeds
    if cmd == "classify":
        rep = found["classify.json"]
        return rep["horizon"] * (len(rep["base_points"]) if rep["side"] == "left" else 1)
    if cmd == "straighten":
        rep = found["straighten.json"]
        return rep["steps"] * (len(rep["grid"]) + 1)
    if cmd == "fixed-points":
        return found["fixed_points.json"]["horizon"]
    if cmd == "verify":
        return found["verify.json"]["draws"]
    return found["gallery.json"]["map_count"]


def check(task: dict, out: pathlib.Path, status) -> dict:
    """Outcome of one task: ok flag, error name, units, reference summary.

    status is the exit code, or the exception the task raised.
    """
    if isinstance(status, BaseException):
        return {"ok": False, "error": type(status).__name__, "detail": str(status)}
    if status == 2:
        return {"ok": False, "error": "UsageError", "detail": "exit 2"}
    if status == 3:
        try:
            diag = _load_json(out / "diagnostics.json")
            return {"ok": False, "error": diag["error"], "detail": diag.get("message", "")}
        except (OSError, OutputError, KeyError) as e:
            return {"ok": False, "error": "MalformedOutput", "detail": f"exit 3 without diagnostics: {e}"}
    if status != 0:
        return {"ok": False, "error": "UnexpectedExit", "detail": f"exit {status}"}
    found = {}
    try:
        names = set(_ARTIFACTS[task["argv"][0]]) | {p.name for p in out.iterdir()}
        for name in sorted(names):
            path = out / name
            if not path.is_file():
                raise OutputError("MalformedOutput", f"missing {name}")
            if name.endswith(".json"):
                found[name] = _load_json(path)
            elif name.endswith(".csv"):
                found[name] = _scan_csv(path)
            else:
                found[name] = {"present": True}
        units = _units(task["argv"], found)
    except OutputError as e:
        return {"ok": False, "error": e.name, "detail": str(e)}
    except (KeyError, TypeError) as e:
        return {"ok": False, "error": "MalformedOutput", "detail": f"unexpected artifact shape: {e!r}"}
    return {"ok": True, "error": None, "units": units, "summary": _summary(found)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _diff(ref, got, path: str, out: list) -> None:
    if isinstance(ref, bool) or isinstance(got, bool) or isinstance(ref, str) or ref is None:
        if ref != got:
            out.append(f"{path}: {ref!r} != {got!r}")
    elif isinstance(ref, int) and isinstance(got, int):
        if ref != got:
            out.append(f"{path}: {ref} != {got}")
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if not _close(float(ref), float(got)):
            out.append(f"{path}: {ref!r} != {got!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{path}: keys {sorted(ref)} != {sorted(got)}")
            return
        for k in ref:
            _diff(ref[k], got[k], f"{path}.{k}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(ref)} != {len(got)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{path}[{i}]", out)
    else:
        out.append(f"{path}: {ref!r} != {got!r}")


def reference_record(outcome: dict) -> dict:
    if outcome["ok"]:
        return {"ok": True, "summary": outcome["summary"]}
    return {"ok": False, "error": outcome["error"]}


def compare(ref: dict, outcome: dict) -> list:
    """Mismatches between a stored reference record and a fresh outcome."""
    if not ref["ok"]:
        # a reference failure that now succeeds is a fix, not a mismatch
        if outcome["ok"] or outcome["error"] == ref["error"]:
            return []
        return [f"failure changed: {ref['error']} -> {outcome['error']}"]
    if not outcome["ok"]:
        return [f"reference succeeded, now {outcome['error']}"]
    out = []
    _diff(ref["summary"], outcome["summary"], "", out)
    return out
