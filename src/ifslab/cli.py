"""Command-line experiment runner.

Artifacts are deterministic by construction: every float goes through
one fixed format (``%.17g``, a complex column ``%.17g%+.17gj``), JSON
keys are sorted, and nothing embeds a timestamp or machine identifier,
so the same configuration and seed produce byte-identical files.  The
rows of orbit.csv and series.csv are formatted a block at a time, one
``%`` of the row layout repeated over about CSV_CHUNK rows, and every
other CSV row is one ``%`` of its layout; both give the same bytes.

Every JSON artifact is a report dataclass's fields as they are
(``_report``), converted by the writer's hook as it reaches them
(``_encode``: a complex becomes ``[re, im]``, a Moebius map its
``moebius.to_json`` payload, a dataclass its fields), and is written
strictly: a JSON artifact never holds NaN or Infinity.  The writer is
cli's own (``_json_pieces``); its bytes are the standard library's
sorted, indent-2 form, ``json.dumps(doc, sort_keys=True, indent=2,
allow_nan=False, default=_encode)``, which is its test oracle.

Every artifact streams to a temporary name in the output directory in
fixed-size chunks as it is produced, so memory stays flat in N, and is
renamed into place once complete: a failed run leaves no artifact.
series.csv and margins.csv take their rows as classify's sweep and
verify's draws make them, and a left classify whose orbit escapes
writes no series.csv.

Exit status: 0 on success, 2 on a configuration or input problem (a
size below 1, a float flag that is NaN or infinite, a point flag outside
the disc, or a left probe within TOL_ZERO of 0), 3 on a numerical abort
(a diagnostics.json is left in the output directory, with the error's
partial data under partial).  A result that is not finite is such an
abort, named NonFiniteError.  An abort while orbit.csv streams keeps its
rows so far as orbit.partial.csv, which partial names with the row count.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import itertools
import json
import math
import operator
import os
import pathlib
import sys
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote  # the C function
from math import atanh, isfinite

from . import bounds, criteria, gallery, holomap, ifs, moebius, straighten
from .geometry import DomainError, _omega_raw, disc_point, json_point

ORBIT_HEADER = "n,seed_re,seed_im,value_re,value_im,omega_to_origin,step_omega"
_ORBIT_ROW = "%d,%s,%.17g,%.17g,%.17g,%.17g"
STRAIGHTEN_HEADER = "n,residual,abs_h_w,distortion_at_0"
SERIES_HEADER = "n,term,partial_sum,product,orbit_re,orbit_im"
_SERIES_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
MARGINS_HEADER = "kind,seed,z,w,lhs,rhs,margin"
CSV_CHUNK = 512  # rows per write
SVG_CHUNK = 4096  # polyline points per write
JSON_CHUNK = 8192  # JSON pieces per write
_real, _imag = operator.attrgetter("real"), operator.attrgetter("imag")


class CLIError(Exception):
    """Invalid configuration or input; maps to exit status 2."""


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
        if cmath.isfinite(value):
            return disc_point(value)
    except DomainError as e:  # a ValueError, caught first
        raise CLIError(str(e))
    except ValueError:
        raise CLIError(f"not a complex number: {text!r}")
    raise CLIError(f"must be finite, got {text!r}")


def _report(obj, drop=(), **extra) -> dict:
    """The fields of the report dataclass obj, minus drop, plus extra, as they are."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}
    out.update(extra)
    return out


def _encode(v):
    """The JSON writer's hook for what JSON has no type for: a complex as
    [re, im], a Moebius map as its moebius.to_json payload, a dataclass as
    its fields."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, moebius.MoebiusMap):
        return moebius.to_json(v)
    if is_dataclass(v):
        return _report(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


class _Drop(Exception):
    """Raised in an artifact's block to leave no artifact: the temporary
    file is removed and the run goes on after the block."""


@contextlib.contextmanager
def _artifact(path: pathlib.Path, partial: pathlib.Path | None = None):
    """A text handle on path's temporary name, renamed to path when the
    block completes.  If the block raises, the temporary file is removed,
    or on a numerical abort renamed to partial, when one is given."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
    except _Drop:
        tmp.unlink(missing_ok=True)
        return
    except BaseException as e:
        if partial is not None and isinstance(e, _NUMERIC_ABORTS):
            os.replace(tmp, partial)
        else:
            tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_text(fh, text: str) -> None:
    fh.write(text)


@contextlib.contextmanager
def _csv(path: pathlib.Path, header: str, block=None, partial: pathlib.Path | None = None):
    """put(item), which takes the next item of the CSV artifact path: a
    text of one or more lines (without the last newline), or, when block
    is given, a row, whose line block(rows) makes with the rest of its
    chunk as one text.  A multi-line text counts its lines.  Items are
    kept until the next one would take them past CSV_CHUNK lines and then
    go out in one write (_artifact), so a block of CSV_CHUNK lines or
    fewer goes out as it is, with no copy joined to another.  If a
    numerical abort cuts the items short and partial is given, every
    line so far is kept there, named with its count in the error's
    partial; a complete write removes a stale one."""
    with _artifact(path, partial) as fh:
        _write_text(fh, header + "\n")
        chunk, lines, done = [], 0, 0

        def write() -> None:
            nonlocal chunk, lines, done
            if chunk:  # the last newline on its own, not in a copy of the text
                _write_text(fh, "\n".join(chunk) if block is None else block(chunk))
                _write_text(fh, "\n")
            chunk, lines, done = [], 0, done + lines

        def put(item) -> None:
            nonlocal lines
            count = 1 if block else item.count("\n") + 1
            if lines + count > CSV_CHUNK:
                write()
            chunk.append(item)
            lines += count

        try:
            yield put
        except _NUMERIC_ABORTS as e:
            if partial is not None:
                rows = {"file": partial.name, "rows": done + lines}
                e.partial = {**(getattr(e, "partial", None) or {}), **rows}
            raise
        finally:  # the last chunk, of a complete run or kept on an abort
            write()
    if partial is not None:
        partial.unlink(missing_ok=True)


def _write_csv(path: pathlib.Path, header: str, rows) -> None:
    """rows yields texts of one or more formatted lines, without the last
    newline.  If a numerical abort cuts them short, every line so far is
    kept as <stem>.partial.csv (see _csv)."""
    with _csv(path, header, partial=path.with_name(path.stem + ".partial" + path.suffix)) as put:
        for text in rows:
            put(text)


_float_repr = float.__repr__


def _json_pieces(v, nl: str, out: list, fh) -> None:
    """Appends to out the text of v at the line indent nl, as json.dumps(v,
    sort_keys=True, indent=2, allow_nan=False, default=_encode) has it.

    Keys are strings, as every report's are.  The type tests are the
    stdlib's, with bool before int; no other value passes two of them, so
    they come in the order of the values reports hold most.  A list
    writes out to fh, and empties it, whenever it holds JSON_CHUNK pieces;
    a report's dicts hold a few keys, and their long values are lists.
    """
    if isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in v:
            if isinstance(item, float) and isfinite(item):  # the common leaf, inline
                out.append(sep + _float_repr(item))
            else:
                out.append(sep)
                _json_pieces(item, inner, out, fh)
            sep = "," + inner
            if len(out) >= JSON_CHUNK:
                _write_text(fh, "".join(out))
                out.clear()
        out.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(v.items()):
            out.append(sep + _quote(key) + ": ")
            _json_pieces(item, inner, out, fh)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, str):
        out.append(_quote(v))
    elif isinstance(v, float):
        if not isfinite(v):  # the stdlib encoder's message
            raise ValueError("Out of range float values are not JSON compliant: " + repr(v))
        out.append(_float_repr(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    else:
        _json_pieces(_encode(v), nl, out, fh)


def _write_json(path: pathlib.Path, obj) -> None:
    """Sorted-key, indented, strict JSON: NaN or infinity is a NonFiniteError."""
    try:
        with _artifact(path) as fh:
            out = []
            _json_pieces(obj, "\n", out, fh)
            out.append("\n")
            _write_text(fh, "".join(out))
    except ValueError as e:
        raise holomap.NonFiniteError(f"{path.name} would hold a non-finite number: {e}")


def _load_stream(spec: str) -> ifs.GeneratorStream:
    """Stream from an inline JSON object or a path to a JSON file."""
    text = spec.strip()
    if not text.startswith("{"):
        try:
            text = pathlib.Path(spec).read_text(encoding="utf-8")
        except OSError as e:
            raise CLIError(f"cannot read stream file {spec!r}: {e}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CLIError(f"malformed stream JSON: {e}")
    try:
        return ifs.stream_from_json(obj)
    except (ValueError, KeyError, TypeError, DomainError, moebius.NonAutomorphismError) as e:
        raise CLIError(f"bad stream spec: {e}")


def _orbit_block(n: int, seed_cols: list, old: list, new: list, template: str) -> str:
    """The orbit.csv lines of steps n + 1, n + 2, ..., whose values new
    holds seed by seed, after the step whose values old holds: one % of
    template, _ORBIT_ROW once a line, over columns made by map."""
    seeds = len(seed_cols)
    args = [None] * (6 * len(new))
    for i, cols in enumerate(seed_cols):
        args[6 * i :: 6 * seeds] = range(n + 1, n + 1 + len(new) // seeds)
        args[6 * i + 1 :: 6 * seeds] = itertools.repeat(cols, len(new) // seeds)
    args[2::6] = map(_real, new)
    args[3::6] = map(_imag, new)
    try:  # _omega_raw(0j, v) is exactly atanh|v| for |v| < 1, and NaN for NaN
        args[4::6] = map(atanh, map(abs, new))
    except ValueError:  # |v| >= 1: an infinite value
        args[4::6] = map(_omega_raw, itertools.repeat(0j), new)
    # chain(old, new) runs one step behind new: each value's previous one
    args[5::6] = map(_omega_raw, itertools.chain(old, new), new)
    args = tuple(args)  # the list goes before the text is made
    return template % args


def _held_block(n: int, seed_cols: list, old: list, new: list, repeats: list) -> str:
    """The lines _orbit_block gives, made row by row for a block in which
    a held seed's value carries over as the same object: its row is the
    row of its first repeat again, with step_omega 0, under the new n,
    from the text kept in repeats (per seed: [value, its row after "n,"])."""
    seeds = len(seed_cols)
    lines = []
    for j, (ov, nv) in enumerate(zip(itertools.chain(old, new), new)):
        k, cols, rep = n + 1 + j // seeds, seed_cols[j % seeds], repeats[j % seeds]
        if nv is not ov:
            lines.append(_ORBIT_ROW % (k, cols, nv.real, nv.imag, _omega_raw(0j, nv), _omega_raw(ov, nv)))
            continue
        if rep[0] is not nv:
            rep[:] = nv, _ORBIT_ROW[3:] % (cols, nv.real, nv.imag, _omega_raw(0j, nv), _omega_raw(nv, nv))
        lines.append("%d,%s" % (k, rep[1]))
    return "\n".join(lines)


def _orbit_rows(cur, steps: int, trail: list | None = None):
    """Yields the orbit.csv lines of steps 0..steps, advancing the orbit
    engine cur, as texts of a block of lines each.

    A block is CSV_CHUNK // seeds steps, so its row count does not grow
    with the seed count, and goes out through _orbit_block, or through
    _held_block when a held seed's value carries over as the same object
    from the step before (the engine replaces its values list on each
    advance, and keeps a held seed's value).  If an advance ends in a
    numerical abort, the rows of the steps made so far are yielded before
    the error.  trail, if given, collects the first seed's value at every
    step.
    """
    seeds = len(cur.seeds)
    seed_cols = ["%.17g,%.17g" % (s.real, s.imag) for s in cur.seeds]
    old = cur.values
    # row 0 as a block whose values are their own previous ones: step_omega 0.0
    yield _orbit_block(-1, seed_cols, old, old, "\n".join([_ORBIT_ROW] * seeds))
    if trail is not None:
        trail.append(old[0])
    per_block = max(1, CSV_CHUNK // seeds)
    full = "\n".join([_ORBIT_ROW] * (per_block * seeds))
    repeats = [[None, ""] for _ in seed_cols]
    n = 0
    while n < steps:
        new, error = [], None  # the block's values, step by step
        try:
            for _ in range(min(per_block, steps - n)):
                new += cur.advance().values
        except _NUMERIC_ABORTS as e:  # the rows so far go out first, kept as partial
            error = e
        count = len(new) // seeds
        # chain(old, new) runs one step behind new: each value's previous one
        if any(map(operator.is_, itertools.chain(old, new), new)):
            yield _held_block(n, seed_cols, old, new, repeats)
        elif new:
            template = full if count == per_block else "\n".join([_ORBIT_ROW] * len(new))
            yield _orbit_block(n, seed_cols, old, new, template)
        if new:
            old = new[-seeds:]
        if trail is not None:
            trail += new[::seeds]
        if error is not None:
            raise error
        n += count


def _cmd_simulate(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    seeds = [_parse_complex(s) for s in (args.seed_point or ["0"])]
    if args.side == "left":
        cur = ifs.LeftOrbitCursor(stream, seeds)
    else:
        cur = ifs.RightOrbitState(stream, seeds)
    _write_csv(out / "orbit.csv", ORBIT_HEADER, _orbit_rows(cur, args.horizon))
    return 0


def _straighten_rows(res: straighten.StraightenResult):
    residuals = res.residual_trace
    for i in range(res.steps):
        probe, dist = res.probe_trace[i], res.distortion_trace[i]
        # residual_trace starts at step 2: entry i-1 belongs to step i+1
        if 0 <= i - 1 < len(residuals):
            yield "%d,%.17g,%.17g,%.17g" % (i + 1, residuals[i - 1], probe, dist)
        else:
            yield "%d,,%.17g,%.17g" % (i + 1, probe, dist)


def _cmd_straighten(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    probe = _parse_complex(args.probe)
    if args.side == "left":
        if abs(probe) <= straighten.TOL_ZERO:  # left_straighten's DomainError, as exit 2
            raise CLIError(f"a left --probe within {straighten.TOL_ZERO:g} of 0 reads as a collapse")
        res = straighten.left_straighten(stream, args.horizon, probe=probe, tol=args.tol)
    else:
        if not args.orbit:
            raise CLIError("--side right needs --orbit (JSON file of backward orbit points)")
        try:
            pts = json.loads(pathlib.Path(args.orbit).read_text(encoding="utf-8"))
            orbit = ifs.BackwardOrbit(tuple(json_point(p, "orbit point") for p in pts))
        except (OSError, ValueError, TypeError, DomainError) as e:
            raise CLIError(f"bad orbit file: {e}")
        if len(orbit.points) < args.horizon + 1:
            raise CLIError(
                f"orbit has {len(orbit.points)} points, horizon {args.horizon} needs {args.horizon + 1}"
            )
        # -N bounds the run: w_0 ... w_N only, later points neither verified nor used
        orbit = ifs.BackwardOrbit(orbit.points[: args.horizon + 1])
        res = straighten.right_straighten(stream, orbit, probe=probe, tol=args.tol)
    drop = ("probe_trace", "residual_trace", "distortion_trace", "h_extra")
    doc = _report(res, drop=drop, command=args.command, side=args.side, horizon=args.horizon)
    _write_json(out / "straighten.json", doc)
    _write_csv(out / "straighten.csv", STRAIGHTEN_HEADER, _straighten_rows(res))
    return 0


def _series_lines(steps: list, full: str) -> str:
    """The series.csv lines of steps, through one % of _SERIES_ROW
    repeated: full when steps is a whole chunk, else made on the spot."""
    ns, terms, totals, products, ats = zip(*steps)
    args = [None] * (6 * len(steps))
    args[0::6], args[1::6], args[2::6], args[3::6] = ns, terms, totals, products
    args[4::6] = map(_real, ats)
    args[5::6] = map(_imag, ats)
    args = tuple(args)  # the list goes before the text is made
    return (full if len(steps) == CSV_CHUNK else "\n".join([_SERIES_ROW] * len(steps))) % args


def _cmd_classify(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    extra = {"config": criteria.SERIES}  # the fixed verdict thresholds
    if args.side == "left":
        base = tuple(_parse_complex(s) for s in (args.base_point or ["0", "0.3+0.2j"]))
        # the first base point's series streams to series.csv as the sweep
        # takes it, a chunk of steps to each % format
        lines = functools.partial(_series_lines, full="\n".join([_SERIES_ROW] * CSV_CHUNK))
        with _csv(out / "series.csv", SERIES_HEADER, lines) as put:
            rep = criteria.classify_left_limits(stream, args.horizon, base_points=base, row=put)
            if not rep.series:  # an escaping orbit: no series to write
                raise _Drop
        extra.update(series_verdicts=[s.verdict for s in rep.series], base_points=base)
    else:
        z0 = _parse_complex((args.base_point or ["0.5"])[0])
        rep = criteria.classify_right_limits(stream, args.horizon, z0=z0)
    # a left report's series go out as their verdicts (and series.csv)
    doc = _report(
        rep,
        drop=("kind", "series"),
        command=args.command,
        side=args.side,
        horizon=args.horizon,
        verdict=rep.kind,
        **extra,
    )
    _write_json(out / "classify.json", doc)
    return 0


def _cmd_verify(args, out: pathlib.Path) -> int:
    prefix = "%s,%d," % (args.kind, args.seed)

    def margins_row(drawn: tuple) -> str:
        z, w, lhs, rhs, m = drawn
        cols = (z.real, z.imag, w.real, w.imag, lhs, rhs, m)
        return prefix + "%.17g%+.17gj,%.17g%+.17gj,%.17g,%.17g,%.17g" % cols

    def margins_lines(draws: list) -> str:
        return "\n".join(map(margins_row, draws))

    # each draw's row goes to margins.csv as it is drawn
    with _csv(out / "margins.csv", MARGINS_HEADER, margins_lines) as put:
        rep = bounds.fuzz_margins(args.kind, args.fuzz, args.seed, coefficient=args.coefficient, row=put)
    doc = _report(
        rep,
        command=args.command,
        coefficient=args.coefficient,
        worst=_report(rep.worst, drop=("kind", "coefficient")),
    )
    _write_json(out / "verify.json", doc)
    return 0


def _svg_halfplane(points, marks):
    """Yields the text of a polyline through ℍ⁺ orbit points, SVG_CHUNK
    points a piece, with circles at the marks."""
    both = functools.partial(itertools.chain, points, marks)  # one sequence for min and max
    xmin, xmax = min(p.real for p in both()), max(p.real for p in both())
    ymin, ymax = min(0.0, min(p.imag for p in both())), max(p.imag for p in both())
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-6)
    xmin, xmax, ymin, ymax = xmin - pad, xmax + pad, ymin - pad, ymax + pad
    width = 800.0
    scale = width / (xmax - xmin)
    height = max(60.0, min(1600.0, (ymax - ymin) * scale))
    axis = height - (0.0 - ymin) * scale
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %.2f %.2f">\n' % (width, height)
        + '<line x1="0" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#999" stroke-width="1"/>\n' % (axis, width, axis)
        + '<polyline fill="none" stroke="#246" stroke-width="1" points="'
    )
    for i in range(0, len(points), SVG_CHUNK):
        yield (" " if i else "") + " ".join(
            "%.2f,%.2f" % ((p.real - xmin) * scale, height - (p.imag - ymin) * scale)
            for p in points[i : i + SVG_CHUNK]
        )
    yield '"/>\n' + "".join(
        '<circle cx="%.2f" cy="%.2f" r="3" fill="#c33"/>\n'
        % ((m.real - xmin) * scale, height - (m.imag - ymin) * scale)
        for m in marks
    ) + "</svg>\n"


def _gallery_report(args, build) -> dict:
    """gallery.json: a build's fields, with the count of its maps in
    place of the maps (a dense build can emit hundreds of thousands)."""
    return _report(
        build, drop=("maps",), command=args.command, example=args.example, map_count=len(build.maps)
    )


def _cmd_gallery(args, out: pathlib.Path) -> int:
    if args.example == "escape_return":
        build = gallery.build_escape_return(args.nmax)
        _write_json(out / "gallery.json", _gallery_report(args, build))
        cur = ifs.LeftOrbitCursor(build.stream, (0j,), track_pairs=False)
        trail = [] if args.svg else None
        _write_csv(out / "orbit.csv", ORBIT_HEADER, _orbit_rows(cur, len(build.maps), trail))
        if args.svg:
            # raw Cayley image, in place, so the trail is the one O(N) list:
            # orbit values hug the boundary, the validating constructor
            # would reject them
            for i, v in enumerate(trail):
                trail[i] = 1j * (1.0 + v) / (1.0 - v)
            with _artifact(out / "gallery.svg") as fh:
                for text in _svg_halfplane(trail, list(build.milestone_values)):
                    _write_text(fh, text)
        return 0
    # argparse's choices leave dense as the only other example
    if args.targets:
        try:
            data = json.loads(pathlib.Path(args.targets).read_text(encoding="utf-8"))
            if not isinstance(data, list):
                kind = type(data).__name__
                raise CLIError(f"bad targets file: the top level must be a JSON array, got {kind}")
            targets = [moebius.from_json(obj) for obj in data]
        except (OSError, ValueError, KeyError, TypeError, moebius.NonAutomorphismError) as e:
            raise CLIError(f"bad targets file: {e}")
        if not targets:
            raise CLIError(f"targets file {args.targets!r} lists no targets")
    else:
        targets = gallery.default_dense_targets(args.count)
    build = gallery.build_dense(targets)
    _write_json(out / "gallery.json", _gallery_report(args, build))
    return 0


def _cmd_fixed_points(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    rep = criteria.track_fixed_points(stream, args.horizon, guard=args.guard)
    doc = _report(rep, command=args.command, horizon=args.horizon, guard=args.guard)
    _write_json(out / "fixed_points.json", doc)
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "straighten": _cmd_straighten,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "gallery": _cmd_gallery,
    "fixed-points": _cmd_fixed_points,
}

_NUMERIC_ABORTS = (
    holomap.ConsistencyError,
    holomap.InconclusiveError,
    criteria.TrackingRefusal,
    DomainError,
    moebius.NonAutomorphismError,
)


def _count(text: str) -> int:
    """argparse type of every size flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("N must be at least 1")
    return value


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite float, no NaN or infinity."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifslab",
        description="Iterated-function-system experiments on the unit disc.",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: $IFSLAB_OUT or the working directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a left or right orbit, emit orbit.csv")
    p.add_argument("--stream", required=True, help="stream JSON, inline or a file path")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("-N", "--horizon", type=_count, default=200)
    p.add_argument("--seed-point", action="append", help="orbit seed, repeatable (default 0)")

    p = sub.add_parser("straighten", help="coordinate straightening, emit JSON + CSV")
    p.add_argument("--stream", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("-N", "--horizon", type=_count, default=400)
    p.add_argument("--probe", default="0.5")
    p.add_argument("--tol", type=_finite, default=1e-8)
    p.add_argument("--orbit", help="backward orbit JSON file ([[re,im],...]), right side only")

    p = sub.add_parser("classify", help="limit-behavior verdict, emit classify.json")
    p.add_argument("--stream", required=True)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("-N", "--horizon", type=_count, default=1000)
    p.add_argument("--base-point", action="append", help="evaluation point, repeatable")

    p = sub.add_parser("verify", help="fuzz one inequality, emit margins.csv")
    p.add_argument("--kind", required=True, choices=bounds.MARGIN_KINDS)
    p.add_argument("--fuzz", type=_count, default=1000, help="number of random draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coefficient", type=_finite, default=2.0)

    p = sub.add_parser("gallery", help="worked example builds, emit gallery.json")
    p.add_argument("--example", required=True, choices=("escape_return", "dense"))
    p.add_argument("--nmax", type=_count, default=5, help="escape_return stage count")
    p.add_argument("--targets", help="dense: JSON file of target automorphism matrices")
    p.add_argument("--count", type=_count, default=6, help="dense: number of default targets")
    p.add_argument("--svg", action="store_true", help="also draw the upper half-plane orbit")

    p = sub.add_parser("fixed-points", help="track generator fixed points, emit JSON")
    p.add_argument("--stream", required=True)
    p.add_argument("-N", "--horizon", type=_count, default=1000)
    p.add_argument("--guard", type=_finite, default=1e-3)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = pathlib.Path(args.out or os.environ.get("IFSLAB_OUT", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](args, out)
    except CLIError as e:
        print(f"ifslab: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ABORTS as e:
        diag = {"command": args.command, "error": type(e).__name__, "message": str(e)}
        if partial := getattr(e, "partial", None):
            diag["partial"] = partial
        _write_json(out / "diagnostics.json", diag)
        print(f"ifslab: numerical abort: {e} (diagnostics.json written)", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError, OSError) as e:
        print(f"ifslab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
