"""Command-line experiment runner.

Artifacts are deterministic by construction: every float goes through
one fixed format (``%.17g``, a complex column ``%.17g%+.17gj``), each
CSV row is one ``%`` format of its artifact's row layout, JSON keys are
sorted, and nothing embeds a timestamp or machine identifier, so the
same configuration and seed produce byte-identical files.

Exit status: 0 on success, 2 on a configuration or input problem, 3 on
a numerical abort (a diagnostics.json is left in the output directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys

from . import bounds, criteria, gallery, holomap, ifs, moebius, straighten
from .geometry import DomainError, _omega_raw

ORBIT_HEADER = "n,seed_re,seed_im,value_re,value_im,omega_to_origin,step_omega"
STRAIGHTEN_HEADER = "n,residual,abs_h_w,distortion_at_0"
SERIES_HEADER = "n,term,partial_sum,product,orbit_re,orbit_im"
MARGINS_HEADER = "kind,seed,z,w,lhs,rhs,margin"


class CLIError(Exception):
    """Invalid configuration or input; maps to exit status 2."""


def _c(z) -> complex:
    return complex(getattr(z, "value", z))


def _pair(z) -> list:
    v = _c(z)
    return [v.real, v.imag]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise CLIError(f"not a complex number: {text!r}")


def _jsonable(obj):
    """Best-effort conversion of report payloads for the diagnostics file."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _write_text(path: pathlib.Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_csv(path: pathlib.Path, header: str, rows) -> None:
    """rows are formatted lines without their newline."""
    _write_text(path, "\n".join((header, *rows, "")))


def _write_json(path: pathlib.Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


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


def _orbit_rows(cur, steps: int, trail: list | None = None) -> list:
    """orbit.csv rows of steps 0..steps, advancing the orbit engine cur.

    The engine replaces its values list on each advance.  A value that
    carries over as the same object (a held right seed) gets the row of
    its first repeat again, with step_omega 0, under the new n.  trail,
    if given, collects the first seed's value at every step.
    """
    row = "%d,%s,%.17g,%.17g,%.17g,%.17g"
    seed_cols = ["%.17g,%.17g" % (s.real, s.imag) for s in cur.seeds]
    old = cur.values
    rows = [row % (0, cols, v.real, v.imag, _omega_raw(0j, v), 0.0) for cols, v in zip(seed_cols, old)]
    repeats = [[None, ""] for _ in seed_cols]  # per seed: [value, its row after "n,"]
    if trail is not None:
        trail.append(old[0])
    for n in range(1, steps + 1):
        cur.advance()
        new = cur.values
        for cols, ov, nv, rep in zip(seed_cols, old, new, repeats):
            if nv is not ov:
                rows.append(row % (n, cols, nv.real, nv.imag, _omega_raw(0j, nv), _omega_raw(ov, nv)))
                continue
            if rep[0] is not nv:
                rep[:] = nv, row[3:] % (cols, nv.real, nv.imag, _omega_raw(0j, nv), _omega_raw(nv, nv))
            rows.append("%d,%s" % (n, rep[1]))
        if trail is not None:
            trail.append(new[0])
        old = new
    return rows


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
    rows = []
    residuals = res.residual_trace
    for i in range(res.steps):
        probe, dist = res.probe_trace[i], res.distortion_trace[i]
        # residual_trace starts at step 2: entry i-1 belongs to step i+1
        if 0 <= i - 1 < len(residuals):
            rows.append("%d,%.17g,%.17g,%.17g" % (i + 1, residuals[i - 1], probe, dist))
        else:
            rows.append("%d,,%.17g,%.17g" % (i + 1, probe, dist))
    return rows


def _straighten_json(res: straighten.StraightenResult, side: str, horizon: int) -> dict:
    return {
        "command": "straighten",
        "side": side,
        "horizon": horizon,
        "steps": res.steps,
        "converged": res.converged,
        "degenerate": res.degenerate,
        "stopped_at_boundary": res.stopped_at_boundary,
        "window_residual": res.window_residual,
        "probe": _pair(res.probe),
        "h_at_probe": _pair(res.h_at_probe),
        "grid": [_pair(z) for z in res.grid],
        "h_grid": [_pair(z) for z in res.h_grid],
        "gammas": [moebius.to_json(g) for g in res.gammas],
        "phases": list(res.phases),
        "gn_derivs": [_pair(g) for g in res.gn_derivs],
    }


def _cmd_straighten(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    probe = _parse_complex(args.probe)
    cfg = straighten.StraightenConfig(tol=args.tol)
    if args.side == "left":
        res = straighten.left_straighten(stream, args.horizon, probe=probe, config=cfg)
    else:
        if not args.orbit:
            raise CLIError("--side right needs --orbit (JSON file of backward orbit points)")
        try:
            pts = json.loads(pathlib.Path(args.orbit).read_text(encoding="utf-8"))
            orbit = ifs.BackwardOrbit(tuple(complex(re, im) for re, im in pts))
        except (OSError, ValueError, TypeError, DomainError) as e:
            raise CLIError(f"bad orbit file: {e}")
        if len(orbit.points) < args.horizon + 1:
            raise CLIError(
                f"orbit has {len(orbit.points)} points, horizon {args.horizon} needs {args.horizon + 1}"
            )
        res = straighten.right_straighten(stream, orbit, probe=probe, config=cfg)
    _write_json(out / "straighten.json", _straighten_json(res, args.side, args.horizon))
    _write_csv(out / "straighten.csv", STRAIGHTEN_HEADER, _straighten_rows(res))
    return 0


def _series_rows(rep: criteria.SeriesReport):
    return [
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g" % (i + 1, term, total, product, pt.real, pt.imag)
        for i, (term, total, product, pt) in enumerate(
            zip(rep.terms, rep.partial_sums, rep.products, rep.orbit)
        )
    ]


def _series_config_json(cfg: criteria.SeriesConfig) -> dict:
    return {
        "divergence_threshold": cfg.divergence_threshold,
        "divergence_product_tol": cfg.divergence_product_tol,
        "summable_window": cfg.summable_window,
        "summable_tol": cfg.summable_tol,
        "product_cauchy_tol": cfg.product_cauchy_tol,
    }


def _cmd_classify(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    cfg = criteria.SeriesConfig()
    if args.side == "left":
        base = tuple(_parse_complex(s) for s in (args.base_point or ["0", "0.3+0.2j"]))
        rep = criteria.classify_left_limits(stream, args.horizon, base_points=base, config=cfg)
        verdict = {
            "command": "classify",
            "side": "left",
            "horizon": args.horizon,
            "verdict": rep.kind,
            "agreement": rep.agreement,
            "bound_check_radius": rep.bound_check_radius,
            "base_points": [_pair(z) for z in base],
            "series_verdicts": [s.verdict for s in rep.series],
            "limit_estimates": [_pair(z) for z in rep.limit_estimates],
            "config": _series_config_json(cfg),
        }
        if rep.series:
            _write_csv(out / "series.csv", SERIES_HEADER, _series_rows(rep.series[0]))
    else:
        z0 = _parse_complex((args.base_point or ["0.5"])[0])
        rep = criteria.classify_right_limits(stream, args.horizon, z0=z0, config=cfg)
        verdict = {
            "command": "classify",
            "side": "right",
            "horizon": args.horizon,
            "verdict": rep.kind,
            "base_point": _pair(rep.base_point),
            "limit_estimate": _pair(rep.limit_estimate),
            "tail_movement": rep.tail_movement,
            "distortion_checkpoints": [[n, v] for n, v in rep.distortion_checkpoints],
            "config": _series_config_json(cfg),
        }
    _write_json(out / "classify.json", verdict)
    return 0


def _cmd_verify(args, out: pathlib.Path) -> int:
    if args.kind not in bounds.MARGIN_KINDS:
        raise CLIError(f"unknown margin kind {args.kind!r}; choose from {bounds.MARGIN_KINDS}")
    rep = bounds.fuzz_margins(
        args.kind, args.fuzz, args.seed, coefficient=args.coefficient, keep_rows=args.fuzz
    )
    rows = [
        "%s,%d,%.17g%+.17gj,%.17g%+.17gj,%.17g,%.17g,%.17g"
        % (r.kind, args.seed, r.z.real, r.z.imag, r.w.real, r.w.imag, r.lhs, r.rhs, r.margin)
        for r in rep.rows
    ]
    _write_csv(out / "margins.csv", MARGINS_HEADER, rows)
    _write_json(
        out / "verify.json",
        {
            "command": "verify",
            "kind": rep.kind,
            "draws": rep.draws,
            "seed": rep.seed,
            "coefficient": args.coefficient,
            "min_margin": rep.min_margin,
            "empirical_coefficient": rep.empirical_coefficient,
            "worst": {
                "z": _pair(rep.worst.z),
                "w": _pair(rep.worst.w),
                "lhs": rep.worst.lhs,
                "rhs": rep.worst.rhs,
                "margin": rep.worst.margin,
            },
        },
    )
    return 0


def _svg_halfplane(points, marks) -> str:
    """Polyline through ℍ⁺ orbit points with circles at the marks."""
    xs = [p.real for p in points] + [m.real for m in marks]
    ys = [p.imag for p in points] + [m.imag for m in marks]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(0.0, min(ys)), max(ys)
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-6)
    xmin, xmax, ymin, ymax = xmin - pad, xmax + pad, ymin - pad, ymax + pad
    width = 800.0
    scale = width / (xmax - xmin)
    height = max(60.0, min(1600.0, (ymax - ymin) * scale))

    def sx(x):
        return (x - xmin) * scale

    def sy(y):
        return height - (y - ymin) * scale

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %.2f %.2f">' % (width, height),
        '<line x1="0" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#999" stroke-width="1"/>'
        % (sy(0.0), width, sy(0.0)),
        '<polyline fill="none" stroke="#246" stroke-width="1" points="%s"/>'
        % " ".join(
            "%.2f,%.2f" % ((p.real - xmin) * scale, height - (p.imag - ymin) * scale) for p in points
        ),
    ]
    for m in marks:
        parts.append(
            '<circle cx="%.2f" cy="%.2f" r="3" fill="#c33"/>' % (sx(m.real), sy(m.imag))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_gallery(args, out: pathlib.Path) -> int:
    if args.example == "escape_return":
        build = gallery.build_escape_return(args.nmax)
        _write_json(
            out / "gallery.json",
            {
                "command": "gallery",
                "example": "escape_return",
                "requested_n": build.requested_n,
                "achieved_n": build.achieved_n,
                "exhausted": build.exhausted,
                "map_count": len(build.maps),
                "milestones": list(build.milestones),
                "milestone_values": [_pair(v) for v in build.milestone_values],
                "certs": [
                    {
                        "n": c.n,
                        "k": c.k,
                        "value_before": _pair(c.value_before),
                        "value_out": _pair(c.value_out),
                        "target_gap": c.target_gap,
                        "value_back": _pair(c.value_back),
                        "return_residual": c.return_residual,
                        "shift_rate": c.shift_rate,
                    }
                    for c in build.certs
                ],
            },
        )
        cur = ifs.LeftOrbitCursor(build.stream, (0j,), track_pairs=False)
        trail = [] if args.svg else None
        _write_csv(out / "orbit.csv", ORBIT_HEADER, _orbit_rows(cur, len(build.maps), trail))
        if args.svg:
            # raw Cayley image: orbit values hug the boundary, the
            # validating constructor would reject them
            pts = [1j * (1.0 + v) / (1.0 - v) for v in trail]
            _write_text(out / "gallery.svg", _svg_halfplane(pts, list(build.milestone_values)))
        return 0
    if args.example == "dense":
        if args.targets:
            try:
                data = json.loads(pathlib.Path(args.targets).read_text(encoding="utf-8"))
                targets = [moebius.from_json(obj) for obj in data]
            except (OSError, ValueError, KeyError, TypeError, moebius.NonAutomorphismError) as e:
                raise CLIError(f"bad targets file: {e}")
            if not targets:
                raise CLIError(f"targets file {args.targets!r} lists no targets")
        else:
            targets = gallery.default_dense_targets(args.count)
        build = gallery.build_dense(targets)
        _write_json(
            out / "gallery.json",
            {
                "command": "gallery",
                "example": "dense",
                "exhausted": build.exhausted,
                "map_count": len(build.maps),
                "milestones": list(build.milestones),
                "targets": [moebius.to_json(t) for t in build.targets],
                "certs": [
                    {
                        "index": c.index,
                        "k": c.k,
                        "delta": c.delta,
                        "deviation": c.deviation,
                        "residual": c.residual,
                    }
                    for c in build.certs
                ],
            },
        )
        return 0
    raise CLIError(f"unknown gallery example {args.example!r}")


def _cmd_fixed_points(args, out: pathlib.Path) -> int:
    stream = _load_stream(args.stream)
    rep = criteria.track_fixed_points(stream, args.horizon, guard=args.guard)
    _write_json(
        out / "fixed_points.json",
        {
            "command": "fixed-points",
            "horizon": args.horizon,
            "guard": args.guard,
            "points": [_pair(p) for p in rep.points],
            "residual_max": rep.residual_max,
            "limit_estimate": _pair(rep.limit_estimate),
            "orbit_gap": rep.orbit_gap,
            "min_deficit": rep.min_deficit,
        },
    )
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
    ifs.DepthCapError,
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
        diag = {
            "command": args.command,
            "error": type(e).__name__,
            "message": str(e),
        }
        partial = getattr(e, "partial", None) or getattr(e, "diagnostics", None)
        if partial:
            diag["partial"] = _jsonable(partial)
        _write_json(out / "diagnostics.json", diag)
        print(f"ifslab: numerical abort: {e} (diagnostics.json written)", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError, OSError) as e:
        print(f"ifslab: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
