"""Series tests and limit-type classification for composition systems.

The central quantity is the per-step distortion deficit 1 - f_n#(.),
taken either at a fixed base point or along the left orbit.  Its
series diverging with a collapsing distortion product signals constant
limit functions; a summable tail with a stabilizing product signals
nonconstant limits.  Both signals are finite-horizon: the verdicts say
what the first N steps establish, nothing more, and "inconclusive" is
an expected outcome near the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import holomap
from .geometry import disc_point
from .holomap import InconclusiveError
from .ifs import _HELD_RADIUS, GeneratorStream, RightOrbitState, orbit_bounded


@dataclass(frozen=True)
class SeriesConfig:
    """The fixed verdict thresholds, one record (SERIES) that classify.json reports."""

    divergence_threshold: float = 5.0      # partial sum level that, with a
    # collapsed product, reads as divergence at the horizon
    divergence_product_tol: float = 1e-3   # product below this is collapsed
    summable_window: int = 100
    summable_tol: float = 1e-5             # trailing-window term sum
    product_cauchy_tol: float = 1e-5       # trailing-window product movement


SERIES = SeriesConfig()

# left classification: a left orbit of the first base point that escapes
# this omega distance of 0 (as orbit_bounded reads escape) marks the
# family as not relatively compact
_ESCAPE_RADIUS = 3.0
# right classification: distortion samples at N/4, N/2, 3N/4 and N
_CHECKPOINTS = 4
# fixed-point tracking: the largest |f(p) - p| a Newton polish may leave
# before Denjoy-Wolff is asked
_POLISH_TOL = 1e-10


@dataclass(frozen=True)
class SeriesReport:
    mode: str
    base_point: complex
    terms: tuple
    partial_sums: tuple
    products: tuple
    orbit: tuple
    verdict: str  # "diverging" | "summable_so_far" | "inconclusive"
    product_residual_max: float | None


def _series_verdict(partial_sums, products, terms) -> str:
    if partial_sums[-1] > SERIES.divergence_threshold and products[-1] < SERIES.divergence_product_tol:
        return "diverging"
    w = SERIES.summable_window
    if len(terms) >= w:
        tail = sum(terms[-w:])
        swing = max(products[-w:]) - min(products[-w:])
        if tail < SERIES.summable_tol and swing < SERIES.product_cauchy_tol:
            return "summable_so_far"
    return "inconclusive"


def distortion_series(
    stream: GeneratorStream,
    N: int,
    z0=0j,
    mode: str = "along_orbit",
) -> SeriesReport:
    """Accumulate terms 1 - f_n#(.) and the distortion product.

    In along_orbit mode the evaluation point follows the left orbit of
    z0, the product then being the distortion of L_n at z0 by the chain
    rule; the report carries the largest discrepancy between that
    product and the composite distortion computed from the running
    complex derivative, which is an exact identity up to rounding.  An
    orbit value within the engines' held band (ifs._HELD_RADIUS) of the
    circle ends the series with InconclusiveError naming the step.
    """
    if mode not in ("along_orbit", "fixed_point"):
        raise ValueError("mode must be 'along_orbit' or 'fixed_point'")
    z = disc_point(z0)
    v = z
    terms = []
    sums = []
    prods = []
    orbit = [v]
    total = 0.0
    prod = 1.0
    deriv = 1.0 + 0.0j
    resid_max = 0.0 if mode == "along_orbit" else None
    for n in range(1, N + 1):
        f = stream.generator_at(n)
        if holomap._as_constant(f) is not None:
            raise ValueError(f"generator {n} is constant; the deficit series needs nonconstant maps")
        if mode == "along_orbit":
            at = v
            v, dv = f.jet(at)
            if abs(v) > _HELD_RADIUS:
                raise InconclusiveError(
                    f"left orbit entered the held band at step {n}: {v!r}",
                    partial={"step": n, "last": v},
                )
            d = holomap._distortion_from_jet(at, v, dv)
        else:
            d = holomap.distortion(f, z)
            v = holomap.eval_raw(f, v)
        terms.append(1.0 - d)
        total += 1.0 - d
        sums.append(total)
        prod *= d
        prods.append(prod)
        if mode == "along_orbit":
            deriv *= dv
            den = 1.0 - abs(v) ** 2
            direct = abs(deriv) * (1.0 - abs(z) ** 2) / den if den > 0 else float("inf")
            resid_max = max(resid_max, abs(direct - prod))
        orbit.append(v)
    return SeriesReport(
        mode=mode,
        base_point=z,
        terms=tuple(terms),
        partial_sums=tuple(sums),
        products=tuple(prods),
        orbit=tuple(orbit),
        verdict=_series_verdict(sums, prods, terms),
        product_residual_max=resid_max,
    )


@dataclass(frozen=True)
class LeftLimitReport:
    kind: str  # "constant_limits" | "nonconstant_limits" | "not_relatively_compact" | "inconclusive"
    series: tuple  # one SeriesReport per base point
    limit_estimates: tuple  # L_N at each base point
    agreement: bool
    bound_check_radius: float


def classify_left_limits(
    stream: GeneratorStream,
    N: int,
    base_points=(0j, 0.3 + 0.2j),
) -> LeftLimitReport:
    """Classify the limit behavior of L_n at the horizon N.

    A left orbit escaping every bounded region means the family is not
    relatively compact and no limit function exists to classify.  For
    bounded orbits the series verdict decides: diverging deficit sums
    force every limit function to be constant, summable ones keep the
    limits nonconstant.  Verdicts are required to agree across the base
    points; disagreement or any inconclusive verdict is reported as
    inconclusive rather than silently preferring one point.
    """
    pts = tuple(disc_point(p) for p in base_points)
    if len(pts) < 2:
        raise ValueError("need at least two base points for cross-checking")
    bound = orbit_bounded(stream, pts[0], N, _ESCAPE_RADIUS, side="left")
    if bound.escaped:
        return LeftLimitReport("not_relatively_compact", (), (), True, _ESCAPE_RADIUS)
    reports = tuple(distortion_series(stream, N, p, "along_orbit") for p in pts)
    limits = tuple(r.orbit[-1] for r in reports)
    verdicts = {r.verdict for r in reports}
    agreement = len(verdicts) == 1
    if not agreement or "inconclusive" in verdicts:
        kind = "inconclusive"
    elif verdicts == {"diverging"}:
        kind = "constant_limits"
    else:
        kind = "nonconstant_limits"
    return LeftLimitReport(kind, reports, limits, agreement, _ESCAPE_RADIUS)


@dataclass(frozen=True)
class RightLimitReport:
    kind: str  # "constant_limit" | "nonconstant_limit" | "inconclusive"
    limit_estimate: complex
    tail_movement: float
    distortion_checkpoints: tuple  # (n, distortion of R_n at the base point), before it saturated
    base_point: complex


def _right_distortion_product(state: RightOrbitState) -> float:
    """Distortion of R_n at the first seed z0 of a jet-carrying engine.

    By the chain rule it is the product of f_j#(v_j) for j = 1..n along
    v_n = z0, v_{j-1} = f_j(v_j); here it is read in one piece from the
    carried jet (R_n(z0), R_n'(z0)).  Raises ConsistencyError for a
    value outside the disc or a distortion above 1.
    """
    return holomap._distortion_from_jet(state.seeds[0], state.values[0], state.derivs[0])


def classify_right_limits(
    stream: GeneratorStream,
    N: int,
    z0=0.5,
) -> RightLimitReport:
    """Classify the pointwise limit of R_n at z0.

    R_n(z0) always converges (nested images); the question is whether
    the limit map is constant.  The distortion of R_n at z0, sampled at
    a few checkpoint horizons, decides: collapse toward zero reads as a
    constant limit, a stable positive floor as nonconstant.  One sweep
    of the right engine, carrying R_n'(z0), gives both the values and
    the checkpoints.  A base point that saturates near the boundary
    before the last checkpoint leaves the verdict inconclusive.  Raises
    ValueError for a constant generator.
    """
    z = disc_point(z0)
    marks = sorted({max(1, (N * k) // _CHECKPOINTS) for k in range(1, _CHECKPOINTS + 1)})
    state = RightOrbitState(stream, (z,), jets=True)
    values = [z]
    prods = []
    for n in range(1, N + 1):
        state.advance()
        if holomap._as_constant(state.parts[-1]) is not None:
            raise ValueError(f"generator {n} is constant; the distortion product needs nonconstant maps")
        values.append(state.values[0])
        if n in marks and not state.saturated_seeds:
            prods.append((n, _right_distortion_product(state)))
    w = min(SERIES.summable_window, N)
    tail = max(
        (abs(values[-1] - values[-1 - k]) for k in range(1, w + 1)),
        default=0.0,
    )
    last = prods[-1][1] if len(prods) == len(marks) else None
    if last is None:
        kind = "inconclusive"
    elif last < SERIES.divergence_product_tol:
        kind = "constant_limit"
    elif last > 10 * SERIES.divergence_product_tol and last > 0.5 * prods[0][1]:
        kind = "nonconstant_limit"
    else:
        kind = "inconclusive"
    return RightLimitReport(
        kind=kind,
        limit_estimate=values[-1],
        tail_movement=tail,
        distortion_checkpoints=tuple(prods),
        base_point=z,
    )


class TrackingRefusal(RuntimeError):
    """Fixed-point tracking declined: the generators are not uniformly
    strict contractions, so the tracked points would not control the
    limit."""


@dataclass(frozen=True)
class FixedPointReport:
    points: tuple            # attracting fixed point of each generator
    residual_max: float      # max |f_n(p_n) - p_n|
    limit_estimate: complex  # p_N
    orbit_gap: float         # |L_N(0) - p_N|
    min_deficit: float       # min over steps of 1 - sampled distortion


_GUARD_SAMPLES = (0j, 0.4, -0.3 + 0.3j)


def track_fixed_points(
    stream: GeneratorStream,
    N: int,
    guard: float = 1e-3,
) -> FixedPointReport:
    """Follow the attracting fixed points p_n of the generators.

    Requires every generator to be a strict contraction with margin at
    least `guard` at the sample points; automorphism-like generators
    (rotation streams in particular) are refused because their tracked
    points carry no information about the limit of the system.  Each
    p_n is found by Newton iteration warm-started at p_{n-1}.
    """
    points = []
    resid_max = 0.0
    min_deficit = 1.0
    prev = cur = 0j  # the first polish starts at 0, each later one at p_{n-1}; cur is L_n(0)
    for n in range(1, N + 1):
        f = stream.generator_at(n)
        for s in _GUARD_SAMPLES:
            deficit = 1.0 - holomap.distortion(f, s)
            min_deficit = min(min_deficit, deficit)
            if deficit < guard:
                raise TrackingRefusal(
                    f"generator {n} has distortion {1 - deficit!r} at {s!r}; "
                    f"tracking needs a contraction margin of {guard:g}"
                )
        p = holomap.polish_fixed_point(f, prev)
        resid = math.inf if abs(p) >= 1.0 else abs(holomap.eval_raw(f, p) - p)
        if resid > _POLISH_TOL:
            report = holomap.denjoy_wolff(f)
            if report.kind not in ("elliptic_strict", "constant"):
                raise TrackingRefusal(
                    f"generator {n} has no interior attracting point (kind {report.kind!r})"
                )
            p = report.point
            resid = abs(holomap.eval_raw(f, p) - p)
        resid_max = max(resid_max, resid)
        points.append(p)
        prev = p
        cur = holomap.eval_raw(f, cur)
    if not points:
        raise ValueError("N must be at least 1")
    return FixedPointReport(
        points=tuple(points),
        residual_max=resid_max,
        limit_estimate=points[-1],
        orbit_gap=abs(cur - points[-1]),
        min_deficit=min_deficit,
    )
