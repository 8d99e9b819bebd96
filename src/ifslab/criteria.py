"""Series tests and limit-type classification for composition systems.

The central quantity is the per-step distortion deficit 1 - f_n#(.),
taken along the left orbit.  Its series diverging with a collapsing
distortion product signals constant limit functions; a summable tail
with a stabilizing product signals nonconstant limits.  Both signals are
finite-horizon: the verdicts say what the first N steps establish,
nothing more, and "inconclusive" is an expected outcome near the
threshold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from . import holomap
from .geometry import disc_point
from .holomap import ConsistencyError, InconclusiveError
from .ifs import _Escape, GeneratorStream, LeftOrbitCursor, RightOrbitState


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

# left classification: the first base point's left orbit escaping this omega
# distance of 0 (by orbit_bounded's rule) marks the family not relatively compact
_ESCAPE_RADIUS = 3.0
# right classification: distortion samples at N/4, N/2, 3N/4 and N
_CHECKPOINTS = 4
# fixed-point tracking: the largest |f(p) - p| a Newton polish may leave
# before Denjoy-Wolff is asked
_POLISH_TOL = 1e-10


@dataclass(frozen=True)
class SeriesReport:
    """The deficit series along the left orbit of base_point.

    verdict and product_residual_max come from the fold (_Series).  Only
    distortion_series keeps every step: terms, partial_sums and products
    hold the n = 1..N values and orbit the points L_0(z), ..., L_N(z).  The
    reports of classify_left_limits leave those four empty, so its memory
    stays flat in N; its row callback sees the first point's steps instead.
    """

    base_point: complex
    terms: tuple
    partial_sums: tuple
    products: tuple
    orbit: tuple
    verdict: str  # "diverging" | "summable_so_far" | "inconclusive"
    product_residual_max: float


class _Series:
    """One base point's deficit series, folded one step at a time.

    It keeps the running partial sum, the running product of the f_n#,
    the running product of the step derivatives (L_n'(z), None at n = 0),
    the largest difference between the distortion of L_n at z read from
    L_n'(z) and the product of the f_n#, which agree up to rounding; and
    the last SERIES.summable_window terms and products, which is all
    _series_verdict reads.  at is L_n(z), where the next term is taken.
    1 - |L_n(z)|^2 is carried from one step to the next: each step
    computes it once, as its distortion's and its residual's denominator,
    and the next step passes it to the distortion as 1 - |at|^2.
    error is the error that stopped the series, which _left_series raises
    once its sweep is over; a series with an error takes no further step.
    """

    def __init__(self, z: complex):
        self.base_point = self.at = z
        self.n = 0
        self.partial_sum = 0.0
        self.product = 1.0
        self.deriv = None
        self.residual_max = 0.0
        self.terms = deque(maxlen=SERIES.summable_window)
        self.products = deque(maxlen=SERIES.summable_window)
        self.error = None
        self._base_gap = self._gap = 1.0 - abs(z) ** 2

    def add(self, v: complex, dv: complex) -> float:
        """Fold the step to v = f_n(at), with dv = f_n'(at); returns its term 1 - f_n#(at)."""
        gap = 1.0 - abs(v) ** 2  # the next step's 1 - |at|^2
        d = holomap._distortion_from_gaps(self.at, self._gap, gap, dv)
        term = 1.0 - d
        product = self.product * d
        deriv = dv if self.deriv is None else self.deriv * dv
        residual = abs(abs(deriv) * self._base_gap / gap - product)  # v lies off the band
        if residual > self.residual_max:
            self.residual_max = residual
        self.n += 1
        self.partial_sum += term
        self.product = product
        self.deriv = deriv
        self.terms.append(term)
        self.products.append(product)
        self.at = v
        self._gap = gap
        return term

    def report(self, terms=(), partial_sums=(), products=(), orbit=()) -> SeriesReport:
        return SeriesReport(
            base_point=self.base_point,
            terms=terms,
            partial_sums=partial_sums,
            products=products,
            orbit=orbit,
            verdict=_series_verdict(self),
            product_residual_max=self.residual_max,
        )


def _series_verdict(s: _Series) -> str:
    if s.partial_sum > SERIES.divergence_threshold and s.product < SERIES.divergence_product_tol:
        return "diverging"
    if s.n >= SERIES.summable_window:
        swing = max(s.products) - min(s.products)
        if sum(s.terms) < SERIES.summable_tol and swing < SERIES.product_cauchy_tol:
            return "summable_so_far"
    return "inconclusive"


def _left_series(stream: GeneratorStream, N: int, pts: tuple, escape_radius: float = math.inf, row=None):
    """The deficit series along the left orbits of pts, folded (_Series) as
    one jet-carrying cursor sweeps them; None if by the horizon the first
    point's reported orbit escapes escape_radius by orbit_bounded's rule.
    row, when given, is called at each step of the first point's series
    with the tuple (n, term, partial sum, product, L_{n-1}(z)).  A series
    stops at a constant generator (ValueError), where the cursor holds its
    value (InconclusiveError) or at a distortion's ConsistencyError; that
    error is raised after the sweep, the first point's first.  A lone
    series ends the sweep where it stops, so the stream is read no further.
    """
    cursor = LeftOrbitCursor(stream, pts, track_pairs=False, jets=True)
    watch = _Escape(cursor, escape_radius)
    series = [_Series(z) for z in cursor.seeds]
    first = series[0]
    for n in range(1, N + 1):
        if len(series) == 1 and first.error is not None:
            break  # a lone series ends where it stops: the stream may end there
        watch.advance()
        constant = holomap._as_constant(cursor.generator) is not None
        for i, (s, v, dv) in enumerate(zip(series, cursor.computed, cursor.derivs)):
            if s.error is not None:
                continue
            if constant:
                s.error = ValueError(f"generator {n} is constant; the deficit series needs nonconstant maps")
            elif i in cursor.saturated_seeds:
                msg = f"left orbit entered the held band at step {n}: {v!r}"
                s.error = InconclusiveError(msg, partial={"step": n, "last": v})
            else:
                at = s.at
                try:
                    term = s.add(v, dv)
                except ConsistencyError as e:
                    s.error = e
                    continue
                if row is not None and s is first:
                    row((n, term, s.partial_sum, s.product, at))
    if watch.first is not None:
        return None
    for s in series:
        if s.error is not None:
            raise s.error
    return series


def distortion_series(stream: GeneratorStream, N: int, z0=0j) -> SeriesReport:
    """Terms 1 - f_n#(L_{n-1} z0), their sums and products along the left
    orbit of z0, with every step collected from the fold (see _left_series)."""
    steps = []
    (s,) = _left_series(stream, N, (disc_point(z0),), row=steps.append)
    _, terms, sums, prods, orbit = zip(*steps) if steps else ((),) * 5
    return s.report(terms, sums, prods, orbit + (s.at,))


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
    row=None,
) -> LeftLimitReport:
    """Classify the limit behavior of L_n at the horizon N, in one sweep.

    A left orbit escaping every bounded region means the family is not
    relatively compact and no limit function exists to classify.  For
    bounded orbits the series verdict decides: diverging deficit sums
    force every limit function to be constant, summable ones keep the
    limits nonconstant.  Verdicts are required to agree across the base
    points; disagreement or any inconclusive verdict is reported as
    inconclusive rather than silently preferring one point.  A series
    error stands only once escape is ruled out.  The series are folded as
    the sweep runs, so memory stays flat in N: the reports keep their
    verdicts, not their steps, and row, when given, is called with each
    step (n, term, partial sum, product, L_{n-1}(z)) of the first base
    point's series, a tuple, as it is taken.
    """
    pts = tuple(disc_point(p) for p in base_points)
    if len(pts) < 2:
        raise ValueError("need at least two base points for cross-checking")
    series = _left_series(stream, N, pts, _ESCAPE_RADIUS, row)
    if series is None:
        return LeftLimitReport("not_relatively_compact", (), (), True, _ESCAPE_RADIUS)
    reports = tuple(s.report() for s in series)
    limits = tuple(s.at for s in series)
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
    """Distortion of R_n at the first seed z0 of a jet-carrying engine: the
    chain-rule product of the f_j#, read from the jet (R_n(z0), R_n'(z0))."""
    return holomap._distortion_from_jet(state.seeds[0], state.values[0], state.derivs[0])


def classify_right_limits(
    stream: GeneratorStream,
    N: int,
    z0=0.5,
) -> RightLimitReport:
    """Classify the pointwise limit of R_n at z0 over the first N steps.

    The verdict reads only the distortion of R_n at z0 at a few checkpoint
    horizons: collapse toward zero reads as constant_limit, a stable
    positive floor as nonconstant_limit.  It does not read whether R_n(z0)
    converges, which fails for automorphism cycles (R_n(D) = D, and a
    rotation's R_n(z0) circles for ever yet reads nonconstant_limit):
    tail_movement, the largest move of R_n(z0) over the last
    SERIES.summable_window steps, shows that, and no verdict reads it.
    One right sweep carrying R_n'(z0) gives the values and checkpoints; a
    base point that saturates before the last checkpoint reads
    inconclusive.  Raises ValueError for a constant generator.
    """
    z = disc_point(z0)
    marks = sorted({max(1, (N * k) // _CHECKPOINTS) for k in range(1, _CHECKPOINTS + 1)})
    state = RightOrbitState(stream, (z,), jets=True)
    values = deque([z], maxlen=SERIES.summable_window + 1)
    prods = []
    for n in range(1, N + 1):
        state.advance()
        if holomap._as_constant(state.generator) is not None:
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


def _same_bits(a: complex, b: complex) -> bool:
    """a and b are the same complex number bit for bit (0.0 and -0.0 differ; NaN matches nothing)."""
    return (
        a == b
        and math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
        and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)
    )


def _solve_fixed_point(f, n: int, warm: complex, guard: float) -> tuple:
    """(p_n, |f(p_n) - p_n|, least sampled deficit) for generator n warm-started
    at warm; TrackingRefusal when f fails the guard or has no interior
    attracting point."""
    deficit = 1.0
    for s in _GUARD_SAMPLES:
        d = 1.0 - holomap.distortion(f, s)
        deficit = min(deficit, d)
        if d < guard:
            raise TrackingRefusal(
                f"generator {n} has distortion {1 - d!r} at {s!r}; "
                f"tracking needs a contraction margin of {guard:g}"
            )
    p = holomap.polish_fixed_point(f, warm)
    resid = math.inf if abs(p) >= 1.0 else abs(holomap.eval_raw(f, p) - p)
    if resid > _POLISH_TOL:
        report = holomap.denjoy_wolff(f)
        if report.kind not in ("elliptic_strict", "constant"):
            raise TrackingRefusal(
                f"generator {n} has no interior attracting point (kind {report.kind!r})"
            )
        p = report.point
        resid = abs(holomap.eval_raw(f, p) - p)
    return p, resid, deficit


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

    The guard samples, the Newton polish and the Denjoy-Wolff fallback
    depend only on f_n and the warm start.  A cycled stream of period p
    therefore keeps one record per position (n - 1) mod p: the warm start
    the solve began from, p_n, its residual and the least deficit of the
    samples.  A step whose warm start matches its position's record bit
    for bit reuses it, so each position is solved once per warm start and
    tracking a cycle costs O(p) solves once the points repeat, with the
    same report as solving every step.  List and rule streams solve every
    step.
    """
    points = []
    resid_max = 0.0
    min_deficit = 1.0
    by_position = {}  # stream.position(n) -> (warm start, p_n, residual, least deficit)
    cursor = LeftOrbitCursor(stream, (0j,), track_pairs=False)  # L_n(0)
    for n in range(1, N + 1):
        f = cursor.advance().generator
        warm = points[-1] if points else 0j
        pos = stream.position(n)
        record = by_position.get(pos)
        if record is None or not _same_bits(record[0], warm):
            record = (warm, *_solve_fixed_point(f, n, warm, guard))
            if pos is not None:
                by_position[pos] = record
        _, p, resid, deficit = record
        min_deficit = min(min_deficit, deficit)
        resid_max = max(resid_max, resid)
        points.append(p)
    if not points:
        raise ValueError("N must be at least 1")
    return FixedPointReport(
        points=tuple(points),
        residual_max=resid_max,
        limit_estimate=points[-1],
        orbit_gap=abs(cursor.computed[0] - points[-1]),
        min_deficit=min_deficit,
    )
