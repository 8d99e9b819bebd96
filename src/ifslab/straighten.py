"""Straightening coordinates for left and right composition systems.

For a left system the n-th coordinate change is the disc automorphism
gamma_n moving 0 to a_n = L_n(0) composed with a rotation, chosen so
that H_n = gamma_n^{-1} o L_n sends a fixed probe point to the
non-negative real axis.  The pointwise limit h of H_n is a self-map
fixing 0; it is identically 0 exactly when the paired hyperbolic
distances omega(L_n z, L_n 0) collapse.

For a right system the coordinate changes ride a backward orbit
f_n(w_n) = w_{n-1}: gamma_n sends w_n to 0 and accumulates the phases
of the derivatives along the orbit, which makes every conjugated step
g_n = gamma_{n-1} o f_n o gamma_n^{-1} fix 0 with g_n'(0) >= 0.

Convergence is declared when the sum of the grid-maximum hyperbolic
steps over a trailing window drops below tolerance; the exact pairwise
maximum over the final window is reported alongside.  Runs also stop,
flagged, when the base orbit gets too close to the unit circle for
double precision to resolve the coordinate change.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

from . import holomap, moebius
from .geometry import _EPS, DomainError, _omega_raw, disc_point
from .holomap import ConsistencyError, InconclusiveError, MapExpr
from .ifs import (
    LEDGER_SLACK,
    BackwardOrbit,
    GeneratorStream,
    LeftOrbitCursor,
    _replay,
    verify_backward_orbit,
)
from .moebius import MoebiusMap


# the origin, then 12 points on each of the circles |z| = 0.3 and 0.6
DEFAULT_GRID = (0j, *(r * cmath.exp(2j * math.pi * k / 12) for r in (0.3, 0.6) for k in range(12)))
DEFAULT_PROBE = 0.5
TOL = 1e-8  # default bound on the windowed sum of per-step grid movements
TOL_ZERO = 1e-9  # a collapse size below this means h == 0
WINDOW = 10  # moves per trailing window
PHASE_FREEZE = 1e-6  # probe modulus below this freezes the phase
BOUNDARY_GUARD = 1e-11  # the left run and mu_step stop when 1 - |orbit point| drops below
PROBE_TOL = 2e-5  # semiconjugacy_probe's bound on its best window


@dataclass(frozen=True)
class StraightenResult:
    converged: bool
    degenerate: bool
    stopped_at_boundary: bool
    steps: int
    grid: tuple
    h_grid: tuple
    probe: complex
    h_at_probe: complex
    probe_trace: tuple       # |H_n(probe)|, one entry per step
    residual_trace: tuple    # grid-max omega move of H, from step 2 on
    window_residual: float | None  # exact pairwise grid-max over final window
    gammas: tuple
    phases: tuple
    distortion_trace: tuple  # distortion of H_n at 0, one entry per step
    h_extra: tuple = ()
    gn_derivs: tuple = ()    # right systems: g_n'(0) per step


def _pairwise_window_max(snapshots) -> float | None:
    snaps = list(snapshots)
    if len(snaps) < 2:
        return None
    worst = 0.0
    for i in range(len(snaps)):
        for j in range(i + 1, len(snaps)):
            for u, v in zip(snaps[i], snaps[j]):
                d = _omega_raw(u, v)
                if d > worst:
                    worst = d
    return worst


class _Trail:
    """The per-step record, stopping rule and result shared by both sides.

    Each step records H_n on the grid and at the probe, the probe-modulus
    and distortion traces, gamma_n with its phase, and the grid-max omega
    move from the previous step.  A step ends the run as degenerate when
    its collapse size drops below TOL_ZERO, and as converged when the
    last WINDOW moves sum below tol.
    """

    def __init__(self, tol: float, grid: tuple, probe: complex, gammas=(), phases=()):
        self.tol, self.grid, self.probe = tol, grid, probe
        self.h_grid, self.h_probe = grid, probe
        self.probe_trace, self.residual_trace, self.dist_trace = [], [], []
        self.gammas, self.phases = list(gammas), list(phases)
        self.snapshots = deque(maxlen=WINDOW + 1)
        self.converged = self.degenerate = False

    def record(self, h_grid, h_probe, probe_abs, dist, gamma, theta, size) -> bool:
        """Record one step; True when the stopping rule ends the run."""
        if self.probe_trace:
            self.residual_trace.append(max(_omega_raw(u, v) for u, v in zip(h_grid, self.h_grid)))
        self.h_grid = h_grid
        self.h_probe = h_probe
        self.probe_trace.append(probe_abs)
        self.dist_trace.append(dist)
        self.gammas.append(gamma)
        self.phases.append(theta)
        self.snapshots.append(h_grid)
        if size < TOL_ZERO:
            self.converged = self.degenerate = True
        elif self.settled(self.tol):
            self.converged = True
        return self.converged

    def settled(self, tol: float) -> bool:
        """The last WINDOW moves sum below tol."""
        return len(self.residual_trace) >= WINDOW and sum(self.residual_trace[-WINDOW:]) < tol

    def result(self, stopped_at_boundary: bool = False, **extra) -> StraightenResult:
        return StraightenResult(
            converged=self.converged,
            degenerate=self.degenerate,
            stopped_at_boundary=stopped_at_boundary,
            steps=len(self.probe_trace),
            grid=self.grid,
            h_grid=self.h_grid,
            probe=self.probe,
            h_at_probe=self.h_probe,
            probe_trace=tuple(self.probe_trace),
            residual_trace=tuple(self.residual_trace),
            window_residual=_pairwise_window_max(self.snapshots),
            gammas=tuple(self.gammas),
            phases=tuple(self.phases),
            distortion_trace=tuple(self.dist_trace),
            **extra,
        )


def left_straighten(
    stream: GeneratorStream,
    N: int,
    probe: complex = DEFAULT_PROBE,
    tol: float = TOL,
    extra_points: tuple = (),
) -> StraightenResult:
    """Run the left straightening of DEFAULT_GRID for N steps or until it settles.

    extra_points are carried through the same coordinate changes and
    reported in h_extra without affecting the convergence decision.
    A probe within TOL_ZERO of 0 is a DomainError: |H_n(probe)| <= |probe|.
    """
    grid = DEFAULT_GRID
    probe = disc_point(probe)
    if abs(probe) <= TOL_ZERO:
        raise DomainError(f"left probe within {TOL_ZERO:g} of 0 reads as a collapse at step 1: {probe!r}")
    # one left cursor: the grid (0 first, so a_n = L_n(0) leads), probe, extras
    k = len(grid)
    cursor = LeftOrbitCursor(stream, grid + (probe,) + tuple(extra_points), track_pairs=False, jets=True)
    h_extra = cursor.seeds[k + 1 :]
    trail = _Trail(tol, grid, probe)
    dist0 = 1.0
    theta = 0.0
    boundary_stop = False

    for n in range(1, N + 1):
        at = cursor.computed[0]  # L_{n-1}(0), kept off the circle by the BOUNDARY_GUARD stop
        vals = cursor.advance().computed
        a = vals[0]  # L_n(0)
        dist0 *= holomap._distortion_from_jet(at, a, cursor.derivs[0])

        ca = a.conjugate()
        unrotated = [(v - a) / (1.0 - ca * v) for v in vals]  # gamma_n^{-1} up to the rotation
        u_probe = unrotated[k]
        pa = abs(u_probe)
        # the coordinate change has condition number ~ 1/(1 - |a|), and
        # orbit rounding accumulates over n steps; scale the slack so the
        # honest noise floor does not read as a monotonicity violation
        slack = LEDGER_SLACK + n * 8.0 * _EPS / max(1.0 - abs(a), _EPS)
        if trail.probe_trace and pa > trail.probe_trace[-1] + slack:
            raise ConsistencyError(
                f"|H_n(probe)| grew at step {n}: {trail.probe_trace[-1]!r} -> {pa!r}"
            )
        if pa > PHASE_FREEZE:
            theta = math.atan2(u_probe.imag, u_probe.real)
        rot = cmath.exp(-1j * theta)

        h_grid = tuple(rot * u for u in unrotated[:k])
        h_extra = tuple(rot * u for u in unrotated[k + 1 :])
        eitheta = cmath.exp(1j * theta)
        gamma = moebius._trusted(eitheta, a, ca * eitheta, 1.0 + 0j, moebius.DISC)
        if trail.record(h_grid, rot * u_probe, pa, dist0, gamma, theta, pa):
            break
        if 1.0 - abs(a) < BOUNDARY_GUARD:
            boundary_stop = True
            break

    return trail.result(boundary_stop, h_extra=h_extra)


def right_straighten(
    stream: GeneratorStream,
    orbit: BackwardOrbit,
    probe: complex = DEFAULT_PROBE,
    tol: float = TOL,
) -> StraightenResult:
    """Straighten a right system on DEFAULT_GRID along a verified backward orbit.

    Verifying the orbit costs O(N) evaluations.  Each step then rebuilds
    H_n = R_n o gamma_n^{-1} on the grid from scratch, so that rebuild is
    quadratic in the orbit length; backward orbits that double precision
    can hold are short, which keeps this cheap.

    The conjugated step derivative g_n'(0) in gn_derivs is >= 0 by
    construction: theta_n = theta_{n-1} + arg f_n'(w_n), so it is
    |f_n'(w_n)| (1 - |w_n|^2) / (1 - |w_{n-1}|^2) times a unit factor
    that is 1 up to the rounding of exp and atan2.
    """
    check = verify_backward_orbit(stream, orbit)
    if not check.ok:
        raise DomainError(
            f"backward orbit fails verification: step residual {check.max_step_residual!r}"
        )
    grid = DEFAULT_GRID
    probe = disc_point(probe)
    pts = orbit.points
    N = len(pts) - 1

    # normalize the anchor to the origin by absorbing a translation into f_1
    gens = [stream.generator_at(n) for n in range(1, N + 1)]
    w0 = pts[0]
    if w0 != 0 and gens:
        sigma = holomap.Mobius(moebius.translate_to_zero(w0))
        gens[0] = holomap.Compose((sigma, gens[0]))
    wpts = (0j,) + pts[1:]

    trail = _Trail(tol, grid, probe, [moebius.identity()], [0.0])
    theta = 0.0
    gn_derivs = []
    dist0 = 1.0
    amp = 1.0  # rounding amplification of one full-chain rebuild

    for n in range(1, N + 1):
        f = gens[n - 1]
        wn = wpts[n]  # checked by BackwardOrbit
        fw, d = f.jet(wn)
        amp *= max(1.0, abs(d))
        prev_theta = theta
        if d != 0:
            theta += math.atan2(d.imag, d.real)
        dist0 *= holomap._distortion_from_jet(wn, fw, d)

        eith = cmath.exp(1j * theta)
        gamma = moebius._trusted(eith, -eith * wn, -wn.conjugate(), 1.0 + 0j, moebius.DISC)
        gamma_inv = moebius.inverse(gamma)
        h_grid = tuple(_replay(gens, n, moebius.apply(gamma_inv, z))[0] for z in grid)
        h_probe = _replay(gens, n, moebius.apply(gamma_inv, probe))[0]

        gn_derivs.append(
            cmath.exp(1j * prev_theta)
            / (1.0 - abs(wpts[n - 1]) ** 2)
            * d
            * (1.0 - abs(wn) ** 2)
            / eith
        )

        size = max(abs(v) for v in h_grid)
        if trail.record(h_grid, h_probe, abs(h_probe), dist0, gamma, theta, size):
            break

    # rebuilding H_n replays the whole chain, so rounding is amplified
    # by the derivative product along the orbit; window moves below
    # that floor are noise, not genuine movement
    floor = 16.0 * _EPS * amp
    if not trail.converged and floor < 0.01 and trail.settled(max(tol, WINDOW * floor)):
        trail.converged = True

    return trail.result(gn_derivs=tuple(gn_derivs))


@dataclass(frozen=True)
class MuStepReport:
    value: float
    trace: tuple
    exact: bool  # True when computed through the isometry identity


def mu_step(f: MapExpr, z, mu: int, N: int) -> MuStepReport:
    """Limit of omega(f^n z, f^{n+mu} z) as n grows.

    For an automorphism every term equals omega(z, f^mu z) because each
    iterate is an isometry; computing it that way avoids the precision
    loss of chasing an orbit into the boundary, and is exact.
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    zv = disc_point(z)
    auto = holomap.as_automorphism(f)
    if auto is not None:
        val = _omega_raw(zv, moebius.apply(moebius.power(auto, mu), zv))
        return MuStepReport(value=val, trace=(val,) * (N + 1), exact=True)
    cursor = LeftOrbitCursor(GeneratorStream.from_cycle([f]), (zv,), track_pairs=False)
    orbit = [zv]
    for _ in range(N + mu):
        orbit.append(cursor.advance().computed[0])
        # past this radius double precision cannot resolve the distances
        if 1.0 - abs(orbit[-1]) < BOUNDARY_GUARD:
            break
    avail = min(N, len(orbit) - 1 - mu)
    if avail < 0:
        raise InconclusiveError("orbit reached the boundary before one full step")
    trace = []
    prev = None
    for n in range(avail + 1):
        s = _omega_raw(orbit[n], orbit[n + mu])
        gap = max(1.0 - abs(orbit[n + mu]), _EPS)
        if prev is not None and s > prev + LEDGER_SLACK + n * 8.0 * _EPS / gap:
            raise ConsistencyError(f"step sequence grew at n = {n}")
        prev = s
        trace.append(s)
    return MuStepReport(value=trace[-1], trace=tuple(trace), exact=False)


@dataclass(frozen=True)
class ProbeReport:
    kind: str  # "none" | "automorphic" | "semiconjugate_to_auto"
    phi: MoebiusMap | None
    phi_kind: str | None
    residual: float | None
    straightening: StraightenResult


def semiconjugacy_probe(f: MapExpr, N: int = 400) -> ProbeReport:
    """Straighten the constant system of f and read off the trichotomy.

    "none": the straightened limit collapses to a point (strict elliptic
    behavior, or a boundary map whose hyperbolic step vanishes fast
    enough to resolve).  Otherwise the limit h intertwines h o f =
    phi o h with phi the automorphism estimated from consecutive
    coordinate changes; the reported residual is the grid maximum of
    |h(f z) - phi(h z)|.

    The run happens in two passes.  A scan with the window stop
    disabled runs until the probe collapses, the base orbit exhausts
    double precision, or the horizon; the scan locates the step where
    the trailing window of grid movements was smallest, which for
    boundary-bound orbits is where truncation error takes over from
    genuine convergence.  A deterministic replay to that step then
    supplies the reported coordinates.  InconclusiveError means the
    probe could not separate a positive limit from a slow collapse:
    either no window ever settled below tolerance, or the probe
    modulus was still visibly sliding downward at the best window.
    """
    stream = GeneratorStream.from_cycle([f])
    scan = left_straighten(stream, N, tol=0.0)
    if scan.degenerate:
        return ProbeReport("none", None, None, None, scan)

    rt = scan.residual_trace
    w = WINDOW
    if len(rt) < w:
        raise InconclusiveError(f"only {scan.steps} usable steps, shorter than the window", scan)
    best_sum, best_end = min(
        (sum(rt[i - w + 1 : i + 1]), i) for i in range(w - 1, len(rt))
    )
    if best_sum >= PROBE_TOL:
        raise InconclusiveError(f"no window settled below {PROBE_TOL:g} (best {best_sum:.2e})", scan)
    n_star = best_end + 2  # residual_trace[i] describes the move into step i + 2
    tr = scan.probe_trace
    k = min(w, n_star - 1)
    if tr[n_star - 1] > 0:
        drift = (tr[n_star - 1 - k] - tr[n_star - 1]) / tr[n_star - 1]
        if drift > 1e-3:
            raise InconclusiveError(
                f"probe modulus still drifting at the best window (relative drop {drift:.2e})", scan
            )

    fgrid = tuple(holomap.eval_raw(f, z) for z in DEFAULT_GRID)
    res = left_straighten(stream, n_star, tol=0.0, extra_points=fgrid)
    if len(res.gammas) < 2:
        raise InconclusiveError("too few steps to estimate the intertwining map", res)
    phi = moebius.canonical(moebius.compose(moebius.inverse(res.gammas[-2]), res.gammas[-1]))
    residual = max(
        abs(hf - moebius.apply(phi, hz)) for hf, hz in zip(res.h_extra, res.h_grid)
    )
    auto = holomap.as_automorphism(f)
    kind = "automorphic" if auto is not None else "semiconjugate_to_auto"
    phi_kind = moebius.classify_auto(phi).kind
    return ProbeReport(kind, phi, phi_kind, residual, res)
