"""Quantitative comparison bounds between distortion and displacement.

Every bound is exposed as a signed margin, rhs - lhs, so that a fuzzer
can assert non-negativity and sharpness witnesses can show margins that
vanish.  The four bounds, each with the leading constant c (2 by
default):

  euclid_gap      |z - w| <= c (1 - |w|) sinh(2 omega(z, w))
  lipschitz_2     omega(f#(z), f#(w)) <= c omega(z, w), reading the
                  distortion values as points of [0, 1) in the disc
  transfer        1 - f#(z) <= c e^{4 omega(z, w)} (1 - f#(w))
  approx_auto     omega(f(z), gamma(z)) <= c e^{4 omega(z, w)} (1 - f#(w))
                  with gamma the automorphism built by best_automorphism

The margins hold for every holomorphic self-map; automorphisms make
lipschitz_2, transfer and approx_auto degenerate (both sides vanish).

Points are validated once, where they enter: margin and
best_automorphism check theirs with disc_point, and fuzz_margins draws
its points and maps valid by construction, so it builds the maps
trusted (without the constructors' checks) and skips the public
wrappers.  Each point of a draw takes one jet, which serves f(w),
f'(w), the distortion and the approximating automorphism alike.  A
draw is a plain row (z, w, lhs, rhs, margin), since its kind and
coefficient are the fuzz run's; fuzz_margins folds its summary as it
draws and hands each row on as it is drawn, so no run keeps its draws,
and only the worst draw becomes a MarginReport.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from random import Random
from typing import Callable

from . import holomap, moebius
from .geometry import _omega_raw, disc_point
from .holomap import Blaschke, Compose, MapExpr, NonFiniteError, Scale, _distortion_from_jet
from .moebius import MoebiusMap

MARGIN_KINDS = ("euclid_gap", "lipschitz_2", "transfer", "approx_auto")


def best_automorphism(f: MapExpr, w) -> MoebiusMap:
    """Automorphism agreeing with f at w to first order in direction.

    Moving w to 0 and f(w) to 0 turns f into a map g fixing the origin;
    the automorphism keeps gamma(w) = f(w) and copies the phase of
    g'(0).  When f is already an automorphism it is returned unchanged,
    and when f#(w) = 0 the phase is unconstrained so the rotation is
    dropped.
    """
    auto = holomap.as_automorphism(f)
    if auto is not None:
        return auto
    wv = disc_point(w)
    return _best_automorphism(wv, *f.jet(wv))


# make_disc_auto's phase factor at the angle 0; multiplying by it as
# make_disc_auto does keeps every entry the same, signed zeros included
_UNIT = cmath.exp(1j * 0.0)


def _best_automorphism(wv: complex, fw: complex, d: complex) -> MoebiusMap:
    """best_automorphism of a map that is no automorphism, from its jet
    (fw, d) = (f(wv), f'(wv)) at the interior point wv.

    psi o rot o inverse(phi), with phi and psi the make_disc_auto maps of
    wv and fw at the angle 0, made in canonical form by the float
    operations of make_disc_auto, inverse, compose and canonical on entry
    tuples; fw is checked as make_disc_auto checks it.
    """
    fw = disc_point(fw)
    psi = (_UNIT, _UNIT * fw, fw.conjugate(), 1.0 + 0j)  # make_disc_auto(fw, 0)
    inner = (1.0 + 0j, -(_UNIT * wv), -wv.conjugate(), _UNIT)  # inverse(make_disc_auto(wv, 0))
    gprime = d * (1.0 - abs(wv) ** 2) / (1.0 - abs(fw) ** 2)
    if abs(gprime) > 0:
        alpha = math.atan2(gprime.imag, gprime.real)
        inner = moebius._matmul((cmath.exp(1j * alpha), 0j, 0j, 1.0 + 0j), inner)
    entries = moebius._canonical_entries(*moebius._matmul(psi, inner))
    return moebius._trusted(*entries, moebius.DISC)


@dataclass(frozen=True)
class MarginReport:
    kind: str
    z: complex
    w: complex
    lhs: float
    rhs: float
    margin: float
    coefficient: float


def margin(kind: str, f: MapExpr | None, z, w, coefficient: float = 2.0) -> MarginReport:
    """Signed slack rhs - lhs of one bound at one pair of points.

    Raises NonFiniteError when either side is not finite (a coefficient
    near the float maximum makes rhs overflow), since no margin read
    from an infinite or NaN side means anything.
    """
    zv, wv = disc_point(z), disc_point(w)
    lhs, rhs = _sides(kind, f, zv, wv, coefficient)
    return MarginReport(kind, zv, wv, lhs, rhs, rhs - lhs, coefficient)


def _sides(kind: str, f: MapExpr | None, zv: complex, wv: complex, coefficient: float) -> tuple:
    """(lhs, rhs) of margin at the interior points zv and wv, which the
    caller has checked."""
    om = _omega_raw(zv, wv)
    if kind == "euclid_gap":
        lhs = abs(zv - wv)
        rhs = coefficient * (1.0 - abs(wv)) * math.sinh(2.0 * om)
    elif kind == "lipschitz_2":
        dz = _distortion_from_jet(zv, *f.jet(zv))
        dw = _distortion_from_jet(wv, *f.jet(wv))
        if min(dz, dw) > 1.0 - 1e-12:
            lhs = 0.0  # distortion pinned at 1 everywhere means f is an automorphism
        else:
            lhs = _omega_raw(complex(dz), complex(dw))
        rhs = coefficient * om
    elif kind == "transfer":
        lhs = 1.0 - _distortion_from_jet(zv, *f.jet(zv))
        rhs = coefficient * math.exp(4.0 * om) * (1.0 - _distortion_from_jet(wv, *f.jet(wv)))
    elif kind == "approx_auto":
        # one jet at w gives gamma and the distortion
        gamma = holomap.as_automorphism(f)
        fw, d = f.jet(wv)
        if gamma is None:
            gamma = _best_automorphism(wv, fw, d)
        lhs = _omega_raw(holomap.eval_raw(f, zv), moebius.apply(gamma, zv))
        rhs = coefficient * math.exp(4.0 * om) * (1.0 - _distortion_from_jet(wv, fw, d))
    else:
        raise ValueError(f"unknown margin kind {kind!r}")
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFiniteError(f"{kind} margin at z = {zv!r}, w = {wv!r} has lhs {lhs!r} and rhs {rhs!r}")
    return lhs, rhs


@dataclass(frozen=True)
class DefectReport:
    radii: tuple
    ratios: tuple      # (1 - f#(r tau)) / (1 - r)^2 at each radius
    limit: float       # Richardson extrapolate of the ratios


def boundary_defect(f: MapExpr, tau=1.0) -> DefectReport:
    """Second-order defect of the distortion along a boundary radius.

    The ratio (1 - f#(r tau)) / (1 - r)^2 has a finite positive limit
    at a boundary fixed point with derivative 1 in the direction tau;
    the trace at the radii 0.9, 0.99, 0.999, 0.9999 plus a Richardson
    extrapolation (the radii approach at rate 10) estimates it.
    """
    t = complex(tau)
    t /= abs(t)
    ratios = []
    for r in holomap._RADIAL_R:
        z = r * t
        ratios.append((1.0 - holomap.distortion(f, z)) / (1.0 - r) ** 2)
    return DefectReport(holomap._RADIAL_R, tuple(ratios), holomap._richardson(ratios))


_new, _put = object.__new__, object.__setattr__


def random_self_map(rng: Random) -> MapExpr:
    """Random finite product of one to four disc factors, occasionally damped.

    Zeros land uniformly in the disc of radius 0.8 so the maps stay
    honestly non-degenerate; about half the draws get an extra inward
    scaling, which keeps strict contractions well represented.

    The nodes are built trusted, without their constructors' checks:
    every zero lies within radius 0.8, the phase is finite and the scale
    factor lies in [0.7, 1), so each is valid by construction, and the
    fields hold what the constructors would store.
    """
    m = rng.randint(1, 4)
    zeros = []
    for _ in range(m):
        r = 0.8 * math.sqrt(rng.random())
        a = 2.0 * math.pi * rng.random()
        zeros.append(r * cmath.exp(1j * a))
    f = _new(Blaschke)
    _put(f, "zeros", tuple(zeros))
    _put(f, "phase", 2.0 * math.pi * rng.random())
    if rng.random() < 0.5:
        s = _new(Scale)
        _put(s, "factor", complex(0.7 + 0.3 * rng.random()))
        g = _new(Compose)
        _put(g, "parts", (s, f))
        return g
    return f


def _random_point(rng: Random) -> complex:
    """Uniform in the disc of radius 0.7."""
    r = 0.7 * math.sqrt(rng.random())
    a = 2.0 * math.pi * rng.random()
    return r * cmath.exp(1j * a)


@dataclass(frozen=True)
class FuzzReport:
    """The summary of a fuzz run, folded as it draws: the draws themselves
    go to fuzz_margins' row callback, if any, and are not kept."""

    kind: str
    draws: int
    seed: int
    min_margin: float
    worst: MarginReport  # the one draw kept as a MarginReport; it carries the coefficient
    empirical_coefficient: float | None


def fuzz_margins(
    kind: str,
    draws: int,
    seed: int,
    coefficient: float = 2.0,
    row: Callable[[tuple], None] | None = None,
) -> FuzzReport:
    """Hammer one bound with random maps and point pairs.

    empirical_coefficient is the smallest constant that would have
    covered every draw of transfer or approx_auto, a sharpness probe for
    the default 2.  row, when given, is called with each draw's plain row
    (z, w, lhs, rhs, margin) as it is drawn, so memory stays flat in the
    number of draws.
    """
    if kind not in MARGIN_KINDS:
        raise ValueError(f"unknown margin kind {kind!r}")
    rng = Random(seed)
    scaled = kind in ("transfer", "approx_auto")
    worst = None
    min_margin = math.inf
    emp = 0.0
    for _ in range(draws):
        f = None if kind == "euclid_gap" else random_self_map(rng)
        z = _random_point(rng)
        w = _random_point(rng)
        lhs, rhs = _sides(kind, f, z, w, coefficient)
        drawn = (z, w, lhs, rhs, rhs - lhs)
        if drawn[4] < min_margin:
            min_margin, worst = drawn[4], drawn
        if scaled:
            unit = rhs / coefficient
            # draws with a vanishing right side only measure rounding noise
            if unit > 1e-9:
                emp = max(emp, lhs / unit)
        if row is not None:
            row(drawn)
    return FuzzReport(
        kind=kind,
        draws=draws,
        seed=seed,
        min_margin=min_margin,
        worst=None if worst is None else MarginReport(kind, *worst, coefficient),
        empirical_coefficient=emp if scaled else None,
    )
