"""Holomorphic self-maps of the disc as small expression trees.

Every primitive is a self-map of the unit disc by construction, so any
tree built from them is one too; no runtime containment test is needed
beyond a boundary clamp at evaluation.  Derivatives are analytic, taken
per primitive and chained through compositions.

The hyperbolic distortion

    f#(z) = |f'(z)| (1 - |z|^2) / (1 - |f(z)|^2)

is the local Lipschitz constant of f for the hyperbolic metric.  It lies
in [0, 1], with f# identically 1 exactly for disc automorphisms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

from . import moebius
from .geometry import DiscPoint, DomainError, clamp_to_disc, disc_point, _omega_raw
from .moebius import MoebiusMap


class ConsistencyError(RuntimeError):
    """An internal invariant failed (for example distortion above 1)."""


class InconclusiveError(RuntimeError):
    """Iteration budget exhausted without a classification.

    The `partial` attribute carries whatever orbit data was collected.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Monomial:
    """z |-> z^power, power >= 1."""

    power: int

    def __post_init__(self):
        if not (isinstance(self.power, int) and self.power >= 1):
            raise DomainError(f"monomial power must be an integer >= 1: {self.power!r}")


@dataclass(frozen=True)
class Scale:
    """z |-> factor * z with |factor| <= 1."""

    factor: complex

    def __post_init__(self):
        f = complex(self.factor)
        if abs(f) > 1.0:
            raise DomainError(f"scale factor must satisfy |a| <= 1: {f!r}")
        object.__setattr__(self, "factor", f)


@dataclass(frozen=True)
class Blaschke:
    """Finite Blaschke product e^{i phase} prod (z - z_j)/(1 - conj(z_j) z).

    The zero list must be nonempty; use a Mobius node for automorphisms
    you already have in matrix form.
    """

    zeros: tuple
    phase: float = 0.0

    def __post_init__(self):
        zs = tuple(disc_point(z) for z in self.zeros)
        if not zs:
            raise DomainError("blaschke zero list must be nonempty")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "phase", float(self.phase))


@dataclass(frozen=True)
class Constant:
    """The constant map onto an interior point."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", disc_point(self.value))


@dataclass(frozen=True)
class Mobius:
    """A disc automorphism given by its matrix."""

    map: MoebiusMap

    def __post_init__(self):
        if self.map.domain != moebius.DISC:
            raise DomainError("Mobius nodes must carry a disc automorphism")


@dataclass(frozen=True)
class Compose:
    """Composition; parts[0] is applied last, parts[-1] first."""

    parts: tuple

    def __post_init__(self):
        ps = tuple(self.parts)
        if not ps:
            raise DomainError("compose needs at least one part")
        object.__setattr__(self, "parts", ps)


@dataclass(frozen=True)
class HalfPlaneAffine:
    """The half-plane map w |-> scale * w + translation, seen on the disc.

    Requires Im(translation) >= 0 and scale > 0 real, which make the map a
    self-map of the upper half-plane; it is an automorphism exactly when
    the translation is real.  Internally the map is conjugated through the
    Cayley transform and stored as a disc-side matrix.
    """

    translation: complex
    scale: float = 1.0
    disc_matrix: MoebiusMap = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = complex(self.translation)
        s = float(self.scale)
        if t.imag < 0:
            raise DomainError(f"half-plane translation needs Im t >= 0: {t!r}")
        if not s > 0:
            raise DomainError(f"half-plane scale must be positive: {s!r}")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "scale", s)
        m = moebius._matmul(
            moebius._matmul(moebius._CAYLEY, (s, t, 0.0, 1.0)), moebius._CAYLEY_ADJ
        )
        domain = moebius.DISC if t.imag == 0 else moebius.GENERIC
        object.__setattr__(
            self, "disc_matrix", MoebiusMap(*moebius._det1(*m), domain=domain)
        )


MapExpr = Union[Monomial, Scale, Blaschke, Constant, Mobius, Compose, HalfPlaneAffine]


def identity_map() -> MapExpr:
    return Mobius(moebius.identity())


def _blaschke_factors(f: Blaschke, z: complex):
    for zj in f.zeros:
        yield (z - zj) / (1.0 - zj.conjugate() * z)


def eval_raw(f: MapExpr, z: complex) -> complex:
    """Evaluate without wrapping; callers guarantee z is interior."""
    if isinstance(f, Compose):
        for part in reversed(f.parts):
            z = eval_raw(part, z)
        return z
    if isinstance(f, Scale):
        return f.factor * z
    if isinstance(f, Monomial):
        return z ** f.power
    if isinstance(f, Mobius):
        return moebius.apply(f.map, z)
    if isinstance(f, Blaschke):
        out = cmath.exp(1j * f.phase)
        for w in _blaschke_factors(f, z):
            out *= w
        return out
    if isinstance(f, Constant):
        return f.value
    if isinstance(f, HalfPlaneAffine):
        return moebius.apply(f.disc_matrix, z)
    raise TypeError(f"not a MapExpr: {f!r}")


def evaluate(f: MapExpr, z) -> DiscPoint:
    """Evaluate at an interior point; boundary-grazing output is clamped."""
    return clamp_to_disc(eval_raw(f, disc_point(z)))


def derivative(f: MapExpr, z) -> complex:
    zv = complex(getattr(z, "value", z))
    return _deriv_raw(f, zv)


def _deriv_raw(f: MapExpr, z: complex) -> complex:
    if isinstance(f, Compose):
        d = 1.0 + 0.0j
        v = z
        for part in reversed(f.parts):
            d *= _deriv_raw(part, v)
            v = eval_raw(part, v)
        return d
    if isinstance(f, Scale):
        return f.factor
    if isinstance(f, Monomial):
        return f.power * z ** (f.power - 1) if f.power > 1 else 1.0 + 0.0j
    if isinstance(f, Mobius):
        return moebius.deriv(f.map, z)
    if isinstance(f, Blaschke):
        vals = list(_blaschke_factors(f, z))
        total = 0.0 + 0.0j
        for j, zj in enumerate(f.zeros):
            dj = (1.0 - abs(zj) ** 2) / (1.0 - zj.conjugate() * z) ** 2
            rest = 1.0 + 0.0j
            for i, v in enumerate(vals):
                if i != j:
                    rest *= v
            total += dj * rest
        return cmath.exp(1j * f.phase) * total
    if isinstance(f, Constant):
        return 0.0 + 0.0j
    if isinstance(f, HalfPlaneAffine):
        return moebius.deriv(f.disc_matrix, z)
    raise TypeError(f"not a MapExpr: {f!r}")


def distortion(f: MapExpr, z) -> float:
    """Hyperbolic distortion f#(z), clamped to [0, 1]."""
    zv = disc_point(z)
    w = eval_raw(f, zv)
    den = 1.0 - abs(w) ** 2
    if den <= 0.0:
        raise ConsistencyError(f"self-map evaluation left the disc at {zv!r}")
    val = abs(_deriv_raw(f, zv)) * (1.0 - abs(zv) ** 2) / den
    # 1 - |z|^2 loses relative accuracy like eps/(1 - |z|) near the unit
    # circle, so the over-unity tolerance has to widen with it; a genuine
    # violation overshoots by orders of magnitude more
    tol = 1e-9 + 64.0 * 2.220446049250313e-16 / min(den, 1.0 - abs(zv) ** 2)
    if val > 1.0 + tol:
        raise ConsistencyError(f"distortion {val!r} above 1 at {zv!r}")
    return min(max(val, 0.0), 1.0)


def distortion_via_quotient(f: MapExpr, z, h: float) -> float:
    """Finite-difference distortion omega(f(z+h), f(z)) / omega(z+h, z)."""
    zv = disc_point(z)
    zh = disc_point(zv + h)  # rejects steps that leave the disc
    num = _omega_raw(eval_raw(f, zh), eval_raw(f, zv))
    den = _omega_raw(zh, zv)
    if den == 0.0:
        raise DomainError("quotient step h must be nonzero")
    return num / den


_AUTO_EPS = 1e-15


def as_automorphism(f: MapExpr):
    """The MoebiusMap equal to f when f is structurally an automorphism."""
    if isinstance(f, Mobius):
        return f.map
    if isinstance(f, Monomial):
        return moebius.identity() if f.power == 1 else None
    if isinstance(f, Scale):
        if abs(abs(f.factor) - 1.0) <= _AUTO_EPS:
            return MoebiusMap(f.factor, 0.0, 0.0, 1.0, moebius.DISC)
        return None
    if isinstance(f, Blaschke):
        if len(f.zeros) == 1:
            ph = cmath.exp(1j * f.phase)
            z0 = f.zeros[0]
            return MoebiusMap(ph, -ph * z0, -z0.conjugate(), 1.0, moebius.DISC)
        return None
    if isinstance(f, HalfPlaneAffine):
        if abs(f.translation.imag) <= _AUTO_EPS:
            m = f.disc_matrix
            return MoebiusMap(m.a, m.b, m.c, m.d, moebius.DISC)
        return None
    if isinstance(f, Compose):
        acc = moebius.identity()
        for part in f.parts:
            m = as_automorphism(part)
            if m is None:
                return None
            acc = moebius.compose(acc, m)
        return acc
    return None


def _as_constant(f: MapExpr):
    if isinstance(f, Constant):
        return f.value
    if isinstance(f, Compose):
        if any(_constant_inside(p) for p in f.parts):
            return eval_raw(f, 0.0)
    return None


def _constant_inside(f: MapExpr) -> bool:
    if isinstance(f, Constant):
        return True
    if isinstance(f, Compose):
        return any(_constant_inside(p) for p in f.parts)
    return False


@dataclass(frozen=True)
class DWReport:
    """Denjoy-Wolff data: the attracting point and its multiplier.

    kind is one of identity, constant, elliptic_auto, elliptic_strict,
    parabolic, hyperbolic.  The multiplier is |f'(p)| at an interior
    point, or the angular derivative estimate at a boundary point.
    """

    kind: str
    point: complex | None
    multiplier: float


def polish_fixed_point(f: MapExpr, z0: complex, steps: int = 60, tol: float = 1e-14) -> complex:
    """Newton refinement of an interior fixed point of f."""
    z = complex(z0)
    for _ in range(steps):
        fz = eval_raw(f, z)
        dz = _deriv_raw(f, z) - 1.0
        if abs(dz) < 1e-14:
            break
        step = (fz - z) / dz
        z = z - step
        if abs(step) < tol:
            break
    return z


_DW_SEEDS = (0.0 + 0.0j, 0.35 + 0.0j, -0.4 + 0.25j, -0.3j)
_RADIAL_R = (0.9, 0.99, 0.999, 0.9999)


def _richardson(values, ratio: float = 10.0) -> float:
    t = list(values)
    n = len(t)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = (ratio**j * t[i] - t[i - 1]) / (ratio**j - 1.0)
    return t[-1]


def _angular_multiplier(f: MapExpr, tau: complex) -> float:
    qs = [(1.0 - abs(eval_raw(f, r * tau))) / (1.0 - r) for r in _RADIAL_R]
    return _richardson(qs)


def _boundary_direction(f: MapExpr, seed: complex, budget: int):
    """Follow an orbit toward the boundary; extrapolate its direction.

    Returns (tau, converged_interior_point).  Exactly one slot is set.
    """
    z = seed
    checkpoints = {}
    marks = (budget // 4, budget // 2, budget)
    for n in range(1, budget + 1):
        z1 = eval_raw(f, z)
        if abs(z1 - z) < 1e-15 and abs(z1) < 0.999:
            return None, z1
        z = z1
        if n in marks:
            checkpoints[n] = z
    r = abs(z)
    if r < 0.999:
        raise InconclusiveError(
            f"orbit from {seed!r} settled nowhere within budget {budget}",
            partial={"last": z, "seed": seed},
        )
    taus = [checkpoints[m] / abs(checkpoints[m]) for m in marks]
    t1, t2, t4 = taus
    d1, d2 = t2 - t1, t4 - t2
    if abs(d2) < 1e-15:
        tau = t4
    else:
        ratio = d2 / d1 if abs(d1) > 0 else 0.0
        tau = t4 + d2 * ratio / (1.0 - ratio) if abs(1.0 - ratio) > 1e-12 else t4
    return tau / abs(tau), None


def denjoy_wolff(f: MapExpr, budget: int = 20000, tol: float = 1e-3) -> DWReport:
    """Locate and classify the Denjoy-Wolff point of a self-map.

    Automorphisms are classified exactly through their matrices; strict
    contractions by iteration plus a Newton polish; boundary cases by the
    radial quotient (1 - |f(r tau)|)/(1 - r) extrapolated in r.  The tol
    argument is the parabolic-versus-hyperbolic cutoff on the multiplier.
    """
    cval = _as_constant(f)
    if cval is not None:
        return DWReport("constant", cval, 0.0)

    auto = as_automorphism(f)
    if auto is not None:
        ac = moebius.classify_auto(auto)
        if ac.kind == "identity":
            return DWReport("identity", None, 1.0)
        if ac.kind == "elliptic":
            return DWReport("elliptic_auto", ac.fixed_points[0], abs(ac.multipliers[0]))
        if ac.kind == "parabolic":
            return DWReport("parabolic", ac.fixed_points[0], 1.0)
        return DWReport("hyperbolic", ac.fixed_points[0], abs(ac.multipliers[0]))

    taus = []
    interiors = []
    for seed in _DW_SEEDS:
        tau, interior = _boundary_direction(f, seed, budget)
        if interior is not None:
            interiors.append(interior)
        else:
            taus.append(tau)

    if interiors and not taus:
        p = polish_fixed_point(f, interiors[0])
        spread = max(abs(q - interiors[0]) for q in interiors)
        if spread > 1e-6:
            raise InconclusiveError(
                "interior limits disagree across seeds", partial={"points": interiors}
            )
        return DWReport("elliptic_strict", p, abs(_deriv_raw(f, p)))

    if taus and not interiors:
        spread = max(abs(t - taus[0]) for t in taus)
        if spread > 1e-3:
            raise InconclusiveError(
                "boundary directions disagree across seeds", partial={"taus": taus}
            )
        tau = taus[0]
        mult = _angular_multiplier(f, tau)
        mult = min(max(mult, 0.0), 1.0)
        kind = "parabolic" if mult >= 1.0 - tol else "hyperbolic"
        return DWReport(kind, tau, mult)

    raise InconclusiveError(
        "seeds split between interior and boundary behaviour",
        partial={"taus": taus, "interiors": interiors},
    )


def map_to_json(f: MapExpr) -> dict:
    if isinstance(f, Monomial):
        return {"kind": "monomial", "power": f.power}
    if isinstance(f, Scale):
        return {"kind": "scale", "factor": [f.factor.real, f.factor.imag]}
    if isinstance(f, Blaschke):
        return {
            "kind": "blaschke",
            "zeros": [[z.real, z.imag] for z in f.zeros],
            "phase": f.phase,
        }
    if isinstance(f, Constant):
        return {"kind": "constant", "value": [f.value.real, f.value.imag]}
    if isinstance(f, Mobius):
        return moebius.to_json(f.map)
    if isinstance(f, Compose):
        return {"kind": "compose", "parts": [map_to_json(p) for p in f.parts]}
    if isinstance(f, HalfPlaneAffine):
        out = {
            "kind": "hp_affine",
            "translation": [f.translation.real, f.translation.imag],
        }
        if f.scale != 1.0:
            out["scale"] = f.scale
        return out
    raise TypeError(f"not a MapExpr: {f!r}")


def map_from_json(obj: dict) -> MapExpr:
    kind = obj.get("kind")
    if kind == "monomial":
        return Monomial(int(obj["power"]))
    if kind == "scale":
        re, im = obj["factor"]
        return Scale(complex(re, im))
    if kind == "blaschke":
        zeros = tuple(complex(re, im) for re, im in obj["zeros"])
        return Blaschke(zeros, float(obj.get("phase", 0.0)))
    if kind == "constant":
        re, im = obj["value"]
        return Constant(complex(re, im))
    if kind == "mobius":
        return Mobius(moebius.from_json(obj))
    if kind == "compose":
        return Compose(tuple(map_from_json(p) for p in obj["parts"]))
    if kind == "hp_affine":
        re, im = obj["translation"]
        return HalfPlaneAffine(complex(re, im), float(obj.get("scale", 1.0)))
    raise ValueError(f"unknown map kind: {kind!r}")
