"""Holomorphic self-maps of the disc as small expression trees.

Every primitive is a self-map of the unit disc by construction, so any
tree built from them is one too, and no runtime containment test is
needed: points are plain complex numbers, checked where they enter.

Each node class answers for itself: eval(z); jet(z), the pair (f(z),
f'(z)) chained through compositions in forward mode, with jet(z)[0] equal
to eval(z) bit for bit; and matrix(), the MoebiusMap of a fractional-linear
node, else None.  A node is a disc automorphism exactly when its matrix
carries the DISC domain tag.

The hyperbolic distortion

    f#(z) = |f'(z)| (1 - |z|^2) / (1 - |f(z)|^2)

is the local Lipschitz constant of f for the hyperbolic metric.  It lies
in [0, 1], with f# identically 1 exactly for disc automorphisms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union, get_args

from . import moebius
from .geometry import _EPS, DomainError, disc_point, json_array, json_number, json_point
from .moebius import MoebiusMap

# |a| within this of 1 makes Scale(a) a rotation, and Im t within it of 0
# makes HalfPlaneAffine(t) a real translation: both are automorphisms
_AUTO_EPS = 1e-15


class ConsistencyError(RuntimeError):
    """An internal invariant failed (for example distortion above 1)."""


class NonFiniteError(ConsistencyError):
    """A computed value stopped being finite (a right orbit value, derivative
    or matrix entry, a margin side, an artifact number); `partial` names where."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InconclusiveError(RuntimeError):
    """Iteration budget exhausted without a classification.

    The `partial` attribute carries whatever orbit data was collected.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Monomial:
    """z |-> z^power, for an integer power >= 1 that converts to a float."""

    power: int

    def __post_init__(self):
        if not (type(self.power) is int and self.power >= 1):
            raise DomainError(f"monomial power must be an integer >= 1: {self.power!r}")
        try:
            float(self.power)  # z ** power converts it
        except OverflowError:
            raise DomainError(
                f"monomial power must convert to a float, got {self.power.bit_length()} bits"
            ) from None

    def eval(self, z: complex) -> complex:
        return z ** self.power

    def jet(self, z: complex):
        p = self.power
        return z ** p, (p * z ** (p - 1) if p > 1 else 1.0 + 0.0j)

    def matrix(self) -> MoebiusMap | None:
        return moebius.identity() if self.power == 1 else None


@dataclass(frozen=True)
class Scale:
    """z |-> factor * z with |factor| <= 1."""

    factor: complex

    def __post_init__(self):
        f = complex(self.factor)
        if not abs(f) <= 1.0:
            raise DomainError(f"scale factor must satisfy |a| <= 1: {f!r}")
        object.__setattr__(self, "factor", f)

    def eval(self, z: complex) -> complex:
        return self.factor * z

    def jet(self, z: complex):
        return self.factor * z, self.factor

    def matrix(self) -> MoebiusMap | None:
        if self.factor == 0:
            return None  # constant map, matrix would be singular
        domain = moebius.DISC if abs(abs(self.factor) - 1.0) <= _AUTO_EPS else moebius.GENERIC
        return moebius._trusted(self.factor, 0j, 0j, 1.0 + 0j, domain)


@dataclass(frozen=True)
class Blaschke:
    """Finite Blaschke product e^{i phase} prod (z - z_j)/(1 - conj(z_j) z).

    The zero list must be nonempty; use a Mobius node for automorphisms
    you already have in matrix form.

    jet is the product rule on (value, derivative) pairs, one pass over
    the m zeros (O(m)); its value takes eval's float operations, so it
    equals eval's bits, and only the derivative's rounding is its own.
    """

    zeros: tuple
    phase: float = 0.0

    def __post_init__(self):
        zs = tuple(disc_point(z) for z in self.zeros)
        if not zs:
            raise DomainError("blaschke zero list must be nonempty")
        phase = float(self.phase)
        if not math.isfinite(phase):
            raise DomainError(f"blaschke phase must be finite: {phase!r}")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "phase", phase)

    def eval(self, z: complex) -> complex:
        out = cmath.exp(1j * self.phase)
        for zj in self.zeros:
            out *= (z - zj) / (1.0 - zj.conjugate() * z)
        return out

    def jet(self, z: complex):
        out = cmath.exp(1j * self.phase)
        d = 0j
        for zj in self.zeros:
            q = 1.0 - zj.conjugate() * z
            v = (z - zj) / q
            # the factor's derivative is formed before it meets out, so
            # one zero rounds as the sum over factors did
            d = d * v + out * ((1.0 - abs(zj) ** 2) / (q * q))
            out *= v
        return out, d

    def matrix(self) -> MoebiusMap | None:
        if len(self.zeros) != 1:
            return None
        ph = cmath.exp(1j * self.phase)
        z0 = self.zeros[0]
        return moebius._trusted(ph, -ph * z0, -z0.conjugate(), 1.0 + 0j, moebius.DISC)


@dataclass(frozen=True)
class Constant:
    """The constant map onto an interior point."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", disc_point(self.value))

    def eval(self, z: complex) -> complex:
        return self.value

    def jet(self, z: complex):
        return self.value, 0.0 + 0.0j

    def matrix(self) -> MoebiusMap | None:
        return None


@dataclass(frozen=True)
class Mobius:
    """A disc automorphism given by its matrix."""

    map: MoebiusMap

    def __post_init__(self):
        if self.map.domain != moebius.DISC:
            raise DomainError("Mobius nodes must carry a disc automorphism")

    def eval(self, z: complex) -> complex:
        m = self.map
        return (m.a * z + m.b) / (m.c * z + m.d)

    def jet(self, z: complex):
        """(m(z), m'(z)) with the float operations of moebius.apply and moebius.deriv."""
        m = self.map
        den = m.c * z + m.d
        return (m.a * z + m.b) / den, (m.a * m.d - m.b * m.c) / (den * den)

    def matrix(self) -> MoebiusMap | None:
        return self.map


@dataclass(frozen=True)
class Compose:
    """Composition; parts[0] is applied last, parts[-1] first."""

    parts: tuple

    def __post_init__(self):
        ps = tuple(self.parts)
        if not ps:
            raise DomainError("compose needs at least one part")
        _require_nodes(ps, "compose parts")
        object.__setattr__(self, "parts", ps)

    def eval(self, z: complex) -> complex:
        for part in reversed(self.parts):
            z = part.eval(z)
        return z

    def jet(self, z: complex):
        d = 1.0 + 0.0j
        for part in reversed(self.parts):
            z, dp = part.jet(z)
            d *= dp
        return z, d

    def matrix(self) -> MoebiusMap | None:
        # every part answers before any product, so a part with no matrix
        # costs no moebius.compose
        ms = [part.matrix() for part in self.parts]
        if None in ms:
            return None
        acc = moebius.identity()
        for m in ms:
            acc = moebius.compose(acc, m)
        return acc


@dataclass(frozen=True)
class HalfPlaneAffine:
    """The half-plane map w |-> scale * w + translation, seen on the disc.

    Requires a finite translation with Im >= 0 and a finite scale > 0,
    which make the map a self-map of the upper half-plane.  It is stored
    as a disc-side matrix map through the Cayley transform, tagged DISC
    (an automorphism) when Im(translation) <= _AUTO_EPS, GENERIC
    otherwise, and evaluated as a Mobius node evaluates its matrix.
    """

    translation: complex
    scale: float = 1.0
    map: MoebiusMap = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        t = complex(self.translation)
        s = float(self.scale)
        if not (cmath.isfinite(t) and t.imag >= 0):
            raise DomainError(f"half-plane translation needs to be finite with Im t >= 0: {t!r}")
        if not 0 < s < math.inf:
            raise DomainError(f"half-plane scale must be finite and positive: {s!r}")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "scale", s)
        m = moebius._matmul(
            moebius._matmul(moebius._CAYLEY, (s, t, 0.0, 1.0)), moebius._CAYLEY_ADJ
        )
        domain = moebius.DISC if t.imag <= _AUTO_EPS else moebius.GENERIC
        object.__setattr__(self, "map", MoebiusMap(*moebius._det1(*m), domain=domain))

    eval, jet, matrix = Mobius.eval, Mobius.jet, Mobius.matrix


MapExpr = Union[Monomial, Scale, Blaschke, Constant, Mobius, Compose, HalfPlaneAffine]


def _require_nodes(parts: tuple, what: str) -> None:
    """DomainError unless every entry of parts is a map node."""
    kinds = get_args(MapExpr)
    for p in parts:
        if not isinstance(p, kinds):
            raise DomainError(f"{what} must be map nodes, got {p!r}")


def identity_map() -> MapExpr:
    return Mobius(moebius.identity())


def eval_raw(f: MapExpr, z: complex) -> complex:
    """f(z); callers guarantee z is interior."""
    return f.eval(z)


def derivative(f: MapExpr, z) -> complex:
    return _deriv_raw(f, complex(z))


def _deriv_raw(f: MapExpr, z: complex) -> complex:
    return f.jet(z)[1]


def distortion(f: MapExpr, z) -> float:
    """Hyperbolic distortion f#(z), clamped to [0, 1].

    z is validated as an interior disc point (DomainError otherwise) and
    f is walked once, by one jet at z.  Callers that need f(z) or f'(z)
    as well take that jet themselves, validate z the same way, and pass
    it to _distortion_from_jet.
    """
    zv = disc_point(z)
    return _distortion_from_jet(zv, *f.jet(zv))


def _distortion_from_jet(z: complex, w: complex, d: complex) -> float:
    """f#(z) from the jet (w, d) = (f(z), f'(z)) at an interior point z.

    Clamped to [0, 1]; raises ConsistencyError when w is not inside the
    disc or the value exceeds 1 by more than rounding can explain.
    """
    den = 1.0 - abs(w) ** 2
    if den <= 0.0:
        raise ConsistencyError(f"self-map evaluation left the disc at {z!r}")
    val = abs(d) * (1.0 - abs(z) ** 2) / den
    # 1 - |z|^2 loses relative accuracy like eps/(1 - |z|) near the unit
    # circle, so the over-unity tolerance has to widen with it; a genuine
    # violation overshoots by orders of magnitude more
    tol = 1e-9 + 64.0 * _EPS / min(den, 1.0 - abs(z) ** 2)
    if val > 1.0 + tol:
        raise ConsistencyError(f"distortion {val!r} above 1 at {z!r}")
    return min(max(val, 0.0), 1.0)


def as_automorphism(f: MapExpr):
    """The MoebiusMap equal to f when f is structurally a disc automorphism."""
    m = f.matrix()
    return m if m is not None and m.domain == moebius.DISC else None


def _as_constant(f: MapExpr):
    if isinstance(f, Constant):
        return f.value
    if isinstance(f, Compose) and any(_as_constant(p) is not None for p in f.parts):
        return eval_raw(f, 0j)
    return None


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


def polish_fixed_point(f: MapExpr, z0: complex) -> complex:
    """Newton refinement of an interior fixed point of f: at most 60 steps,
    stopping once a step is below 1e-14."""
    z = complex(z0)
    for _ in range(60):
        fz, d = f.jet(z)
        dz = d - 1.0
        if abs(dz) < 1e-14:
            break
        step = (fz - z) / dz
        z = z - step
        if abs(step) < 1e-14:
            break
    return z


_DW_SEEDS = (0.0 + 0.0j, 0.35 + 0.0j, -0.4 + 0.25j, -0.3j)
_DW_BUDGET = 20000  # iterations per seed before an orbit must have settled
_RADIAL_R = (0.9, 0.99, 0.999, 0.9999)  # approaching 1 at rate 10


def _richardson(values) -> float:
    """Richardson extrapolation of values taken at the radii _RADIAL_R."""
    t = list(values)
    n = len(t)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            t[i] = (10.0**j * t[i] - t[i - 1]) / (10.0**j - 1.0)
    return t[-1]


def _angular_multiplier(f: MapExpr, tau: complex) -> float:
    qs = [(1.0 - abs(eval_raw(f, r * tau))) / (1.0 - r) for r in _RADIAL_R]
    return _richardson(qs)


def _boundary_direction(f: MapExpr, seed: complex):
    """Follow an orbit toward the boundary; extrapolate its direction.

    Returns (tau, converged_interior_point).  Exactly one slot is set.
    """
    z = seed
    checkpoints = {}
    marks = (_DW_BUDGET // 4, _DW_BUDGET // 2, _DW_BUDGET)
    for n in range(1, _DW_BUDGET + 1):
        z1 = eval_raw(f, z)
        if abs(z1 - z) < 1e-15 and abs(z1) < 0.999:
            return None, z1
        z = z1
        if n in marks:
            checkpoints[n] = z
    r = abs(z)
    if r < 0.999:
        raise InconclusiveError(
            f"orbit from {seed!r} settled nowhere within budget {_DW_BUDGET}",
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


def denjoy_wolff(f: MapExpr) -> DWReport:
    """Locate and classify the Denjoy-Wolff point of a self-map.

    Automorphisms are classified exactly through their matrices; strict
    contractions by iteration plus a Newton polish; boundary cases by the
    radial quotient (1 - |f(r tau)|)/(1 - r) extrapolated in r, parabolic
    when that multiplier lies within 1e-3 of 1.
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
        tau, interior = _boundary_direction(f, seed)
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
        kind = "parabolic" if mult >= 1.0 - 1e-3 else "hyperbolic"
        return DWReport(kind, tau, mult)

    raise InconclusiveError(
        "seeds split between interior and boundary behaviour",
        partial={"taus": taus, "interiors": interiors},
    )


def map_from_json(obj: dict) -> MapExpr:
    if not isinstance(obj, dict):
        raise ValueError(f"a map must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    try:
        return _map_from_json(kind, obj)
    except KeyError as e:
        raise ValueError(f"{kind} map lacks required key {e.args[0]!r}") from None


def _map_from_json(kind, obj: dict) -> MapExpr:
    if kind == "monomial":
        return Monomial(obj["power"])
    if kind == "scale":
        return Scale(json_point(obj["factor"], "scale factor"))
    if kind == "blaschke":
        zeros = tuple(json_point(z, "blaschke zero") for z in json_array(obj["zeros"], "blaschke zeros"))
        return Blaschke(zeros, json_number(obj.get("phase", 0.0), "blaschke phase"))
    if kind == "constant":
        return Constant(json_point(obj["value"], "constant value"))
    if kind == "mobius":
        return Mobius(moebius.from_json(obj))
    if kind == "compose":
        return Compose(tuple(map_from_json(p) for p in json_array(obj["parts"], "compose parts")))
    if kind == "hp_affine":
        t = json_point(obj["translation"], "hp_affine translation")
        return HalfPlaneAffine(t, json_number(obj.get("scale", 1.0), "hp_affine scale"))
    raise ValueError(f"unknown map kind: {kind!r}")
