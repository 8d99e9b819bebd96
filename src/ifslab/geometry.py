"""Hyperbolic geometry on the unit disc and the upper half-plane.

Metric convention used throughout the package: the density on the disc is
1/(1 - |z|^2), so the distance is

    omega(z, w) = atanh( |z - w| / |1 - z*conj(w)| ),

and omega(0, r) = atanh(r) for 0 <= r < 1.  This is the curvature -4
normalisation; several textbooks use twice the density (curvature -1),
which doubles every distance below.  The half-plane inherits the metric
through the Cayley transform, giving density 1/(2 Im z) there.

Useful equivalent forms (kept as test oracles, not used in computation):

    sinh omega(z, w) = |z - w| / sqrt((1 - |z|^2)(1 - |w|^2))
    cosh omega(z, w) = |1 - z*conj(w)| / sqrt((1 - |z|^2)(1 - |w|^2))
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

EPS_BOUNDARY = 1e-13

# machine epsilon, 2**-52: the gap between 1.0 and the next double (twice
# the unit roundoff); the rounding-noise floors of the ledgers scale with it
_EPS = sys.float_info.epsilon

# Clamped points are pulled to this radius, strictly inside the admissible
# region so the DiscPoint constructor accepts them.
_CLAMP_RADIUS = 1.0 - 1e-12

_RHO_CAP = 1.0 - 1e-16


class DomainError(ValueError):
    """A point fell outside its required domain."""


def _cx(z) -> complex:
    """Unwrap DiscPoint/HalfPlanePoint to a plain complex number."""
    v = getattr(z, "value", z)
    return complex(v)


@dataclass(frozen=True)
class DiscPoint:
    """A point of the open unit disc, kept strictly inside the boundary.

    Construction rejects values with |value| >= 1 - EPS_BOUNDARY.  The
    `clamped` flag marks points that were pulled back from the boundary by
    an evaluator; it does not take part in equality.
    """

    value: complex
    clamped: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "value", disc_point(self.value))


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point of the open upper half-plane, Im(value) > EPS_BOUNDARY."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if not v.imag > EPS_BOUNDARY:
            raise DomainError(f"not an interior half-plane point: {v!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class HyperbolicBall:
    """Closed hyperbolic ball {z : omega(center, z) <= radius}."""

    center: complex
    radius: float

    def __post_init__(self):
        c = _cx(self.center)
        if not abs(c) < 1.0 - EPS_BOUNDARY:
            raise DomainError(f"ball center outside the disc: {c!r}")
        if not 0.0 <= self.radius < math.inf:
            raise DomainError(f"ball radius must be finite and >= 0, got {self.radius!r}")
        object.__setattr__(self, "center", c)


def disc_point(z) -> complex:
    """Validate z as an interior disc point and return it as complex."""
    if isinstance(z, DiscPoint):
        return z.value
    v = _cx(z)
    if not abs(v) < 1.0 - EPS_BOUNDARY:
        raise DomainError(f"not an interior disc point: {v!r}")
    return v


def halfplane_point(z) -> complex:
    if isinstance(z, HalfPlanePoint):
        return z.value
    return HalfPlanePoint(_cx(z)).value


def clamp_to_disc(value: complex) -> DiscPoint:
    """Return value as a DiscPoint, pulling boundary-grazing values inside.

    The returned point carries clamped=True when it was moved.
    """
    v = complex(value)
    r = abs(v)
    if r < 1.0 - EPS_BOUNDARY:
        return DiscPoint(v)
    return DiscPoint(v * (_CLAMP_RADIUS / r), clamped=True)


def _omega_raw(z: complex, w: complex) -> float:
    # Interior-point precondition is the caller's job; the cap only absorbs
    # last-bit rounding when both points graze the boundary.
    rho = abs(z - w) / abs(1.0 - z * w.conjugate())
    if rho >= 1.0:
        rho = _RHO_CAP
    return math.atanh(rho)


def disc_distance(z, w) -> float:
    """Hyperbolic distance between two interior points of the disc."""
    return _omega_raw(disc_point(z), disc_point(w))


def cayley(z) -> DiscPoint:
    """Cayley transform H+ -> D, z |-> (z - i)/(z + i)."""
    v = halfplane_point(z)
    return DiscPoint((v - 1j) / (v + 1j))


def cayley_inv(w) -> HalfPlanePoint:
    """Inverse Cayley transform D -> H+, w |-> i(1 + w)/(1 - w)."""
    v = disc_point(w)
    return HalfPlanePoint(1j * (1.0 + v) / (1.0 - v))


def halfplane_distance(z, w) -> float:
    """Hyperbolic distance on H+, computed as the disc distance of images."""
    return _omega_raw(cayley(z).value, cayley(w).value)
