"""Hyperbolic geometry on the unit disc and the upper half-plane.

Metric convention used throughout the package: the density on the disc is
1/(1 - |z|^2), so the distance is

    omega(z, w) = atanh( |z - w| / |1 - z*conj(w)| ),

and omega(0, r) = atanh(r) for 0 <= r < 1.  This is the curvature -4
normalisation; several textbooks use twice the density (curvature -1),
which doubles every distance below.  The half-plane inherits the metric
through the Cayley transform, giving density 1/(2 Im z) there, and

    sinh omega(z, w) = |z - w| / (2 sqrt(Im z) sqrt(Im w)),

which halfplane_distance computes directly.  Equivalent forms on the
disc, kept as test oracles and not used in computation:

    sinh omega(z, w) = |z - w| / sqrt((1 - |z|^2)(1 - |w|^2))
    cosh omega(z, w) = |1 - z*conj(w)| / sqrt((1 - |z|^2)(1 - |w|^2))

Record is the package's one frozen value type, the base of every map
node, Moebius map, stream, report and certificate.  Its rule: the fields
of a class are the names annotated in its body, in order, after its base
class's fields, and a class-level value is that field's default; an
instance takes them by position or keyword, cannot be changed once
built, and is equal to, hashes as and prints as its class and field
tuple, as a frozen dataclass does.  The rule is written once, here, so
defining a record class generates no code.
"""

from __future__ import annotations

import cmath
import math
import sys

EPS_BOUNDARY = 1e-13

# machine epsilon, 2**-52: the gap between 1.0 and the next double (twice
# the unit roundoff); the rounding-noise floors of the ledgers scale with it
_EPS = sys.float_info.epsilon

_RHO_CAP = 1.0 - 1e-16


class DomainError(ValueError):
    """A point fell outside its required domain."""


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of an attribute of a Record."""


class Record:
    """A frozen record of the fields its class annotates (see the module
    docstring).

    __init__ stores the fields with object.__setattr__, which keeps the
    instance's compact attribute storage, then calls __post_init__, which
    may check them and store normalised values the same way.  Code that
    builds an instance without its checks does so with object.__new__ and
    object.__setattr__, and sets every field.
    """

    _fields = ()  # the field names, in order
    _defaults = {}  # field name -> default, for the fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # cls.__annotations__ is the class body's own (Python 3.10 on)
        fields = cls._fields + tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._fields = fields
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)} positional arguments")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__} got field {name!r} both by position and by keyword")
            given[name] = value
        for name in fields:
            if name in given:
                value = given[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the stored fields; a subclass's own rule."""

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{n}={getattr(self, n)!r}" for n in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class HyperbolicBall(Record):
    """Closed hyperbolic ball {z : omega(center, z) <= radius}."""

    center: complex
    radius: float

    def __post_init__(self):
        c = complex(self.center)
        if not abs(c) < 1.0 - EPS_BOUNDARY:
            raise DomainError(f"ball center outside the disc: {c!r}")
        if not 0.0 <= self.radius < math.inf:
            raise DomainError(f"ball radius must be finite and >= 0, got {self.radius!r}")
        object.__setattr__(self, "center", c)


def disc_point(z) -> complex:
    """Validate z as an interior disc point and return it as complex."""
    v = complex(z)
    if not abs(v) < 1.0 - EPS_BOUNDARY:
        raise DomainError(f"not an interior disc point: {v!r}")
    return v


def json_number(v, what: str) -> float:
    """A JSON number (an int or a float, never a bool) as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DomainError(f"{what} must be a number: {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise DomainError(f"{what} must convert to a float, got {v.bit_length()} bits") from None


def json_array(v, what: str, size: int | None = None) -> list:
    """A JSON array, of size items when size is given."""
    if not isinstance(v, list) or size not in (None, len(v)):
        items = "" if size is None else f" of {size} items"
        raise DomainError(f"{what} must be a JSON array{items}: {v!r}")
    return v


def json_point(v, what: str) -> complex:
    """A JSON [re, im] pair of numbers as a complex."""
    re, im = json_array(v, what, 2)
    return complex(json_number(re, what), json_number(im, what))


def halfplane_point(z) -> complex:
    """Validate z as an interior half-plane point and return it as complex."""
    v = complex(z)
    if not (v.imag > EPS_BOUNDARY and cmath.isfinite(v)):
        raise DomainError(f"not an interior half-plane point: {v!r}")
    return v


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


def cayley(z) -> complex:
    """Cayley transform H+ -> D, z |-> (z - i)/(z + i)."""
    v = halfplane_point(z)
    return (v - 1j) / (v + 1j)


def cayley_inv(w) -> complex:
    """Inverse Cayley transform D -> H+, w |-> i(1 + w)/(1 - w)."""
    v = disc_point(w)
    return 1j * (1.0 + v) / (1.0 - v)


def halfplane_distance(z, w) -> float:
    """Hyperbolic distance on H+, by the sinh form in the half-plane itself.

    Both heights enter as separate square roots, and both points are
    first scaled by 1/4 (an isometry of H+, exact in floating point), so
    neither the heights' product nor |z - w| overflows for finite input.
    """
    zv, wv = halfplane_point(z) / 4, halfplane_point(w) / 4
    return math.asinh(abs(zv - wv) / (2.0 * math.sqrt(zv.imag) * math.sqrt(wv.imag)))
