"""Hyperbolic distance, Cayley transform, and point validation."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from ifslab import bounds, criteria, geometry, moebius
from ifslab.geometry import (
    DomainError,
    FrozenInstanceError,
    Record,
    cayley,
    cayley_inv,
    disc_distance,
    disc_point,
    halfplane_distance,
    halfplane_point,
    json_number,
    json_point,
)
from ifslab.holomap import Blaschke, Compose, Constant, HalfPlaneAffine, Mobius, Monomial, Scale

ATANH_HALF = 0.5493061443340548  # atanh(0.5)
HALF_LOG_TWO = 0.34657359027997264  # log(2)/2


def disc_points(max_radius=0.999):
    return st.builds(
        cmath.rect,
        st.floats(min_value=0.0, max_value=max_radius),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )


def test_distance_to_origin_is_atanh():
    assert disc_distance(0.0, 0.5) == pytest.approx(ATANH_HALF, abs=1e-15)
    assert disc_distance(0.5j, 0.0) == pytest.approx(ATANH_HALF, abs=1e-15)


def test_distance_formula_against_direct_evaluation():
    z, w = 0.3 + 0.2j, -0.4 + 0.1j
    rho = abs(z - w) / abs(1.0 - z * w.conjugate())
    assert disc_distance(z, w) == pytest.approx(math.atanh(rho), rel=1e-14)


def test_density_convention():
    # curvature -4 normalization: density 1/(1 - |z|^2), so 1 at the origin
    h = 1e-7
    assert disc_distance(0.0, h) / h == pytest.approx(1.0, rel=1e-12)
    assert disc_distance(0.6, 0.6 + h) / h == pytest.approx(1.0 / (1.0 - 0.36), rel=1e-6)


def test_halfplane_vertical_geodesic():
    assert halfplane_distance(1j, 2j) == pytest.approx(HALF_LOG_TWO, abs=1e-15)
    assert halfplane_distance(5.0 + 1j, 5.0 + 4j) == pytest.approx(math.log(4.0) / 2.0, rel=1e-13)


@given(disc_points(), disc_points())
def test_distance_symmetry(z, w):
    assert disc_distance(z, w) == pytest.approx(disc_distance(w, z), abs=1e-12)


@given(disc_points(0.99), disc_points(0.99), disc_points(0.99))
def test_triangle_inequality(z, w, u):
    lhs = disc_distance(z, w)
    rhs = disc_distance(z, u) + disc_distance(u, w)
    assert lhs <= rhs + 1e-9


@given(disc_points(0.95), disc_points(0.95))
def test_distance_positive_definite(z, w):
    d = disc_distance(z, w)
    assert d >= 0.0
    if z == w:
        assert d == 0.0


@given(disc_points(0.98))
def test_cayley_roundtrip(z):
    w = cayley_inv(z)
    assert w.imag > 0
    back = cayley(w)
    assert abs(back - z) < 1e-9


@given(disc_points(0.95), disc_points(0.95))
def test_cayley_is_isometry(z, w):
    hz, hw = cayley_inv(z), cayley_inv(w)
    assert halfplane_distance(hz, hw) == pytest.approx(disc_distance(z, w), abs=1e-9)


def test_disc_point_rejects_boundary():
    with pytest.raises(DomainError):
        disc_point(1.0)
    with pytest.raises(DomainError):
        disc_point(0.8 + 0.7j)


def test_halfplane_point_rejects_lower():
    with pytest.raises(DomainError):
        halfplane_point(1.0 - 0.1j)
    with pytest.raises(DomainError):
        halfplane_point(2.0)


def test_json_number_takes_ints_and_floats_only():
    assert json_number(2, "x") == 2.0 and type(json_number(2, "x")) is float
    assert json_number(-0.0, "x") == 0.0 and math.copysign(1.0, json_number(-0.0, "x")) < 0
    assert json_point([1, -0.5], "x") == complex(1.0, -0.5)
    for bad in (True, False, "0.5", None, [1.0], 10 ** 400):
        with pytest.raises(DomainError, match="^x must"):
            json_number(bad, "x")
    with pytest.raises(DomainError, match="^x must be a number: False"):
        json_point([0.5, False], "x")


def test_cayley_returns_plain_complex():
    assert cayley(1j) == 0
    assert type(cayley(1j)) is complex and type(cayley_inv(0.5)) is complex


@pytest.mark.parametrize("x", [1e3, 1e7, 1e8, 1e12])
def test_halfplane_distance_far_along_a_horocycle(x):
    # the independent cosh form: cosh 2 omega = 1 + |z - w|^2 / (2 Im z Im w)
    expect = 0.5 * math.acosh(1.0 + x * x / 2.0)
    assert halfplane_distance(1j, x + 1j) == pytest.approx(expect, rel=1e-14)
    assert halfplane_distance(x + 1j, 1j) == pytest.approx(expect, rel=1e-14)


def test_halfplane_distance_across_scales():
    # heights 1e-6 and 1e6 on one vertical line: omega = log(1e12) / 2
    assert halfplane_distance(1e-6j, 1e6j) == pytest.approx(6.0 * math.log(10.0), rel=1e-14)
    # |z - w| = 2e308 is past the largest float; omega = asinh(1e308)
    assert halfplane_distance(-1e308 + 1j, 1e308 + 1j) == pytest.approx(
        math.log(2.0) + 308.0 * math.log(10.0), rel=1e-14
    )
    with pytest.raises(DomainError):
        halfplane_distance(1j, complex(0.0, math.inf))


@given(disc_points(0.9999))
def test_distance_finite_near_boundary(z):
    d = disc_distance(0.0, z)
    assert math.isfinite(d)
    assert d <= math.atanh(geometry._RHO_CAP) + 1.0


# Record: the frozen-dataclass behaviour every map node, Moebius map,
# stream and report relies on, pinned against what @dataclass(frozen=True)
# gave them


class _Pair(Record):
    a: int
    b: int = 0


class _OtherPair(Record):
    a: int
    b: int = 0


class _Triple(_Pair):
    c: int = 5


def test_record_repr_matches_the_frozen_dataclass_repr():
    assert repr(Monomial(2)) == "Monomial(power=2)"
    assert repr(Scale(0.5)) == "Scale(factor=(0.5+0j))"
    assert repr(Blaschke((0.5,), 0.25)) == "Blaschke(zeros=((0.5+0j),), phase=0.25)"
    assert repr(Constant(0.2)) == "Constant(value=(0.2+0j))"
    assert repr(Mobius(moebius.identity())) == "Mobius(map=MoebiusMap(a=(1+0j), b=0j, c=0j, d=(1+0j), domain='disc'))"
    assert repr(Compose((Scale(0.5), Monomial(2)))) == "Compose(parts=(Scale(factor=(0.5+0j)), Monomial(power=2)))"
    assert repr(HalfPlaneAffine(1 + 0j)) == "HalfPlaneAffine(translation=(1+0j), scale=1.0)"
    assert repr(bounds.margin("euclid_gap", None, 0.0, 0.5)) == (
        "MarginReport(kind='euclid_gap', z=0j, w=(0.5+0j), lhs=0.5, rhs=1.333333333333333, "
        "margin=0.833333333333333, coefficient=2.0)"
    )
    assert repr(criteria.SERIES) == (
        "SeriesConfig(divergence_threshold=5.0, divergence_product_tol=0.001, summable_window=100, "
        "summable_tol=1e-05, product_cauchy_tol=1e-05)"
    )


def test_record_equality_and_hash_read_the_class_and_the_fields():
    assert _Pair(1, 2) == _Pair(a=1, b=2) == _Pair(1, b=2)
    assert hash(_Pair(1, 2)) == hash(_Pair(1, 2)) == hash((1, 2))
    assert _Pair(1, 2) != _Pair(1, 3)
    assert _Pair(1, 2) != _OtherPair(1, 2)  # same fields, another class
    assert _Pair(1, 0) != _Triple(1, 0)
    assert _Pair(1, 2) != (1, 2)
    assert Scale(0.5) == Scale(0.5 + 0j) and hash(Scale(0.5)) == hash(Scale(0.5 + 0j))
    assert Blaschke((0.5,)) == Blaschke([0.5], 0.0)
    assert len({Monomial(2), Monomial(2), Monomial(3)}) == 2


def test_record_is_frozen():
    p = _Pair(1, 2)
    for change in (lambda: setattr(p, "a", 3), lambda: setattr(p, "other", 3),
                   lambda: delattr(p, "a"), lambda: setattr(Scale(0.5), "factor", 0.25)):
        with pytest.raises(FrozenInstanceError) as e:
            change()
        assert isinstance(e.value, AttributeError)
    assert p == _Pair(1, 2) and not hasattr(p, "other")


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing field 'a'"),
    ((1, 2, 3), {}, "takes 2 fields, got 3 positional arguments"),
    ((1,), {"c": 3}, "no field 'c'"),
    ((1,), {"a": 1}, "field 'a' both by position and by keyword"),
])
def test_record_arguments_are_checked(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        _Pair(*args, **kwargs)


def test_record_defaults_and_post_init():
    seen = []

    class Checked(_Pair):
        def __post_init__(self):
            seen.append((self.a, self.b))
            object.__setattr__(self, "b", self.b * 10)

    assert _Pair(1).b == 0 and _Pair.b == 0
    assert Checked(1).b == 0 and Checked(b=2, a=1).b == 20
    assert seen == [(1, 0), (1, 2)]  # the stored values, defaults included
    ball = geometry.HyperbolicBall(0, 1.0)  # normalised in __post_init__
    assert type(ball.center) is complex


def test_record_subclass_fields_follow_the_base_fields():
    assert _Pair._fields == ("a", "b")
    assert _Triple._fields == ("a", "b", "c")
    t = _Triple(1, 2)
    assert (t.a, t.b, t.c) == (1, 2, 5)
    assert repr(t) == "_Triple(a=1, b=2, c=5)"
    assert HalfPlaneAffine._fields == ("translation", "scale")
    assert moebius.MoebiusMap._fields == ("a", "b", "c", "d", "domain")


def test_half_plane_affine_map_stays_out_of_equality_hash_and_repr():
    h = HalfPlaneAffine(0.5 + 0.25j, 2.0)
    other = object.__new__(HalfPlaneAffine)  # the same fields, another map
    for name, value in (("translation", h.translation), ("scale", h.scale), ("map", moebius.identity())):
        object.__setattr__(other, name, value)
    assert other.map != h.map
    assert other == h and hash(other) == hash(h) and repr(other) == repr(h)
    assert "map" not in repr(h)
