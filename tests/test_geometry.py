"""Hyperbolic distance, Cayley transform, and point validation."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from ifslab import geometry
from ifslab.geometry import (
    DomainError,
    cayley,
    cayley_inv,
    disc_distance,
    disc_point,
    halfplane_distance,
    halfplane_point,
    json_number,
    json_point,
)

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
