"""Fractional-linear maps: structure validation, composition, roots."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import holomap, ifs, moebius, straighten
from ifslab.geometry import disc_distance
from ifslab.moebius import (
    DISC,
    GENERIC,
    HALF_PLANE,
    MoebiusMap,
    NonAutomorphismError,
    apply,
    canonical,
    classify_auto,
    compose,
    deriv,
    identity,
    inverse,
    kth_root,
    make_disc_auto,
    matrix_distance,
    power,
    random_disc_auto,
    to_disc,
    translate_to_zero,
)


def autos():
    # hypothesis strategy: seeded deterministic automorphisms
    return st.integers(min_value=0, max_value=10_000).map(
        lambda s: random_disc_auto(random.Random(s))
    )


def disc_pts(r=0.95):
    return st.builds(
        cmath.rect,
        st.floats(min_value=0.0, max_value=r),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )


def hyperbolic_along_real(t: float) -> MoebiusMap:
    return MoebiusMap(math.cosh(t), math.sinh(t), math.sinh(t), math.cosh(t), DISC)


def test_identity():
    g = identity()
    assert apply(g, 0.3 + 0.1j) == 0.3 + 0.1j
    assert deriv(g, 0.5) == 1.0


def test_make_disc_auto_normalization():
    g = make_disc_auto(0.3 + 0.4j, 1.1)
    assert apply(g, 0.0) == pytest.approx(cmath.exp(1.1j) * (0.3 + 0.4j), abs=1e-15)


def test_translate_to_zero():
    w = 0.4 - 0.2j
    g = translate_to_zero(w)
    assert apply(g, w) == pytest.approx(0.0, abs=1e-15)


def test_structure_validation():
    with pytest.raises(NonAutomorphismError):
        MoebiusMap(2.0, 0.0, 0.0, 1.0, DISC)  # not SU(1,1) up to scalar
    with pytest.raises(NonAutomorphismError):
        MoebiusMap(1.0, 2.0, 2.0, 4.0, GENERIC)  # singular
    with pytest.raises(NonAutomorphismError):
        MoebiusMap(1j, 0.0, 0.0, 1.0, HALF_PLANE)  # not real up to phase


def test_structure_check_holds_at_large_entries():
    # a true automorphism with entries of about 30 passes the public check
    g = power(random_disc_auto(random.Random(8487), 0.9), 7)
    assert max(abs(e) for e in g.entries()) > 10.0
    assert MoebiusMap(*g.entries(), DISC).entries() == g.entries()
    assert classify_auto(g).kind == classify_auto(random_disc_auto(random.Random(8487), 0.9)).kind
    # and it stays sharp there: a relative 1e-8 change of one entry is caught
    a, b, c, d = g.entries()
    with pytest.raises(NonAutomorphismError):
        MoebiusMap(a, b, c, d * (1.0 + 1e-8), DISC)
    with pytest.raises(NonAutomorphismError):
        MoebiusMap(a, b, c * (1.0 + 1e-8j), d, DISC)
    with pytest.raises(NonAutomorphismError):
        MoebiusMap(b, a, d, c, DISC)  # |a| < |b| maps the disc to its outside


@given(autos(), disc_pts())
def test_apply_stays_in_disc(g, z):
    assert abs(apply(g, z)) < 1.0


@given(autos(), autos(), disc_pts())
def test_compose_is_application_order(g, h, z):
    assert apply(compose(g, h), z) == pytest.approx(apply(g, apply(h, z)), abs=1e-12)


@given(autos())
def test_inverse_composes_to_identity(g):
    assert matrix_distance(compose(g, inverse(g)), identity()) < 1e-12


@given(autos(), disc_pts(0.9), disc_pts(0.9))
def test_autos_are_isometries(g, z, w):
    d0 = disc_distance(z, w)
    d1 = disc_distance(apply(g, z), apply(g, w))
    assert d1 == pytest.approx(d0, abs=1e-9)


@given(autos(), disc_pts(0.9))
def test_deriv_matches_difference_quotient(g, z):
    h = 1e-7
    num = (apply(g, z + h) - apply(g, z - h)) / (2.0 * h)
    assert deriv(g, z) == pytest.approx(num, rel=1e-5, abs=1e-8)


def _centred_autos(max_center=0.9):
    return st.integers(min_value=0, max_value=10_000).map(
        lambda s: random_disc_auto(random.Random(s), max_center)
    )


@given(
    _centred_autos(),
    _centred_autos(),
    st.integers(min_value=1, max_value=64),
    # powers up to 12 of centre-0.9 maps reach entries of ~1e3; the public
    # check is scale-free, so it accepts them all
    st.integers(min_value=-12, max_value=12),
    disc_pts(0.9),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_trusted_derivations_pass_the_public_check(g, h, k, p, z0, theta):
    maps = [
        compose(g, h),
        inverse(g),
        canonical(compose(h, g)),
        power(g, p),
        kth_root(g, k),
        make_disc_auto(z0, theta),
        translate_to_zero(z0),
        holomap.Blaschke((z0,), theta).matrix(),
    ]
    u = cmath.exp(1j * theta)
    if abs(u) <= 1.0:  # Scale takes |factor| <= 1 only
        maps.append(holomap.Scale(u).matrix())
    for m in maps:
        assert m.domain == DISC
        MoebiusMap(*m.entries(), m.domain)  # raises NonAutomorphismError if not SU(1,1)


def test_straightener_gammas_pass_the_public_check():
    # the straighteners build each gamma_n trusted, from an orbit point and
    # a unit phase; the public check must still accept it, and every entry
    # must be complex, or to_json would write an integer imaginary part
    hyperbolic = ifs.GeneratorStream.from_cycle([holomap.Mobius(MoebiusMap(1.25, 0.75, 0.75, 1.25, DISC))])
    scale_product = ifs.GeneratorStream.from_rule(lambda n: holomap.Scale(1.0 - 1.0 / (n + 1) ** 2))
    squaring = ifs.GeneratorStream.from_cycle([holomap.Monomial(2)])
    orbit = ifs.BackwardOrbit(tuple(0.5 ** (2.0 ** -n) for n in range(31)))
    runs = [
        straighten.left_straighten(scale_product, 200),
        straighten.left_straighten(hyperbolic, 200),
        straighten.right_straighten(squaring, orbit),
    ]
    for res in runs:
        assert len(res.gammas) > 1
        for g in res.gammas:
            assert g.domain == DISC
            assert all(type(e) is complex for e in g.entries())
            MoebiusMap(*g.entries(), "disc")


def test_identity_is_shared_and_frozen():
    for tag in (DISC, HALF_PLANE, GENERIC):
        assert identity(tag) is identity(tag)
        assert identity(tag).domain == tag
    assert identity() is identity(DISC)
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        identity().a = 2.0
    assert identity().entries() == (1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        identity("nowhere")


def test_make_disc_auto_rejects_a_non_finite_angle():
    with pytest.raises(ValueError):
        make_disc_auto(0.2, math.nan)


def test_classify_rotation():
    g = make_disc_auto(0.0, 0.9)
    c = classify_auto(g)
    assert c.kind == "elliptic"
    assert c.fixed_points[0] == pytest.approx(0.0, abs=1e-12)
    assert c.multipliers[0] == pytest.approx(cmath.exp(0.9j), abs=1e-12)


def test_classify_identity():
    assert classify_auto(identity()).kind == "identity"


def test_classify_hyperbolic_translation_length():
    g = hyperbolic_along_real(0.7)
    c = classify_auto(g)
    assert c.kind == "hyperbolic"
    assert c.translation_length == pytest.approx(0.7, abs=1e-12)
    # the axis passes through 0, so the displacement there is the length
    assert disc_distance(0.0, apply(g, 0.0)) == pytest.approx(0.7, abs=1e-12)
    assert sorted(abs(p) for p in c.fixed_points) == pytest.approx([1.0, 1.0])
    assert abs(c.multipliers[0]) < 1.0  # attracting first


def test_classify_parabolic():
    shift = MoebiusMap(1.0, 1.0, 0.0, 1.0, HALF_PLANE)  # w + 1
    c = classify_auto(to_disc(shift))
    assert c.kind == "parabolic"
    assert abs(c.fixed_points[0]) == pytest.approx(1.0, abs=1e-12)


@given(autos(), disc_pts(0.9))
def test_hyperbolic_displacement_bounded_below(g, z):
    c = classify_auto(g)
    if c.kind == "hyperbolic":
        assert disc_distance(z, apply(g, z)) >= c.translation_length - 1e-9


@pytest.mark.parametrize("k", [1, 2, 3, 7, 50])
def test_kth_root_of_hyperbolic(k):
    g = hyperbolic_along_real(0.9)
    r = kth_root(g, k)
    assert matrix_distance(power(r, k), g) < 1e-11
    assert classify_auto(r).translation_length == pytest.approx(0.9 / k, abs=1e-10)


@pytest.mark.parametrize("k", [2, 5, 16])
def test_kth_root_of_elliptic(k):
    g = make_disc_auto(0.2 + 0.1j, 2.0)
    r = kth_root(g, k)
    assert matrix_distance(power(r, k), g) < 1e-11


@pytest.mark.parametrize("k", [2, 9])
def test_kth_root_of_parabolic(k):
    g = to_disc(MoebiusMap(1.0, 1.0, 0.0, 1.0, HALF_PLANE))
    r = kth_root(g, k)
    assert matrix_distance(power(r, k), g) < 1e-11
    assert classify_auto(r).kind == "parabolic"


@pytest.mark.parametrize("k", [1, 2, 5])
def test_kth_root_of_half_plane_map_with_negative_trace(k):
    # w |-> (w - 3)/2, whose real det-1 representative has trace -3/sqrt(2):
    # the root flips its sign and stays in the half-plane's real matrices
    g = MoebiusMap(-1.0, 3.0, 0.0, -2.0, HALF_PLANE)
    r = kth_root(g, k)
    assert r.domain == HALF_PLANE and (r.a + r.d).real > 0
    assert matrix_distance(power(r, k), g) < 1e-11


def test_kth_root_tends_to_identity():
    g = make_disc_auto(0.5, 0.3)
    gaps = [matrix_distance(kth_root(g, k), identity()) for k in (1, 4, 16, 64)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.05


def test_power_matches_repeated_compose():
    g = make_disc_auto(0.3, 0.8)
    acc = identity()
    for _ in range(5):
        acc = compose(g, acc)
    assert matrix_distance(power(g, 5), acc) < 1e-12
    assert matrix_distance(power(g, -2), inverse(compose(g, g))) < 1e-12


def test_canonical_kills_scalar():
    g = make_disc_auto(0.3, 0.4)
    h = MoebiusMap(3j * g.a, 3j * g.b, 3j * g.c, 3j * g.d, DISC)
    assert matrix_distance(canonical(g), canonical(h)) < 1e-14


def test_halfplane_transport_conjugates_action():
    w = 0.5 + 2.0j
    for g in (MoebiusMap(1.0, 3.0, 0.0, 1.0, HALF_PLANE), MoebiusMap(2.0, 1.0, 1.0, 1.0, HALF_PLANE)):
        lhs = apply(g, w)
        # through the disc: Cayley, act, Cayley back
        h = to_disc(g)
        assert h.domain == DISC and to_disc(h) is h
        z = (w - 1j) / (w + 1j)
        z2 = apply(h, z)
        rhs = 1j * (1.0 + z2) / (1.0 - z2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize(
    "matrix, domain",
    [
        ([[1, 0], [0.5, 0], [0.5, 0], [1, 0]], DISC),
        ([[2, 0], [1, 0], [0, 0], [1, 0]], HALF_PLANE),
        ([[0, 0], [1, 0], [1, 0], [0, 0]], GENERIC),  # z |-> 1/z reverses the half-plane
    ],
)
def test_json_without_a_domain_infers_it(matrix, domain):
    assert moebius.from_json({"kind": "mobius", "matrix": matrix}).domain == domain


@given(autos())
def test_json_roundtrip(g):
    h = moebius.from_json(moebius.to_json(g))
    assert h.domain == g.domain
    assert matrix_distance(g, h) == 0.0


def test_random_disc_auto_is_seed_deterministic():
    a = random_disc_auto(random.Random(123))
    b = random_disc_auto(random.Random(123))
    assert a.entries() == b.entries()
