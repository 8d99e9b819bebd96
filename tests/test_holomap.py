"""Map expression trees: evaluation, derivatives, distortion, fixed points."""

import cmath
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import holomap, ifs, moebius
from ifslab.geometry import DomainError, HyperbolicBall, _omega_raw, disc_distance
from ifslab.holomap import (
    Blaschke,
    Compose,
    ConsistencyError,
    Constant,
    HalfPlaneAffine,
    Mobius,
    Monomial,
    Scale,
    as_automorphism,
    denjoy_wolff,
    derivative,
    distortion,
    identity_map,
    map_from_json,
    polish_fixed_point,
)

ATANH_08 = 1.0986122886681098  # atanh(0.8)


def disc_pts(r=0.9):
    return st.builds(
        cmath.rect,
        st.floats(min_value=0.0, max_value=r),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )


_RNG = random.Random(4)
# each sample map next to its JSON spec, written out by hand
SAMPLES = [
    (Monomial(2), {"kind": "monomial", "power": 2}),
    (Monomial(3), {"kind": "monomial", "power": 3}),
    (Scale(0.7), {"kind": "scale", "factor": [0.7, 0.0]}),
    (Scale(0.5j), {"kind": "scale", "factor": [0.0, 0.5]}),
    (Blaschke((0.3 + 0.1j, -0.2j), 0.4), {"kind": "blaschke", "zeros": [[0.3, 0.1], [0.0, -0.2]], "phase": 0.4}),
    (Blaschke((0.0, -0.5), 0.0), {"kind": "blaschke", "zeros": [[0.0, 0.0], [-0.5, 0.0]]}),
    (Mobius(moebius.random_disc_auto(_RNG)), {"kind": "mobius", "domain": "disc", "matrix": [
        [-0.7942128170326055, 0.607639696910211], [-0.3886736273836058, 0.0018944150622505485],
        [0.3098406983048628, -0.2346689564171475], [1.0, 0.0],
    ]}),
    (Mobius(moebius.random_disc_auto(_RNG)), {"kind": "mobius", "domain": "disc", "matrix": [
        [-0.8148523500650838, 0.5796685670220615], [-0.30862971351701785, 0.06268933918894128],
        [0.28782668677446904, -0.1278203884127031], [1.0, 0.0],
    ]}),
    (Compose((Scale(0.8), Monomial(2))),
     {"kind": "compose", "parts": [{"kind": "scale", "factor": [0.8, 0.0]}, {"kind": "monomial", "power": 2}]}),
    (Compose((Monomial(2), Mobius(moebius.make_disc_auto(0.3, 0.2)))),
     {"kind": "compose", "parts": [{"kind": "monomial", "power": 2}, {"kind": "mobius", "domain": "disc", "matrix": [
         [0.9800665778412416, 0.19866933079506122], [0.29401997335237245, 0.05960079923851836], [0.3, -0.0], [1.0, 0.0],
     ]}]}),
    (HalfPlaneAffine(1.0 + 0.5j), {"kind": "hp_affine", "translation": [1.0, 0.5]}),
    (HalfPlaneAffine(0.0 + 0.0j, 0.5), {"kind": "hp_affine", "translation": [0.0, 0.0], "scale": 0.5}),
    (Constant(0.2 + 0.1j), {"kind": "constant", "value": [0.2, 0.1]}),
]


def sample_maps():
    return st.sampled_from([f for f, _ in SAMPLES])


# maps whose matrix() is not None, with and without the DISC tag, and a
# constant scale whose matrix would be singular
_FRACTIONAL = [
    Monomial(1),
    Scale(1j),
    Scale(0.0),
    Blaschke((0.3,), 0.2),
    HalfPlaneAffine(1.0),
    HalfPlaneAffine(0.5 + 1e-16j),
    HalfPlaneAffine(2.0 + 1.0j, 0.5),
]


def nested_maps():
    return st.recursive(
        st.one_of(sample_maps(), st.sampled_from(_FRACTIONAL)),
        lambda parts: st.lists(parts, min_size=1, max_size=3).map(lambda ps: Compose(tuple(ps))),
        max_leaves=6,
    )


def test_node_validation():
    with pytest.raises(ValueError):
        Monomial(0)
    with pytest.raises((ValueError, DomainError)):
        Scale(1.5)
    with pytest.raises((ValueError, DomainError)):
        Blaschke((1.2,), 0.0)
    with pytest.raises((ValueError, DomainError)):
        Constant(1.0)
    with pytest.raises(ValueError):
        Compose(())
    with pytest.raises((ValueError, DomainError)):
        HalfPlaneAffine(0.0 - 1.0j)  # would push the half-plane downward
    with pytest.raises((ValueError, DomainError)):
        HalfPlaneAffine(0.0, -2.0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        lambda: Scale(nan),
        lambda: Blaschke((0.3,), nan),
        lambda: Monomial(True),
        lambda: map_from_json({"kind": "monomial", "power": 2.7}),
        lambda: map_from_json({"kind": "monomial", "power": True}),
        lambda: ifs.stream_from_json({"type": "rule", "name": "scale_product", "params": {"power": nan}}),
        lambda: ifs.stream_from_json({"type": "rule", "name": "scale_product", "params": {"power": inf}}),
        lambda: HyperbolicBall(0, inf),
        lambda: HalfPlaneAffine(complex(nan, 0.0)),
        lambda: HalfPlaneAffine(complex(inf, 1.0)),
        lambda: HalfPlaneAffine(0.0, inf),
        lambda: HalfPlaneAffine(0.0, nan),
        lambda: Compose((0.5,)),
        lambda: Compose((Scale(0.5), moebius.identity())),
        lambda: ifs.GeneratorStream.from_cycle([0.5]),
        lambda: ifs.GeneratorStream.from_list([Scale(0.5), None]),
        # non-finite matrix entries, under every domain tag; a half-plane
        # scale of 1e300 overflows the Cayley conjugation
        lambda: moebius.MoebiusMap(nan, 0.0, 0.0, 1.0),
        lambda: moebius.MoebiusMap(complex(inf, 0.0), 0.0, 0.0, 1.0),
        lambda: moebius.MoebiusMap(1.0, 0.0, 0.0, complex(0.0, nan), moebius.HALF_PLANE),
        lambda: moebius.MoebiusMap(1.0, 0.0, nan, 1.0, moebius.DISC),
        lambda: moebius.from_json({"kind": "mobius", "matrix": [[nan, nan]] * 4}),
        lambda: HalfPlaneAffine(1j, 1e300),
        lambda: HalfPlaneAffine(0.0, 1e300),
        lambda: map_from_json({"kind": "hp_affine", "translation": [0, 1], "scale": 1e300}),
        # a power that does not convert to a float
        lambda: Monomial(10**400),
        lambda: map_from_json({"kind": "monomial", "power": 10**400}),
    ):
        with pytest.raises(DomainError):
            bad()


def test_monomial_and_scale_evaluation():
    assert holomap.eval_raw(Monomial(3), 0.5) == 0.125
    assert holomap.eval_raw(Scale(0.5j), 0.4) == 0.2j


def test_compose_order():
    f = Compose((Scale(0.5), Monomial(2)))  # z |-> z^2 / 2, squaring first
    assert holomap.eval_raw(f, 0.6) == pytest.approx(0.18, abs=1e-15)


def test_blaschke_zero_set():
    f = Blaschke((0.3, -0.2 + 0.1j), 0.7)
    for z in f.zeros:
        assert abs(holomap.eval_raw(f, z)) < 1e-15


def test_halfplane_affine_action():
    # w |-> w + 1 on the half-plane, viewed through the Cayley transform
    f = HalfPlaneAffine(1.0)
    z = 0.2 + 0.1j
    w = 1j * (1.0 + z) / (1.0 - z)
    img = holomap.eval_raw(f, z)
    expect = (w + 1.0 - 1j) / (w + 1.0 + 1j)
    assert img == pytest.approx(expect, abs=1e-14)


@given(sample_maps(), disc_pts())
def test_self_map_property(f, z):
    assert abs(holomap.eval_raw(f, z)) < 1.0


@given(sample_maps(), disc_pts(0.8))
def test_derivative_matches_difference_quotient(f, z):
    h = 1e-6
    num = (holomap.eval_raw(f, z + h) - holomap.eval_raw(f, z - h)) / (2.0 * h)
    assert derivative(f, z) == pytest.approx(num, rel=5e-5, abs=1e-7)


@given(sample_maps(), disc_pts(0.9), disc_pts(0.9))
@settings(max_examples=200)
def test_schwarz_pick_contraction(f, z, w):
    # distances never expand under holomorphic self-maps
    d0 = disc_distance(z, w)
    d1 = disc_distance(holomap.eval_raw(f, z), holomap.eval_raw(f, w))
    assert d1 <= d0 + 1e-10


@given(sample_maps(), disc_pts(0.9))
def test_distortion_in_unit_interval(f, z):
    d = distortion(f, z)
    assert 0.0 <= d <= 1.0


@given(disc_pts(0.9))
def test_automorphism_distortion_is_one(z):
    g = Mobius(moebius.make_disc_auto(0.4 - 0.1j, 1.3))
    assert distortion(g, z) == pytest.approx(1.0, abs=1e-12)


def test_distortion_of_squaring():
    # f(z) = z^2 has f#(z) = 2|z|/(1 + |z|^2)
    for r in (0.0, 0.3, 0.8):
        assert distortion(Monomial(2), r) == pytest.approx(
            2.0 * r / (1.0 + r * r), abs=1e-14
        )


def _distortion_via_quotient(f, z, h):
    """Finite-difference distortion omega(f(z+h), f(z)) / omega(z+h, z)."""
    return _omega_raw(holomap.eval_raw(f, z + h), holomap.eval_raw(f, z)) / _omega_raw(z + h, z)


def test_distortion_quotient_consistency():
    f = Blaschke((0.3 + 0.1j, -0.2j), 0.4)
    z = 0.25 - 0.35j
    q = _distortion_via_quotient(f, z, 1e-5)
    assert q == pytest.approx(distortion(f, z), abs=1e-4)


def test_as_automorphism_recognizes_structure():
    assert as_automorphism(Monomial(1)) is not None
    assert as_automorphism(Monomial(2)) is None
    assert as_automorphism(Scale(1j)) is not None  # rotation
    assert as_automorphism(Scale(0.5)) is None
    assert as_automorphism(Blaschke((0.3,), 0.2)) is not None  # single factor
    assert as_automorphism(Blaschke((0.3, 0.1), 0.0)) is None
    assert as_automorphism(HalfPlaneAffine(1.0)) is not None
    comp = Compose((Scale(-1.0), Blaschke((0.2,), 0.0)))
    assert as_automorphism(comp) is not None
    # an imaginary part at rounding level still reads as a real translation
    near = HalfPlaneAffine(0.5 + 1e-16j)
    assert near.matrix().domain == moebius.DISC
    assert as_automorphism(near) is not None
    assert as_automorphism(HalfPlaneAffine(0.5 + 1e-14j)) is None


def test_polish_fixed_point():
    f = Compose((Mobius(moebius.make_disc_auto(0.1, 0.0)), Scale(0.5)))
    p = polish_fixed_point(f, 0.0)
    assert abs(holomap.eval_raw(f, p) - p) < 1e-14


def test_denjoy_wolff_superattracting():
    rep = denjoy_wolff(Monomial(2))
    assert rep.kind == "elliptic_strict"
    assert rep.point == pytest.approx(0.0, abs=1e-10)
    assert rep.multiplier == pytest.approx(0.0, abs=1e-10)


def test_denjoy_wolff_elliptic_auto():
    rep = denjoy_wolff(Scale(cmath.exp(0.7j)))
    assert rep.kind == "elliptic_auto"
    assert rep.point == pytest.approx(0.0, abs=1e-12)


def test_denjoy_wolff_hyperbolic_auto():
    g = Mobius(moebius.MoebiusMap(1.0, 0.5, 0.5, 1.0, moebius.DISC))
    rep = denjoy_wolff(g)
    assert rep.kind == "hyperbolic"
    assert abs(rep.point) == pytest.approx(1.0, abs=1e-12)
    assert rep.multiplier == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_denjoy_wolff_parabolic_auto():
    rep = denjoy_wolff(HalfPlaneAffine(1.0))  # w + 1 fixes infinity
    assert rep.kind == "parabolic"
    assert rep.point == pytest.approx(1.0, abs=1e-9)  # Cayley image of infinity
    assert rep.multiplier == pytest.approx(1.0, abs=1e-3)


def test_denjoy_wolff_boundary_non_auto():
    rep = denjoy_wolff(HalfPlaneAffine(1.0 + 1.0j))  # w + 1 + i, not an isometry
    assert rep.kind in ("parabolic", "hyperbolic")
    assert abs(rep.point) == pytest.approx(1.0, abs=1e-9)


def test_denjoy_wolff_constant():
    rep = denjoy_wolff(Constant(0.3j))
    assert rep.kind == "constant"
    assert rep.point == 0.3j


def test_denjoy_wolff_of_a_composition_through_a_constant():
    rep = denjoy_wolff(Compose((Scale(0.5), Constant(0.2), Monomial(2))))
    assert rep.kind == "constant"
    assert rep.point == 0.1


def test_json_specs_parse_to_the_sample_maps():
    for f, spec in SAMPLES:
        g = map_from_json(json.loads(json.dumps(spec)))
        assert g == f
        for z in (0.0, 0.3 + 0.2j, -0.5j):
            assert repr(g.jet(z)) == repr(f.jet(z))  # bit for bit, signed zeros too


def test_identity_map():
    f = identity_map()
    assert holomap.eval_raw(f, 0.37 - 0.21j) == 0.37 - 0.21j
    assert distortion(f, 0.5) == 1.0


def test_distortion_near_boundary_stays_clamped():
    # conditioning of 1 - |z|^2 degrades here; the clamp must absorb it
    g = Mobius(moebius.make_disc_auto(0.3, 0.0))
    z = (1.0 - 7.5e-9) * cmath.exp(2.1j)
    assert 0.0 <= distortion(g, z) <= 1.0


@given(nested_maps(), disc_pts())
def test_jet_value_is_eval_bit_for_bit(f, z):
    assert f.jet(z)[0] == f.eval(z)
    assert f.eval(z) == holomap.eval_raw(f, z)
    assert holomap._distortion_from_jet(z, *f.jet(z)) == distortion(f, z)


def _quadratic_blaschke_derivative(b, z):
    """B'(z) by the sum over j of the j-th factor's derivative times the
    other m - 1 factors: the O(m^2) formula the product rule replaced."""
    ph = cmath.exp(1j * b.phase)
    dens = [1.0 - zj.conjugate() * z for zj in b.zeros]
    vals = [(z - zj) / q for zj, q in zip(b.zeros, dens)]
    total = 0.0 + 0.0j
    for j, (zj, q) in enumerate(zip(b.zeros, dens)):
        dj = (1.0 - abs(zj) ** 2) / q ** 2
        rest = 1.0 + 0.0j
        for i, v in enumerate(vals):
            if i != j:
                rest *= v
        total += dj * rest
    return ph * total


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den


def _blaschke_derivative_terms(b, z):
    """The m terms ph (1 - |z_j|^2) / q_j^2 prod_{i != j} v_i of B'(z), in
    exact rational arithmetic on the float inputs and the float phase
    factor cmath.exp(1j * phase)."""
    zx = _exact(z)
    ph = _exact(cmath.exp(1j * b.phase))
    zs = [_exact(zj) for zj in b.zeros]
    qs = [(1 - (zj[0] * zx[0] + zj[1] * zx[1]), -(zj[0] * zx[1] - zj[1] * zx[0])) for zj in zs]
    vs = [_div((zx[0] - zj[0], zx[1] - zj[1]), q) for zj, q in zip(zs, qs)]
    terms = []
    for j, (zj, q) in enumerate(zip(zs, qs)):
        t = _mul(ph, _div((1 - zj[0] ** 2 - zj[1] ** 2, Fraction(0)), _mul(q, q)))
        for i, v in enumerate(vs):
            if i != j:
                t = _mul(t, v)
        terms.append(t)
    return terms


def _error(approx, exact):
    return abs(complex(float(Fraction(approx.real) - exact[0]), float(Fraction(approx.imag) - exact[1])))


@given(
    st.lists(
        st.builds(cmath.rect, st.floats(min_value=0.0, max_value=0.9999), st.floats(-math.pi, math.pi)),
        min_size=1,
        max_size=6,
    ),
    disc_pts(0.999999),
    st.floats(allow_nan=False, allow_infinity=False),
)
@settings(max_examples=300, deadline=None)
def test_blaschke_jet_product_rule_against_exact_reference(zeros, z, phase):
    # the O(m) product rule takes eval's float operations for the value,
    # and its derivative's error exceeds the O(m^2) formula's by at most
    # 2 m eps S, S the sum of the magnitudes of the exact terms of B'(z),
    # plus what gradual underflow adds: each real product or quotient may
    # also err by eps * tiny / 2 absolutely, the two formulas do at most
    # m (4 m + 64) of them, and each reaches the derivative with a gain of
    # at most 1 + sum_j |(1 - |z_j|^2) / q_j^2|. On the zeros drawn here
    # that term is below every normal float, so it leaves the relative
    # bound as it was on normal results and only covers derivatives that
    # underflow.
    b = Blaschke(tuple(zeros), phase)
    value, d = b.jet(z)
    ev = b.eval(z)
    assert (value.real.hex(), value.imag.hex()) == (ev.real.hex(), ev.imag.hex())
    terms = _blaschke_derivative_terms(b, z)
    exact = (sum(t[0] for t in terms), sum(t[1] for t in terms))
    scale = sum(abs(complex(float(t[0]), float(t[1]))) for t in terms)
    m = len(zeros)
    eps = sys.float_info.epsilon
    gain = 1.0 + sum((1.0 - abs(zj) ** 2) / abs(1.0 - zj.conjugate() * z) ** 2 for zj in b.zeros)
    underflow = m * (2 * m + 32) * gain * eps * sys.float_info.min
    assert _error(d, exact) <= _error(_quadratic_blaschke_derivative(b, z), exact) + 2 * m * eps * scale + underflow


@given(nested_maps(), disc_pts())
def test_automorphism_is_a_disc_matrix(f, z):
    m = f.matrix()
    assert (as_automorphism(f) is not None) == (m is not None and m.domain == moebius.DISC)
    if m is not None:
        assert moebius.apply(m, z) == pytest.approx(f.eval(z), abs=1e-12)


def _bits(entries):
    return None if entries is None else [(e.real.hex(), e.imag.hex()) for e in entries]


@pytest.mark.parametrize("f", [
    Scale(0), Scale(0.7), Scale(0.5j), Scale(cmath.exp(0.3j)),
    Monomial(1), Monomial(2),
    Blaschke((0.3 + 0.1j,), 0.4), Blaschke((0.3 + 0.1j, -0.2j), 0.4),
    Constant(0.2 + 0.1j),
    Mobius(moebius.make_disc_auto(0.2 - 0.3j, 0.5)),
    Compose((Scale(0.8j), Mobius(moebius.make_disc_auto(0.3, 0.2)), Blaschke((-0.4j,), 1.0))),
    Compose((Scale(0.8), Monomial(2))),
    HalfPlaneAffine(1.0, 2.0), HalfPlaneAffine(1.0 + 0.5j, 0.5),
], ids=["scale-0", "scale", "scale-imag", "rotation", "monomial-1", "monomial-2", "blaschke-1", "blaschke-2",
        "constant", "mobius", "compose-matrix", "compose-no-matrix", "hp_affine-disc", "hp_affine-generic"])
def test_entries_are_the_matrix_entries(f):
    # the right engine reads entries() where other callers read matrix():
    # None together, else the same bits
    m, e = f.matrix(), f.entries()
    assert (e is None) == (m is None)
    assert _bits(e) == (None if m is None else _bits(m.entries()))
    if isinstance(f, HalfPlaneAffine):  # both domain tags are covered
        assert m.domain == (moebius.DISC if f.translation.imag == 0 else moebius.GENERIC)


def _counting(calls, name, method):
    def counted(self, z):
        calls[name] += 1
        return method(self, z)

    return counted


def test_distortion_of_compose_walks_the_tree_once(monkeypatch):
    kinds = (Compose, Scale, Blaschke, Monomial, Mobius)
    jets, evals = Counter(), Counter()
    for cls in kinds:
        monkeypatch.setattr(cls, "jet", _counting(jets, cls.__name__, cls.jet))
        monkeypatch.setattr(cls, "eval", _counting(evals, cls.__name__, cls.eval))
    f = Compose((
        Scale(0.8),
        Blaschke((0.3 + 0.1j, -0.2j), 0.4),
        Monomial(2),
        Mobius(moebius.make_disc_auto(0.3, 0.2)),
    ))
    distortion(f, 0.25 - 0.1j)
    assert jets == Counter({cls.__name__: 1 for cls in kinds})
    assert not evals


def _reference_distortion_from_jet(z, w, d):
    """The distortion rule written as one function of the jet, with min and
    max: the frozen reference that _distortion_from_jet must reproduce."""
    den = 1.0 - abs(w) ** 2
    if den <= 0.0:
        raise ConsistencyError(f"self-map evaluation left the disc at {z!r}")
    val = abs(d) * (1.0 - abs(z) ** 2) / den
    tol = 1e-9 + 64.0 * sys.float_info.epsilon / min(den, 1.0 - abs(z) ** 2)
    if val > 1.0 + tol:
        raise ConsistencyError(f"distortion {val!r} above 1 at {z!r}")
    return min(max(val, 0.0), 1.0)


def _outcome(fn, *args):
    """fn's float result, or its exception's class and message."""
    try:
        return fn(*args)
    except Exception as e:  # the class and message are the outcome
        return type(e), str(e)


def _same_outcome(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


_SIGNED_ZEROS = st.sampled_from([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)])
_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 1e154, 1e155, 1e300, -0.0, 0.0])


def _kernel_points():
    """z from 0 to within 1e-13 of the circle, signed zeros included."""
    return st.one_of(
        _SIGNED_ZEROS,
        st.builds(cmath.rect, st.floats(0.0, 1.0 - 1e-13), st.floats(-math.pi, math.pi)),
        st.builds(
            lambda k, t: cmath.rect(1.0 - k * 1e-13, t),
            st.integers(1, 1000),
            st.floats(-math.pi, math.pi),
        ),
    )


def _kernel_values():
    """w inside, on and outside the circle, NaN, infinite and huge."""
    near = st.builds(
        lambda k, t: cmath.rect(1.0 + k * sys.float_info.epsilon, t),
        st.integers(-64, 64),
        st.floats(-math.pi, math.pi),
    )
    return st.one_of(
        _SIGNED_ZEROS,
        st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi)),
        near,
        st.sampled_from([1.0 + 0j, -1j, complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0)]),
        st.builds(complex, _ODD_FLOATS, _ODD_FLOATS),
        st.complex_numbers(allow_nan=True, allow_infinity=True),
    )


def _kernel_derivatives():
    """d: zero of either sign, NaN, huge, and anything else."""
    return st.one_of(
        _SIGNED_ZEROS,
        st.builds(complex, _ODD_FLOATS, _ODD_FLOATS),
        st.complex_numbers(allow_nan=True, allow_infinity=True),
        st.complex_numbers(max_magnitude=4.0),
    )


@given(_kernel_points(), _kernel_values(), _kernel_derivatives())
@settings(max_examples=2000, deadline=None)
def test_distortion_kernel_reproduces_the_frozen_rule(z, w, d):
    # the same float with the same sign of zero (NaN for NaN), or the
    # same exception class and message, OverflowError of |w|^2 included
    got = _outcome(holomap._distortion_from_jet, z, w, d)
    want = _outcome(_reference_distortion_from_jet, z, w, d)
    assert _same_outcome(got, want), (z, w, d, got, want)


def test_distortion_tolerance_keeps_its_grouping():
    # at z = 0 and 1 - |w|^2 = 0.9921875 the bound 1 + (1e-9 + 64 eps/m)
    # is one float below (1 + 1e-9) + 64 eps/m: a value on the bound
    # clamps to 1, and the next float up raises, which it would not under
    # the second grouping
    w = 0.08838834764831845 + 0j
    gap = 1.0 - abs(w) ** 2
    assert gap == 0.9921875
    x = 64.0 * sys.float_info.epsilon / gap
    bound = 1.0 + (1e-9 + x)
    above = math.nextafter(bound, 2.0)
    assert above == (1.0 + 1e-9) + x
    on_bound, past_bound = 0.9921875009922017 + 0j, 0.9921875009922019 + 0j
    assert abs(on_bound) / gap == bound and abs(past_bound) / gap == above
    for f in (holomap._distortion_from_jet, _reference_distortion_from_jet):
        assert f(0j, w, on_bound) == 1.0
        with pytest.raises(ConsistencyError, match=r"^distortion 1\.0000000010000145 above 1 at 0j$"):
            f(0j, w, past_bound)


def test_distortion_tolerance_widens_with_the_smaller_gap():
    # near the circle 1 - |z|^2 is the smaller gap and sets the tolerance
    # (64 eps / 2e-10, about 7e-5): an overshoot of 1e-6 there is rounding,
    # the same overshoot away from the circle is a violation
    z = 1.0 - 1e-10 + 0j
    d = (1.0 + 1e-6) / (1.0 - abs(z) ** 2)
    for f in (holomap._distortion_from_jet, _reference_distortion_from_jet):
        assert f(z, 0j, d) == 1.0
        with pytest.raises(ConsistencyError, match=r"^distortion 1\.000001\d* above 1 at 0\.5$"):
            f(0.5, 0.5, 1.0 + 1e-6)
