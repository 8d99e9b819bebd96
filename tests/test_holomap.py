"""Map expression trees: evaluation, derivatives, distortion, fixed points."""

import cmath
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import holomap, ifs, moebius
from ifslab.geometry import DomainError, HyperbolicBall, disc_distance
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
    distortion_via_quotient,
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


def test_distortion_quotient_consistency():
    f = Blaschke((0.3 + 0.1j, -0.2j), 0.4)
    z = 0.25 - 0.35j
    q = distortion_via_quotient(f, z, 1e-5)
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


@given(nested_maps(), disc_pts())
def test_automorphism_is_a_disc_matrix(f, z):
    m = f.matrix()
    assert (as_automorphism(f) is not None) == (m is not None and m.domain == moebius.DISC)
    if m is not None:
        assert moebius.apply(m, z) == pytest.approx(f.eval(z), abs=1e-12)


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
