"""Quantitative bounds: margin verifiers, the approximating automorphism,
and the boundary distortion defect."""

import cmath
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import holomap, moebius
from ifslab.geometry import DomainError, _omega_raw, disc_distance, disc_point
from ifslab.holomap import Blaschke, Compose, Mobius, Monomial, Scale
from ifslab.bounds import (
    MARGIN_KINDS,
    _random_point,
    best_automorphism,
    boundary_defect,
    fuzz_margins,
    margin,
    random_self_map,
)

ATANH_08 = 1.0986122886681098  # atanh(0.8) = 2 atanh(0.5) = ln 3


def test_overflowing_side_is_a_named_abort():
    # coefficient * e^(4 omega) overflows; a margin read from inf means nothing
    with pytest.raises(holomap.NonFiniteError, match="rhs inf"):
        margin("approx_auto", Scale(0.5), 0.1, 0.2, coefficient=1.7e308)
    with pytest.raises(holomap.NonFiniteError):
        fuzz_margins("approx_auto", 3, seed=0, coefficient=1e308)


def _fuzz_rows(kind, draws, seed, **kw):
    """fuzz_margins' report and the rows it handed on, in draw order."""
    rows = []
    return fuzz_margins(kind, draws, seed, row=rows.append, **kw), rows


def test_every_bound_applies_its_coefficient():
    f = Scale(0.5)
    for kind in MARGIN_KINDS:
        two = margin(kind, f, 0.1 + 0.2j, 0.3, coefficient=2.0)
        five = margin(kind, f, 0.1 + 0.2j, 0.3, coefficient=5.0)
        assert five.lhs == two.lhs
        assert five.rhs == pytest.approx(2.5 * two.rhs, rel=1e-15), kind
    a, a_rows = _fuzz_rows("transfer", 50, seed=3, coefficient=2.0)
    b, b_rows = _fuzz_rows("transfer", 50, seed=3, coefficient=5.0)
    assert [r[4] for r in b_rows] != [r[4] for r in a_rows]
    assert b.empirical_coefficient == pytest.approx(a.empirical_coefficient, rel=1e-14)


def test_margin_kinds_frozen():
    assert MARGIN_KINDS == ("euclid_gap", "lipschitz_2", "transfer", "approx_auto")
    with pytest.raises(ValueError):
        margin("sharper", Monomial(2), 0.1, 0.2)


def test_euclid_gap_examples():
    rep = margin("euclid_gap", None, 0.3 + 0.1j, -0.2 + 0.4j)
    assert rep.margin >= 0.0
    assert rep.lhs == abs((0.3 + 0.1j) - (-0.2 + 0.4j))
    # coincident points: both sides vanish
    same = margin("euclid_gap", None, 0.25j, 0.25j)
    assert same.lhs == 0.0 and same.rhs == 0.0


def test_lipschitz_2_sharpness_witness():
    # squaring at z = 1/2 against w = 0 makes the bound an equality:
    # omega(0.8, 0) = atanh(0.8) = ln 3 = 2 omega(0.5, 0)
    rep = margin("lipschitz_2", Monomial(2), 0.5, 0.0)
    assert rep.lhs == pytest.approx(ATANH_08, abs=1e-12)
    assert rep.rhs == pytest.approx(ATANH_08, abs=1e-12)
    assert abs(rep.lhs - rep.rhs) < 1e-9


def test_lipschitz_2_automorphism_degenerate_case():
    g = Mobius(moebius.make_disc_auto(0.3, 0.2))
    rep = margin("lipschitz_2", g, 0.4, -0.2j)
    assert rep.lhs == 0.0  # distortion is identically 1
    assert rep.margin >= 0.0


def test_transfer_margin():
    rep = margin("transfer", Blaschke((0.2, -0.3j), 0.5), 0.3, 0.1 - 0.2j)
    assert rep.margin >= 0.0
    # at z = w the bound reduces to 1 - d <= 2 (1 - d)
    same = margin("transfer", Monomial(2), 0.4, 0.4)
    assert same.rhs == pytest.approx(2.0 * same.lhs, rel=1e-12)


def test_best_automorphism_matches_value_and_direction():
    f = Blaschke((0.3, -0.2 + 0.1j), 0.7)
    w = 0.25 - 0.15j
    gamma = best_automorphism(f, w)
    assert moebius.apply(gamma, w) == pytest.approx(holomap.eval_raw(f, w), abs=1e-12)
    fd = holomap.derivative(f, w)
    gd = moebius.deriv(gamma, w)
    # tangency: same derivative direction at the anchor point
    assert cmath.phase(fd / gd) == pytest.approx(0.0, abs=1e-9)


def test_best_automorphism_of_automorphism_is_itself():
    g = moebius.make_disc_auto(0.4, 1.0)
    gamma = best_automorphism(Mobius(g), 0.3j)
    assert moebius.matrix_distance(moebius.canonical(gamma), moebius.canonical(g)) < 1e-12


def test_best_automorphism_zero_derivative():
    # superattracting anchor: the rotation factor is undefined and dropped
    gamma = best_automorphism(Monomial(2), 0.0)
    assert moebius.apply(gamma, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_approx_auto_margin_at_anchor():
    f = Blaschke((0.0, -0.5), 0.0)
    rep = margin("approx_auto", f, 0.2 + 0.1j, 0.2 + 0.1j)
    # z = w: the left side vanishes by construction of gamma
    assert rep.lhs < 1e-12
    assert rep.margin >= 0.0


@pytest.mark.parametrize("kind", MARGIN_KINDS)
def test_fuzz_margins_hold(kind):
    rep = fuzz_margins(kind, 2000, seed=11)
    assert rep.draws == 2000
    assert rep.min_margin >= -1e-9
    assert rep.worst.kind == kind


def test_fuzz_determinism():
    a, a_rows = _fuzz_rows("transfer", 500, seed=3)
    b, b_rows = _fuzz_rows("transfer", 500, seed=3)
    assert a.min_margin == b.min_margin
    assert len(a_rows) == 500  # every draw's row is handed on
    assert a_rows == b_rows


def test_fuzz_margins_peak_memory_is_flat_in_draws():
    # as scripts/run_margin_fuzz.py calls it: no row callback, and no draw kept
    peaks = []
    for draws in (2_000, 8_000):
        tracemalloc.start()
        try:
            fuzz_margins("approx_auto", draws, seed=7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 512 * 1024


def test_fuzz_empirical_coefficient():
    rep = fuzz_margins("approx_auto", 3000, seed=5)
    # the constructive coefficient stays well under the guaranteed 2
    assert rep.empirical_coefficient is not None
    assert 0.0 < rep.empirical_coefficient < 2.0
    rep2 = fuzz_margins("euclid_gap", 500, seed=5)
    assert rep2.empirical_coefficient is None


def test_boundary_defect_of_squaring():
    # 1 - f#(r) = (1 - r)^2/(1 + r^2), so the normalized defect tends to 1/2
    rep = boundary_defect(Monomial(2), 1.0)
    assert rep.limit == pytest.approx(0.5, abs=1e-4)
    assert len(rep.ratios) == len(rep.radii)


def test_boundary_defect_direction():
    rep = boundary_defect(Monomial(2), 1j)
    assert rep.limit == pytest.approx(0.5, abs=1e-4)


def test_random_self_map_determinism():
    a = random_self_map(random.Random(9))
    b = random_self_map(random.Random(9))
    assert a == b
    for z in (0.0, 0.5, -0.3 + 0.4j):
        assert abs(holomap.eval_raw(a, z)) < 1.0


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=80)
def test_margin_nonnegative_property(seed):
    rng = random.Random(seed)
    f = random_self_map(rng)
    z = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
    w = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
    for kind in MARGIN_KINDS:
        assert margin(kind, f, z, w).margin >= -1e-9


def _rebuilt(f):
    """f rebuilt through the validating constructors."""
    if isinstance(f, Compose):
        return Compose(tuple(_rebuilt(p) for p in f.parts))
    if isinstance(f, Scale):
        return Scale(f.factor)
    return Blaschke(f.zeros, f.phase)


def test_random_maps_are_valid_maps():
    # the fuzzer builds its maps without the constructors' checks; each
    # must be the map the constructors build and store, field for field
    for seed in range(2000):
        f = random_self_map(random.Random(seed))
        g = _rebuilt(f)
        assert g == f, seed
        b = f.parts[1] if isinstance(f, Compose) else f
        assert all(type(z) is complex for z in b.zeros) and type(b.phase) is float
        if isinstance(f, Compose):
            assert type(f.parts[0].factor) is complex


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("kind", MARGIN_KINDS)
def test_fuzz_rows_equal_the_public_path(kind, seed):
    # fuzz_margins skips the public checks; every row must still be the
    # one that validated maps, margin and best_automorphism give
    c = 2.0
    rng = random.Random(seed)
    rep, rows = _fuzz_rows(kind, 300, seed, coefficient=c)
    assert rep.kind == kind and rep.worst.kind == kind and rep.worst.coefficient == c
    assert len(rows) == 300
    # the worst draw is the first row of least margin, as a MarginReport
    worst = rep.worst
    assert (worst.z, worst.w, worst.lhs, worst.rhs, worst.margin) == min(rows, key=lambda r: r[4])
    for row in rows:
        f = None if kind == "euclid_gap" else _rebuilt(random_self_map(rng))
        z, w = _random_point(rng), _random_point(rng)
        if kind == "approx_auto":
            lhs = _omega_raw(f.eval(z), moebius.apply(best_automorphism(f, w), z))
            rhs = c * math.exp(4.0 * _omega_raw(z, w)) * (1.0 - holomap.distortion(f, w))
            ref = (z, w, lhs, rhs, rhs - lhs)
        else:
            r = margin(kind, f, z, w, c)
            ref = (r.z, r.w, r.lhs, r.rhs, r.margin)
        assert row == ref


def _chain_best_automorphism(f, w):
    """best_automorphism as a chain of validated moebius maps."""
    auto = holomap.as_automorphism(f)
    if auto is not None:
        return auto
    wv = disc_point(w)
    fw, d = f.jet(wv)
    phi = moebius.make_disc_auto(wv, 0.0)
    psi = moebius.make_disc_auto(fw, 0.0)
    gprime = d * (1.0 - abs(wv) ** 2) / (1.0 - abs(fw) ** 2)
    inner = moebius.inverse(phi)
    if abs(gprime) > 0:
        alpha = math.atan2(gprime.imag, gprime.real)
        rot = moebius.MoebiusMap(cmath.exp(1j * alpha), 0j, 0j, 1.0 + 0j, moebius.DISC)
        inner = moebius.compose(rot, inner)
    return moebius.canonical(moebius.compose(psi, inner))


def _bits(g):
    return tuple((e.real.hex(), e.imag.hex()) for e in g.entries()) + (g.domain,)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=0.97),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=200)
def test_best_automorphism_equals_the_chain(seed, r, a):
    f = random_self_map(random.Random(seed))
    w = cmath.rect(r, a)
    assert _bits(best_automorphism(f, w)) == _bits(_chain_best_automorphism(f, w))


def test_best_automorphism_branches_equal_the_chain():
    # an automorphism comes back unchanged
    g = moebius.make_disc_auto(0.4, 1.0)
    assert best_automorphism(Mobius(g), 0.3j) is g
    one = Blaschke((0.2 - 0.5j,), 0.7)
    assert best_automorphism(one, 0.3j) == one.matrix()
    # f#(w) = 0: the rotation is dropped
    sq = best_automorphism(Monomial(2), 0.0)
    assert _bits(sq) == _bits(_chain_best_automorphism(Monomial(2), 0.0))
    assert _bits(sq) == _bits(moebius.identity())
    # the generic case
    f = Blaschke((0.3, -0.2 + 0.1j), 0.7)
    assert _bits(best_automorphism(f, 0.25 - 0.15j)) == _bits(_chain_best_automorphism(f, 0.25 - 0.15j))


def test_approx_auto_keeps_the_named_abort_at_f_of_w():
    # f(w) lies 2.1e-14 from the circle: gamma cannot be built there
    f = Compose((Mobius(moebius.make_disc_auto(0.9, 0.0)), Monomial(2)))
    with pytest.raises(DomainError, match="not an interior disc point"):
        margin("approx_auto", f, 0.3, 1 - 2e-13)


def test_public_entry_points_check_their_points():
    for kind in MARGIN_KINDS:
        for z, w in ((1.2, 0.1), (0.1, 1.0)):
            with pytest.raises(DomainError, match="not an interior disc point"):
                margin(kind, Monomial(2), z, w)
    with pytest.raises(DomainError, match="not an interior disc point"):
        best_automorphism(Monomial(2), 1.0)
