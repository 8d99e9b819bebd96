"""Coordinate straightening for left and right systems, and the
boundary-step trichotomy probe."""

import cmath
import math
from collections import Counter

import pytest

from ifslab import holomap, moebius
from ifslab.geometry import DomainError, disc_distance
from ifslab.holomap import (
    Blaschke,
    HalfPlaneAffine,
    InconclusiveError,
    Mobius,
    Monomial,
    Scale,
)
from ifslab.criteria import distortion_series
from ifslab.ifs import BackwardOrbit, GeneratorStream, LeftOrbitCursor
from ifslab.straighten import (
    DEFAULT_GRID,
    TOL,
    TOL_ZERO,
    WINDOW,
    StraightenResult,
    left_straighten,
    mu_step,
    right_straighten,
    semiconjugacy_probe,
)

HALF_LOG_TWO = 0.34657359027997264  # log(2)/2


def scale_product_stream(power: int) -> GeneratorStream:
    return GeneratorStream.from_rule(lambda n: Scale(1.0 - 1.0 / (n + 1) ** power))


def test_one_step_has_no_window_residual():
    res = left_straighten(GeneratorStream.from_cycle([Scale(0.5)]), 1)
    assert res.steps == 1 and res.window_residual is None


def test_make_grid():
    # the origin, then 12 points on each of the circles |z| = 0.3 and 0.6
    assert len(DEFAULT_GRID) == 25 and DEFAULT_GRID[0] == 0j
    for i, p in enumerate(DEFAULT_GRID[1:]):
        r, k = (0.3, 0.6)[i // 12], i % 12
        assert abs(p - cmath.rect(r, 2 * math.pi * k / 12)) < 1e-15


def test_left_telescoping_straightens_to_half_scale():
    N = 500
    res = left_straighten(scale_product_stream(2), N)
    p = (N + 2) / (2.0 * (N + 1))
    # L_n(0) = 0 throughout, so gamma_n stays a rotation pinned to the
    # identity and H_n(z) = L_n(z) = p_n z on the nose
    assert res.h_at_probe == pytest.approx(0.5 * p, abs=1e-12)
    for z, h in zip(res.grid, res.h_grid):
        assert h == pytest.approx(p * z, abs=1e-12)
    assert res.distortion_trace[-1] == pytest.approx(p, rel=1e-12)
    assert res.window_residual is not None and res.window_residual < 1e-3


def test_left_gamma_normalization():
    # gamma_n(0) must follow the orbit of 0
    s = GeneratorStream.from_cycle(
        [Blaschke((0.3, -0.2), 0.1), Mobius(moebius.make_disc_auto(0.2, 0.4))]
    )
    res = left_straighten(s, 25)
    v = 0j
    for n in range(1, res.steps + 1):
        v = holomap.eval_raw(s.generator_at(n), v)
        assert moebius.apply(res.gammas[n - 1], 0j) == pytest.approx(v, abs=1e-12)


def test_left_automorphism_stream_freezes():
    g = Mobius(moebius.make_disc_auto(0.4, 1.2))
    res = left_straighten(GeneratorStream.from_cycle([g]), 400)
    # H_{n+1} == H_n exactly for automorphisms: the window fills and stops
    assert res.converged
    assert res.steps == 11
    assert res.window_residual <= 1e-14


def test_left_strict_contraction_degenerates():
    res = left_straighten(GeneratorStream.from_cycle([Scale(0.5)]), 200)
    assert res.degenerate
    assert abs(res.h_at_probe) < 1e-8


@pytest.mark.parametrize("probe", [
    pytest.param(1.5e-9, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 15 (ride-along): the left collapse test compares |H_n(probe)| "
        "with the absolute TOL_ZERO, so a probe this small reads as a collapse at step 2",
    )),
    2e-9,
])
def test_tiny_left_probe_is_no_collapse(probe):
    # h(z) = z/2 on the Basel stream is nonconstant, so no probe collapses
    res = left_straighten(scale_product_stream(2), 400, probe=probe)
    assert not res.degenerate


@pytest.mark.parametrize("probe", [0j, 1e-12, TOL_ZERO])
def test_left_probe_near_0_is_rejected(probe):
    # H_n fixes 0, so |H_n(probe)| <= |probe| would read as a collapse at step 1
    # on any stream: the Basel stream's h(0.5) is about 0.25, far from 0
    with pytest.raises(DomainError, match="collapse"):
        left_straighten(scale_product_stream(2), 50, probe=probe)
    assert not left_straighten(scale_product_stream(2), 50, probe=1e-6).degenerate


def test_left_boundary_drift_stops():
    # w |-> 2w + i on the half-plane pushes the orbit of 0 into the
    # boundary; the runner must stop at the guard rather than die
    s = GeneratorStream.from_cycle([HalfPlaneAffine(1j, 2.0)])
    res = left_straighten(s, 400)
    assert res.stopped_at_boundary
    assert res.steps < 100


def test_limit_distance_telescoping():
    N = 1000
    cursor = LeftOrbitCursor(scale_product_stream(2), (0.2, -0.2))
    trace = [cursor.pair_distances[(0, 1)]]
    for _ in range(N):
        trace.append(cursor.advance().pair_distances[(0, 1)])
    val = trace[-1]
    p = (N + 2) / (2.0 * (N + 1))
    rho = 0.4 * p / (1.0 + 0.04 * p * p)
    assert val == pytest.approx(math.atanh(rho), abs=1e-12)
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def test_distortion_limit_telescoping():
    N = 800
    trace = (1.0,) + distortion_series(scale_product_stream(2), N, 0.0).products
    val = trace[-1]
    assert val == pytest.approx((N + 2) / (2.0 * (N + 1)), rel=1e-12)
    assert trace[0] == 1.0


def test_left_takes_one_jet_per_step_on_its_base_orbit(monkeypatch):
    calls = Counter()
    for name in ("jet", "eval"):

        def counted(self, z, name=name, method=getattr(Scale, name)):
            calls[name] += 1
            return method(self, z)

        monkeypatch.setattr(Scale, name, counted)
    res = left_straighten(scale_product_stream(2), 50)
    # one evaluation per seed and step (the grid, whose origin is the base
    # orbit a_n = L_n(0), and the probe) and one jet per step, at a_{n-1}
    assert calls["eval"] == res.steps * (len(DEFAULT_GRID) + 1)
    assert calls["jet"] == res.steps


def test_right_squaring_straightens():
    s = GeneratorStream.from_cycle([Monomial(2)])
    depth = 30
    orbit = BackwardOrbit(tuple(0.5 ** (2.0 ** -n) for n in range(depth + 1)))
    res = right_straighten(s, orbit)
    assert res.steps == depth
    # normalization g_n'(0) >= 0 real
    for gd in res.gn_derivs:
        assert complex(gd).real >= -1e-9
        assert abs(complex(gd).imag) <= 1e-9 * (1.0 + abs(complex(gd)))
    # distortion of H_n at 0 is the product of the step distortions
    prod = 1.0
    for n in range(1, depth + 1):
        w = 0.5 ** (2.0 ** -n)
        prod *= 2.0 * w / (1.0 + w * w)
    assert res.distortion_trace[-1] == pytest.approx(prod, abs=1e-7)
    # the straightened limit is nonconstant: |H| varies on the outer ring
    ring = [abs(h) for h in res.h_grid if abs(h) > 0.2]
    assert max(ring) - min(ring) > 0.05


def test_right_rejects_broken_orbit():
    s = GeneratorStream.from_cycle([Monomial(2)])
    pts = [0.5 ** (2.0 ** -n) for n in range(12)]
    pts[3] += 1e-4
    with pytest.raises(DomainError):
        right_straighten(s, BackwardOrbit(tuple(pts)))


def test_right_normalizes_nonzero_start():
    # same data; w_0 = 0.5 is moved to 0 internally and the probe scale
    # still reflects the product of step distortions
    s = GeneratorStream.from_cycle([Monomial(2)])
    orbit = BackwardOrbit(tuple(0.5 ** (2.0 ** -n) for n in range(21)))
    res = right_straighten(s, orbit)
    origin = [h for z, h in zip(res.grid, res.h_grid) if z == 0j]
    assert origin and abs(origin[0]) < 1e-3


def test_right_contraction_collapses_to_degenerate():
    # H_n = 0.5^n z: the grid collapses below tol_zero at step 30, before
    # the window of moves settles and before the 40-step orbit ends
    s = GeneratorStream.from_cycle([Scale(0.5)])
    res = right_straighten(s, BackwardOrbit((0j,) * 41))
    assert res.converged and res.degenerate
    assert res.steps == 30
    assert max(abs(h) for h in res.h_grid) < TOL_ZERO
    assert len(res.gammas) == len(res.phases) == 1 + res.steps


def test_right_elliptic_cycle_stops_on_the_window():
    # every conjugated step of an automorphism fixes 0 with g_n'(0) > 0, so
    # it is the identity: H_n stops moving and the window settles at once
    p = 0.4 + 0.2j
    t = moebius.translate_to_zero(p)
    g = moebius.compose(moebius.inverse(t), moebius.compose(moebius.make_disc_auto(0.0, 2.0), t))
    assert moebius.classify_auto(g).kind == "elliptic"
    pts = [0.3 + 0j]
    for _ in range(40):
        pts.append(moebius.apply(moebius.inverse(g), pts[-1]))
    res = right_straighten(GeneratorStream.from_cycle([Mobius(g)]), BackwardOrbit(tuple(pts)))
    assert res.converged and not res.degenerate
    assert res.steps == WINDOW + 1 < len(pts) - 1
    assert sum(res.residual_trace[-WINDOW:]) < TOL
    assert res.window_residual is not None and res.window_residual < 1e-12


def test_mu_step_dilation_is_exact():
    # w |-> 2w is an isometry; the step is its translation length
    rep = mu_step(HalfPlaneAffine(0.0, 2.0), 0j, 1, 50)
    assert rep.exact
    assert rep.value == pytest.approx(HALF_LOG_TWO, abs=1e-15)
    assert all(t == rep.value for t in rep.trace)


def test_mu_step_shifted_dilation_converges_to_same_value():
    # w |-> 2w + i is not onto (its image misses Im <= 1), so the direct
    # path runs; the limit step still matches the pure dilation
    rep = mu_step(HalfPlaneAffine(1j, 2.0), 0j, 1, 50)
    assert not rep.exact
    assert rep.value == pytest.approx(HALF_LOG_TWO, abs=1e-9)


def test_mu_step_parabolic_affine_positive():
    rep = mu_step(HalfPlaneAffine(1.0), 0j, 1, 50)
    # omega(i, 1 + i) through the Cayley transform
    expect = disc_distance(0.0, 1.0 / (1.0 + 2.0j))
    assert rep.exact
    assert rep.value == pytest.approx(expect, abs=1e-14)
    assert rep.value > 0.4


def test_mu_step_nonisometric_drift_vanishes():
    rep = mu_step(HalfPlaneAffine(1.0 + 1.0j), 0j, 1, 2000)
    assert not rep.exact
    assert rep.value < 1e-2
    # the step sequence decays monotonically (up to slack)
    assert rep.trace[-1] <= rep.trace[0]


def test_mu_step_subadditive():
    f = HalfPlaneAffine(1.0)
    s = {mu: mu_step(f, 0j, mu, 20).value for mu in (1, 2, 3, 4, 5)}
    for a in (1, 2):
        for b in (1, 2, 3):
            assert s[a + b] <= s[a] + s[b] + 1e-12


def test_mu_step_rejects_bad_mu():
    with pytest.raises(ValueError):
        mu_step(Scale(0.5), 0j, 0, 10)


def test_probe_rotation_is_automorphic_elliptic():
    rep = semiconjugacy_probe(Scale(1j))
    assert rep.kind == "automorphic"
    assert rep.phi_kind == "elliptic"
    assert rep.residual < 1e-10


def test_probe_hyperbolic_auto():
    g = Mobius(moebius.MoebiusMap(math.cosh(0.4), math.sinh(0.4), math.sinh(0.4), math.cosh(0.4), moebius.DISC))
    rep = semiconjugacy_probe(g)
    assert rep.kind == "automorphic"
    assert rep.phi_kind == "hyperbolic"
    assert rep.residual < 1e-8


def test_probe_parabolic_auto():
    rep = semiconjugacy_probe(HalfPlaneAffine(1.0))
    assert rep.kind == "automorphic"
    assert rep.phi_kind == "parabolic"
    assert rep.residual < 1e-8


def test_probe_strict_contraction_none():
    rep = semiconjugacy_probe(Scale(0.5))
    assert rep.kind == "none"
    assert rep.phi is None


def test_probe_superattracting_none():
    rep = semiconjugacy_probe(Monomial(2))
    assert rep.kind == "none"


def test_probe_halfplane_dilation_semiconjugates():
    rep = semiconjugacy_probe(HalfPlaneAffine(1j, 2.0))
    assert rep.kind == "semiconjugate_to_auto"
    assert rep.phi_kind == "hyperbolic"
    assert rep.residual < 2e-5


def test_probe_mixed_drift_is_inconclusive():
    # w + 1 + i: hyperbolic steps shrink like 1/n, below any automorphic
    # floor but too slowly for the collapse test; refusing is the only
    # honest verdict at a finite horizon
    with pytest.raises(InconclusiveError) as info:
        semiconjugacy_probe(HalfPlaneAffine(1.0 + 1.0j))
    # the scan that found no settled window rides along for diagnostics
    partial = info.value.partial
    assert isinstance(partial, StraightenResult)
    assert partial.steps == 400 == len(partial.probe_trace)
    assert not partial.converged
