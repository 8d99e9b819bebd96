"""Generator streams, orbit engines, and relative-compactness heuristics."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import ifslab
from ifslab import geometry, holomap, ifs, moebius
from ifslab.geometry import HyperbolicBall, disc_distance, disc_point
from ifslab.holomap import Blaschke, Compose, HalfPlaneAffine, Mobius, Monomial, Scale
from ifslab.ifs import (
    BackwardOrbit,
    GeneratorStream,
    LeftOrbitCursor,
    RightOrbitState,
    ball_samples,
    compact_divergence,
    orbit_bounded,
    stream_from_json,
    verify_backward_orbit,
)

ATANH_03 = 0.30951960420311175  # atanh(0.3)


def scale_product_stream(power: int) -> GeneratorStream:
    return GeneratorStream.from_rule(lambda n: Scale(1.0 - 1.0 / (n + 1) ** power))


def test_held_values_can_be_fed_back_as_seeds():
    # the engines hold a value once it is within _SATURATED_GAP of the
    # circle; that band must lie inside the input band, so every value an
    # engine reports passes disc_point.  This hyperbolic automorphism drives
    # every seed into the attracting fixed point 1 within 30 steps.
    assert ifs._SATURATED_GAP >= geometry.EPS_BOUNDARY
    s = GeneratorStream.from_cycle([Mobius(moebius.MoebiusMap(1.25, 0.75, 0.75, 1.25, "disc"))])
    seeds = (0j, 0.3 + 0.2j, -0.5j)
    left = LeftOrbitCursor(s, seeds)
    right = RightOrbitState(s, seeds)
    for _ in range(200):
        for v in left.advance().values + right.advance().values:
            disc_point(v)
    assert left.saturated_seeds == right.saturated_seeds == {0, 1, 2}


# disc_point accepts it (1 - s > 1e-13), but it lies in the hold band
BAND_SEED = 0.9999999999998


@pytest.mark.parametrize("jets", [False, True])
@pytest.mark.parametrize("f", [Blaschke((0.5, 0.4 + 0.2j), 0.0), Scale(0.5)], ids=["replay", "matrix"])
def test_a_seed_in_the_band_is_not_held(f, jets):
    # the hold rule reads computed values: f(s) lies out of the band (the
    # Blaschke image 2.8 band widths from the circle), so both engines
    # report it, and on a one-generator cycle R_n = L_n bit for bit
    assert abs(BAND_SEED) > ifs._HELD_RADIUS
    stream = GeneratorStream.from_cycle([f])
    left = LeftOrbitCursor(stream, (BAND_SEED,))
    right = RightOrbitState(stream, (BAND_SEED,), jets=jets)
    assert right.advance().values == left.advance().values == [holomap.eval_raw(f, BAND_SEED)]
    for _ in range(49):
        assert right.advance().values == left.advance().values
    assert (right.matrix is None) == (f.matrix() is None)
    assert not left.saturated_seeds and not right.saturated_seeds


_STREAM_MAPS = (Scale(0.5), Monomial(2))


@pytest.mark.parametrize("stream", [
    GeneratorStream.from_list(_STREAM_MAPS),
    GeneratorStream.from_cycle(_STREAM_MAPS),
    stream_from_json({"type": "rule", "name": "scale_product", "params": {"power": 2}}),
], ids=["list", "cycle", "rule"])
def test_stream_indexing_conventions(stream):
    with pytest.raises(ValueError, match="stream index must be >= 0"):
        stream.generator_at(-1)
    # index 0 is the empty composition
    assert holomap.eval_raw(stream.generator_at(0), 0.3j) == 0.3j
    if stream.kind == "rule":
        for n in (1, 2, 40):
            assert stream.generator_at(n) == stream.rule(n)
        assert stream.position(3) is None
        return
    assert stream.generator_at(1) == Scale(0.5)
    assert stream.generator_at(2) == Monomial(2)
    if stream.kind == "list":
        with pytest.raises(IndexError, match="stream of length 2 has no generator 3"):
            stream.generator_at(3)
        assert stream.position(2) is None
    else:  # a cycle wraps around, and generator n sits at position (n - 1) mod 2
        assert stream.generator_at(3) == Scale(0.5)
        assert stream.generator_at(40) == Monomial(2)
        assert [stream.position(n) for n in (1, 2, 3, 40)] == [0, 1, 0, 1]


def test_stream_json_specs_parse():
    s = GeneratorStream.from_cycle([Blaschke((0.2, -0.1j), 0.3), Monomial(2)])
    t = stream_from_json({"type": "cycle", "generators": [
        {"kind": "blaschke", "zeros": [[0.2, 0.0], [0.0, -0.1]], "phase": 0.3}, {"kind": "monomial", "power": 2},
    ]})
    assert t == s
    for n in (1, 2, 3):
        f, g = s.generator_at(n), t.generator_at(n)
        for z in (0.1, 0.2 - 0.3j):
            assert holomap.eval_raw(f, z) == holomap.eval_raw(g, z)

    r = scale_product_stream(2)
    r2 = stream_from_json({"type": "rule", "name": "scale_product", "params": {"power": 2}})
    assert r2.generator_at(5) == r.generator_at(5)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "list", "generators": []}, "explicit stream needs at least one generator"),
        ({"type": "cycle", "generators": []}, "cycled stream needs at least one generator"),
        ({"type": "cycle", "generators": [{"kind": "spiral"}]}, "unknown map kind: 'spiral'"),
    ],
)
def test_stream_json_rejects_empty_streams_and_unknown_maps(spec, message):
    with pytest.raises(ValueError, match=message):
        stream_from_json(spec)


def test_stream_json_rejects_unknown():
    with pytest.raises(ValueError):
        stream_from_json({"type": "spiral"})
    with pytest.raises(ValueError):
        stream_from_json({"type": "rule", "name": "nope", "params": {}})


def test_as_fractional_linear():
    cases = [
        Mobius(moebius.make_disc_auto(0.3, 0.7)),
        Monomial(1),
        Scale(0.5),
        Scale(1j),
        Blaschke((0.4,), 0.2),
        HalfPlaneAffine(2.0 + 1.0j, 0.5),
        Compose((Scale(0.5), Mobius(moebius.make_disc_auto(0.2, 0.0)))),
    ]
    for f in cases:
        m = f.matrix()
        assert m is not None
        for z in (0.0, 0.3 + 0.2j, -0.4j):
            assert moebius.apply(m, z) == pytest.approx(holomap.eval_raw(f, z), abs=1e-12)
    assert Monomial(2).matrix() is None
    assert Scale(0.0).matrix() is None  # constant, not invertible
    assert Compose((Monomial(2), Scale(0.5))).matrix() is None


def test_left_orbit_telescoping_product():
    cur = LeftOrbitCursor(scale_product_stream(2), (0.3,))
    N = 100
    for _ in range(N):
        cur.advance()
    expect = 0.3 * (N + 2) / (2.0 * (N + 1))
    assert cur.values[0] == pytest.approx(expect, rel=1e-13)
    assert cur.n == N and cur.seeds == (0.3,)


def test_left_pair_ledger_monotone():
    cur = LeftOrbitCursor(
        GeneratorStream.from_cycle([Blaschke((0.0, -0.5), 0.0)]),
        (0.1, 0.4 + 0.2j, -0.3j),
    )
    prev = dict(cur.pair_distances)
    for _ in range(60):
        cur.advance()
        for key, d in cur.pair_distances.items():
            assert d <= prev[key] + ifs.LEDGER_SLACK
        prev = dict(cur.pair_distances)


def test_left_orbit_rounding_onto_the_circle_is_held():
    # L_n(0) heads to the attracting fixed point 1 of z -> (z + 0.6)/(1 + 0.6 z)
    # and rounds onto it; the seed is held at its last accurate value
    cur = LeftOrbitCursor(GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(0.6, 0.0))]), (0j,))
    held = None
    for _ in range(200):
        prev = cur.values[0]
        cur.advance()
        if cur.saturated_seeds and held is None:
            held = prev
    assert cur.saturated_seeds == {0}
    assert cur.values[0] is held
    assert 1.0 - abs(held) >= ifs._SATURATED_GAP and abs(held - 1.0) < 1e-12


def test_left_orbit_returns_from_the_boundary():
    # 22 steps of A = z -> (z + 0.6)/(1 + 0.6 z) and 22 of its inverse, so
    # L_n = A^k with k = min(j, 44 - j), j = n mod 44, and L_n(0) comes
    # within 1.1e-13 of the boundary at k = 22
    out, back = (Mobius(moebius.make_disc_auto(a, 0.0)) for a in (0.6, -0.6))
    # L_22(-0.9) stays 2e-12 away from it
    cur = LeftOrbitCursor(GeneratorStream.from_cycle([out] * 22 + [back] * 22), (0j, -0.9))
    for n in range(1, 133):
        cur.advance()
        j = n % 44
        exact = [math.tanh(min(j, 44 - j) * math.atanh(0.6) + math.atanh(s)) for s in (0.0, -0.9)]
        # a held value is off by at most the turn's last step; a value
        # advanced from a held one would lag a step, off by up to 0.6
        assert abs(cur.values[0] - exact[0]) < 1e-2, n
        assert abs(cur.values[1] - exact[1]) < 1e-2, n
    assert cur.saturated_seeds == {0}
    assert cur.saturated_pairs == {(0, 1)}
    assert abs(cur.values[0]) < 1e-2


def test_scale_product_rule_builds_checked_scales():
    rule = ifs.RULES["scale_product"]({"power": 2.5})
    for n in (1, 2, 7, 1000):
        f = rule(n)
        assert type(f) is Scale and type(f.factor) is complex
        assert f == Scale(1.0 - 1.0 / (n + 1) ** 2.5)


@pytest.mark.parametrize("power", [True, False, "2", None, [2], {"p": 2}, 10**400, math.nan, 0, -1.5],
                         ids=["true", "false", "string", "null", "list", "object", "int-1e400", "nan", "0", "negative"])
def test_scale_product_power_must_be_a_json_number(power):
    # a bool is not a number here, though float(True) is 1.0
    with pytest.raises(ifslab.DomainError):
        stream_from_json({"type": "rule", "name": "scale_product", "params": {"power": power}})


@pytest.mark.parametrize("power, n", [(100.0, 2000), (2000.0, 1), (1e300, 5)])
def test_scale_product_rule_overflow_gives_unit_scale(power, n):
    with pytest.raises(OverflowError):
        (n + 1) ** power
    assert ifs.RULES["scale_product"]({"power": power})(n) == Scale(1.0)


def test_right_matrix_fast_path_matches_tree():
    maps = [
        Mobius(moebius.make_disc_auto(0.2, 0.5)),
        Scale(0.6),
        Blaschke((0.3,), 0.1),
        HalfPlaneAffine(1.0),
    ]
    s = GeneratorStream.from_cycle(maps)
    fast = RightOrbitState(s, (0.3 + 0.1j,))
    for _ in range(40):
        fast.advance()
    assert fast.matrix is not None
    # replay by direct tree evaluation: R_n = f_1 o ... o f_n
    v = 0.3 + 0.1j
    for j in range(40, 0, -1):
        v = holomap.eval_raw(s.generator_at(j), v)
    assert fast.values[0] == pytest.approx(v, abs=1e-12)


def test_right_orbit_step_bound():
    s = GeneratorStream.from_cycle([Monomial(2), Scale(0.5), Blaschke((0.2, 0.1j), 0.0)])
    st_ = RightOrbitState(s, (0.5,))
    prev = 0.5
    for n in range(1, 30):
        f = s.generator_at(n)
        budget = disc_distance(0.5, holomap.eval_raw(f, 0.5))
        st_.advance()
        moved = disc_distance(prev, st_.values[0])
        assert moved <= budget + ifs.LEDGER_SLACK
        prev = st_.values[0]


def test_right_composed_property():
    s = GeneratorStream.from_list([Scale(0.5), Monomial(2), Scale(0.8)])
    st_ = RightOrbitState(s, (0.4,))
    for _ in range(3):
        st_.advance()
    R = Compose(tuple(st_.parts))
    # R_3 = f_1 o f_2 o f_3
    expect = 0.5 * (0.8 * 0.4) ** 2
    assert holomap.eval_raw(R, 0.4) == pytest.approx(expect, abs=1e-15)
    assert st_.values[0] == pytest.approx(expect, abs=1e-15)


def test_right_cycle_replay_has_no_depth_limit():
    # a cycle off the matrix path replays in O(p) per step, so a long run
    # costs linear time and nothing stops it at any depth
    st_ = RightOrbitState(GeneratorStream.from_cycle([Monomial(2)]), (0.1,))
    for _ in range(100_001):
        st_.advance()
    assert st_.matrix is None
    assert st_.n == len(st_.parts) == 100_001
    assert st_.values == [0j]  # 0.1 ** (2 ** n) underflows to 0


class _Replayed(Mobius):
    """A Mobius node that hides its matrix, so the right engine replays it."""

    def matrix(self):
        return None


@pytest.mark.xfail(
    strict=True,
    raises=holomap.ConsistencyError,
    reason="ROADMAP item 12: the right step ledger's noise term reads only the gaps of "
    "R_{n-1}(s) and R_n(s), not the error a replayed value carries; false abort at n = 36",
)
@pytest.mark.parametrize("seed", [0j, 0.3 + 0.2j])
def test_right_out_and_back_replay_runs_without_a_false_abort(seed):
    # 22 steps toward the boundary point 1 and 22 back, replayed: the orbit
    # passes within about 1e-12 of the circle and returns
    out, back = moebius.make_disc_auto(0.6, 0.0), moebius.make_disc_auto(-0.6, 0.0)
    stream = GeneratorStream.from_cycle([_Replayed(out)] * 22 + [_Replayed(back)] * 22)
    state = RightOrbitState(stream, (seed,))
    for _ in range(500):
        state.advance()


def _turned(t, seed):
    # the one turned matrix cycle that already runs its 300 steps is a plain case
    marks = () if (t, seed) == (3.0, 0.5) else pytest.mark.xfail(
        strict=True,
        raises=holomap.ConsistencyError,
        reason="ROADMAP item 12: the value released from the hold band carries the error "
        "it picked up near the circle, which the right step ledger's noise term omits",
    )
    return pytest.param(t, seed, marks=marks)


@pytest.mark.parametrize("t, seed", [_turned(t, seed) for t in (1e-3, 0.1, 1.0, 3.0)
                                     for seed in (0j, 0.3 + 0.2j, 0.5)])
def test_right_turned_out_and_back_matrix_cycle_runs_without_a_false_abort(t, seed):
    # the replay case's cycle turned by e^{it} between its halves stays on
    # the matrix path, since every generator has a matrix
    out, back = Mobius(moebius.make_disc_auto(0.6, 0.0)), Mobius(moebius.make_disc_auto(-0.6, 0.0))
    stream = GeneratorStream.from_cycle([out] * 22 + [Scale(cmath.exp(1j * t))] + [back] * 22)
    state = RightOrbitState(stream, (seed,))
    for _ in range(300):
        state.advance()
    assert state.matrix is not None


@pytest.mark.xfail(
    strict=True,
    raises=holomap.ConsistencyError,
    reason="ROADMAP item 14: omega near the circle loses eps/(1 - rho) in atanh, far more "
    "than the ledgers' noise term; the left pair ledger trips at step 1, the right one at n = 3",
)
@pytest.mark.parametrize("engine", [LeftOrbitCursor, RightOrbitState], ids=["left", "right"])
def test_rotation_near_the_circle_runs_without_a_false_abort(engine):
    # a rotation is an isometry, so every ledger holds with equality
    r = 1.0 - 1e-6
    state = engine(GeneratorStream.from_cycle([Scale(cmath.exp(0.3j))]), (r, r * cmath.exp(0.5j)))
    for _ in range(2000):
        state.advance()
    assert not state.saturated_seeds


@pytest.mark.parametrize("factor, N", [(0.7, 4000), (0.5, 3000)])
def test_right_contracting_cycle_stays_finite(factor, N):
    # the product underflows toward 0 and its power-of-two rescaling keeps
    # every entry finite
    state = RightOrbitState(GeneratorStream.from_cycle([Scale(factor)]), (0.5, 0.3 - 0.6j))
    for n in range(1, N + 1):
        state.advance()
        assert all(cmath.isfinite(v) for v in state.values), n
    assert max(abs(v) for v in state.values) < 1e-300
    assert not state.saturated_seeds


def test_right_scale_blaschke_cycle_past_126():
    s = GeneratorStream.from_cycle([Scale(0.7), Blaschke((0.3 + 0.1j,), 0.4)])
    state = RightOrbitState(s, (0.4 + 0.3j,))
    for _ in range(300):
        state.advance()
    assert state.matrix is not None
    v = 0.4 + 0.3j
    for j in range(300, 0, -1):
        v = holomap.eval_raw(s.generator_at(j), v)
    assert state.values[0] == pytest.approx(v, abs=1e-12)


def test_right_hyperbolic_cycle_saturates():
    # R_n(s) heads to the attracting fixed point 1 of z -> (z + 0.6)/(1 + 0.6 z)
    s = GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(0.6, 0.0))])
    state = RightOrbitState(s, (0.5, -0.2j))
    for _ in range(2000):
        state.advance()
    assert state.saturated_seeds == {0, 1}
    assert state.matrix is not None
    assert all(cmath.isfinite(v) and abs(v - 1.0) < 1e-12 for v in state.values)


def test_right_orbit_returns_from_the_boundary():
    # 22 steps of A = z -> (z + 0.6)/(1 + 0.6 z) and 22 of its inverse, so
    # R_n = A^k with k = min(j, 44 - j), j = n mod 44, and R_n(0) =
    # tanh(k atanh 0.6) comes within 1.1e-13 of the boundary at k = 22
    out, back = (Mobius(moebius.make_disc_auto(a, 0.0)) for a in (0.6, -0.6))
    s = GeneratorStream.from_cycle([out] * 22 + [back] * 22)
    state = RightOrbitState(s, (0j,))
    ref = _replayed(s, (0j,), 132)
    for n in range(1, 133):
        state.advance()
        j = n % 44
        exact = math.tanh(min(j, 44 - j) * math.atanh(0.6))
        # the turn at gap 1.1e-13 leaves about 3 digits on the way back,
        # while a value held at the turn would be off by up to 1
        assert abs(state.values[0] - exact) < 1e-2, n
        assert abs(state.values[0] - ref[n][0]) < 1e-2, n
    assert state.matrix is not None
    assert state.saturated_seeds == {0}
    assert abs(state.values[0]) < 1e-2


def test_right_release_from_the_band_is_not_ledgered():
    # 22 steps of A toward 1, a turn by e^i, 22 steps of A^-1: R_n(0)
    # enters the band at n = 22, moves along it with the turn and leaves
    # it at n = 67 far from the held value.  That move is not one step,
    # and the ledger, which compares computed values, skips it because
    # R_66(0) lies in the band
    out, back = (Mobius(moebius.make_disc_auto(a, 0.0)) for a in (0.6, -0.6))
    s = GeneratorStream.from_cycle([out] * 22 + [Scale(cmath.exp(1j))] + [back] * 22)
    state = RightOrbitState(s, (0j,))
    for _ in range(65):
        state.advance()
    held = state.values[0]
    assert state.advance().values[0] is held
    state.advance()
    # the step bound omega(0, f_67(0)) is atanh(0.6) = 0.69
    assert disc_distance(held, state.values[0]) > 10.0
    assert state.saturated_seeds == {0}


class _NaNScale(Scale):
    """A scale node whose evaluations are NaN, off the matrix path."""

    def eval(self, z):
        return complex("nan")

    def jet(self, z):
        return complex("nan"), complex("nan")

    def matrix(self):
        return None


class _InfMatrixScale(Scale):
    """A scale node whose matrix, built past MoebiusMap's checks, has an infinite entry."""

    def matrix(self):
        return moebius._trusted(complex("inf"), 0j, 0j, 1.0 + 0j, moebius.GENERIC)


@pytest.mark.parametrize("bad, jets", [(_NaNScale, False), (_NaNScale, True), (_InfMatrixScale, False)])
def test_right_non_finite_is_a_named_abort(bad, jets):
    s = GeneratorStream.from_cycle([Scale(0.5), bad(0.5)])
    state = RightOrbitState(s, (0.3,), jets=jets)
    state.advance()
    with pytest.raises(ifs.NonFiniteError) as exc:
        state.advance()
    assert isinstance(exc.value, holomap.ConsistencyError)
    assert ifs.NonFiniteError is holomap.NonFiniteError is ifslab.NonFiniteError
    assert exc.value.partial["n"] == 2


def _replayed(stream, seeds, N):
    """R_n(s) for n = 0..N by full replay of f_1 o ... o f_n, f_n first."""
    rows = [list(seeds)]
    for n in range(1, N + 1):
        row = []
        for v in seeds:
            for j in range(n, 0, -1):
                v = holomap.eval_raw(stream.generator_at(j), v)
            row.append(v)
        rows.append(row)
    return rows


PERIOD3 = [Blaschke((0.3 + 0.2j, -0.4 + 0.1j), 0.5), Scale(0.7 - 0.2j), Monomial(2)]
MOBIUS_FIRST = [Mobius(moebius.make_disc_auto(0.2 - 0.3j, 0.5)), Blaschke((0.3, -0.2j), 0.1), Scale(0.9)]


@pytest.mark.parametrize(
    "stream, N, matrix_steps",
    [
        (GeneratorStream.from_cycle(PERIOD3), 11, 0),
        (GeneratorStream.from_cycle(PERIOD3), 200, 0),
        (GeneratorStream.from_cycle([Monomial(2)]), 5, 0),
        (GeneratorStream.from_cycle([Monomial(2)]), 200, 0),
        (GeneratorStream.from_cycle(MOBIUS_FIRST), 11, 1),
        (GeneratorStream.from_cycle(MOBIUS_FIRST), 200, 1),
        (GeneratorStream.from_list(PERIOD3 * 10), 30, 0),
    ],
)
def test_right_values_bit_identical_to_replay(stream, N, matrix_steps):
    seeds = (0.4 + 0.3j, -0.999 + 0.01j)
    state = RightOrbitState(stream, seeds)
    # carrying derivatives leaves the values' bits alone
    with_jets = RightOrbitState(stream, seeds, jets=True)
    ref = _replayed(stream, seeds, N)
    for n in range(1, N + 1):
        state.advance()
        with_jets.advance()
        assert with_jets.values == state.values
        if n <= matrix_steps:
            # the matrix path rounds unlike a replay and is not under test
            assert state.values == pytest.approx(ref[n], abs=1e-12)
        else:
            assert state.values == ref[n]


def _count_evals(monkeypatch):
    calls = [0]
    real = holomap.eval_raw

    def counting(f, z):
        calls[0] += 1
        return real(f, z)

    monkeypatch.setattr(ifs.holomap, "eval_raw", counting)
    return calls


def test_right_cycle_cost_is_linear(monkeypatch):
    calls = _count_evals(monkeypatch)
    counts = []
    for N in (200, 400):
        calls[0] = 0
        state = RightOrbitState(GeneratorStream.from_cycle(PERIOD3), (0.4 + 0.3j,))
        for _ in range(N):
            state.advance()
        counts.append(calls[0])
    # a full replay per step would give a ratio near 4
    assert counts[1] / counts[0] < 2.2


def test_backward_orbit_verification_is_linear(monkeypatch):
    calls = _count_evals(monkeypatch)
    N = 300
    orbit = BackwardOrbit(tuple(0.5 * 1j ** -k for k in range(N + 1)))
    check = verify_backward_orbit(GeneratorStream.from_cycle([Scale(1j)]), orbit)
    assert check.ok
    assert calls[0] <= 2 * N


def test_backward_orbit_verifies():
    s = GeneratorStream.from_cycle([Monomial(2)])
    orbit = BackwardOrbit(tuple(0.5 ** (2.0 ** -n) for n in range(41)))
    check = verify_backward_orbit(s, orbit)
    assert check.ok
    assert check.max_step_residual < 1e-12
    # the recomposed end-to-end residual may be large; it is diagnostic only
    assert check.composed_residual < 1e-3


def test_backward_orbit_composed_residual_is_full_replay():
    s = GeneratorStream.from_cycle([Blaschke((0.3, -0.2j), 0.4), Monomial(2)])
    pts = tuple((0.3 + 0.1j) * 0.9 ** k for k in range(13))
    check = verify_backward_orbit(s, BackwardOrbit(pts))
    v = pts[-1]
    for n in range(len(pts) - 1, 0, -1):
        v = holomap.eval_raw(s.generator_at(n), v)
    assert check.composed_residual == abs(v - pts[0]) > 0


def test_backward_orbit_detects_corruption():
    s = GeneratorStream.from_cycle([Monomial(2)])
    pts = [0.5 ** (2.0 ** -n) for n in range(10)]
    pts[4] += 1e-3
    check = verify_backward_orbit(s, BackwardOrbit(tuple(pts)))
    assert not check.ok


def test_orbit_bounded_escape():
    g = Mobius(moebius.MoebiusMap(math.cosh(0.5), math.sinh(0.5), math.sinh(0.5), math.cosh(0.5), moebius.DISC))
    rep = orbit_bounded(GeneratorStream.from_cycle([g]), 0.0, 40, 2.0)
    assert rep.escaped
    # orbit omega grows by 0.5 each step; radius 2 is first exceeded at n=5,
    # and the flag points at the start of the qualifying run
    assert rep.first_escape == 5
    assert rep.max_omega == pytest.approx(20 * 0.5 / 20 * 40 / 2, rel=1e-6) or rep.max_omega > 2.0


def test_orbit_bounded_rotation():
    rep = orbit_bounded(GeneratorStream.from_cycle([Scale(1j)]), 0.3, 50, 1.0)
    assert not rep.escaped
    assert rep.first_escape is None
    assert rep.max_omega == pytest.approx(ATANH_03, abs=1e-12)


def test_ball_samples_lie_on_sphere():
    ball = HyperbolicBall(0.3 - 0.2j, 0.8)
    pts = ball_samples(ball)
    assert len(pts) == 1 + ifs._BALL_RING == 9
    assert pts[0] == ball.center
    for p in pts[1:]:
        assert disc_distance(ball.center, p) == pytest.approx(0.8, abs=1e-12)


def test_compact_divergence_hyperbolic():
    g = Mobius(moebius.MoebiusMap(math.cosh(0.5), math.sinh(0.5), math.sinh(0.5), math.cosh(0.5), moebius.DISC))
    rep = compact_divergence(GeneratorStream.from_cycle([g]), HyperbolicBall(0.0, 1.0), 30)
    assert rep.first_permanent == 4
    assert all(rep.disjoint_flags[rep.first_permanent - 1 :])


def test_orbit_reports_on_the_right_side():
    # one generator cycled: R_n = L_n, so the right engine, on its matrix
    # path, reports what the left one does
    g = Mobius(moebius.MoebiusMap(math.cosh(0.5), math.sinh(0.5), math.sinh(0.5), math.cosh(0.5), moebius.DISC))
    stream = GeneratorStream.from_cycle([g])
    rep = orbit_bounded(stream, 0.0, 20, 2.2, side="right")  # omega(0, R_n(0)) = n / 2
    assert rep.side == "right" and rep.first_escape == 5
    assert rep.max_omega == pytest.approx(orbit_bounded(stream, 0.0, 20, 2.2).max_omega, rel=1e-6)
    div = compact_divergence(stream, HyperbolicBall(0.0, 1.0), 30, side="right")
    assert div == compact_divergence(stream, HyperbolicBall(0.0, 1.0), 30)


def test_orbit_reports_reject_unknown_side():
    stream = GeneratorStream.from_cycle([Scale(0.5)])
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        compact_divergence(stream, HyperbolicBall(0.0, 1.0), 5, side="bogus")
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        orbit_bounded(stream, 0.0, 5, 1.0, side="bogus")


def test_compact_divergence_rotation_never_leaves():
    rep = compact_divergence(
        GeneratorStream.from_cycle([Scale(1j)]), HyperbolicBall(0.0, 1.0), 20
    )
    assert rep.first_permanent is None
    assert not any(rep.disjoint_flags)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=2, max_value=60))
@settings(max_examples=60)
def test_left_orbit_contraction_property(seed, steps):
    rng = random.Random(seed)
    pool = [
        Mobius(moebius.random_disc_auto(rng)),
        Blaschke((0.4 * rng.random(), -0.3 * rng.random()), rng.random()),
        Monomial(rng.choice((1, 2, 3))),
        Scale(0.9 * rng.random()),
    ]
    s = GeneratorStream.from_cycle([pool[rng.randrange(len(pool))] for _ in range(3)])
    cur = LeftOrbitCursor(s, (0.2, -0.4j))
    d0 = disc_distance(0.2, -0.4j)
    # end-to-end drift is bounded by the sum of the per-step ledger slacks;
    # the cursor freezes a pair once omega keeps under two digits, so every
    # stored update moves by at most 0.01 plus its conditioning allowance
    eps = 2.220446049250313e-16
    allowance = 1e-6
    for _ in range(steps):
        g_old = min(1.0 - abs(v) for v in cur.values)
        cur.advance()  # internal ledger raises on any expansion
        g_new = min(1.0 - abs(v) for v in cur.values)
        allowance += 1e-10 + min(16.0 * eps / max(min(g_old, g_new), eps), 0.01)
    assert cur.pair_distances[(0, 1)] <= d0 + allowance
