"""Planted faults: the consistency checks trip on maps that break Schwarz-Pick.

Each fault is a subclass of a library node that overrides eval, jet or
matrix, so the library runs unchanged.  A holomorphic self-map never
expands the hyperbolic metric; a node that rotates and expands by one part
in 10^6 does, by far more than any check's rounding floor, and each check
must name it at the first step where it can see it.
"""

import cmath
import math
import re
from dataclasses import dataclass

import pytest

from ifslab import criteria, holomap, moebius, straighten
from ifslab.holomap import ConsistencyError, InconclusiveError, Mobius, Monomial, NonFiniteError, Scale
from ifslab.ifs import BackwardOrbit, GeneratorStream, LeftOrbitCursor, RightOrbitState

EXPANSION = 1.0 + 1e-6


class _Planted(Scale):
    """z |-> expansion * factor * z, with no matrix, so it is never read as
    a rotation and the right engine replays it."""

    expansion = 1.0

    def eval(self, z: complex) -> complex:
        return self.expansion * self.factor * z

    def jet(self, z: complex):
        a = self.expansion * self.factor
        return a * z, a

    def entries(self):
        return None


class _Expanding(_Planted):
    expansion = EXPANSION


def _expanding_stream() -> GeneratorStream:
    return GeneratorStream.from_cycle([_Expanding(cmath.exp(0.3j))])


def test_left_pair_ledger_trips_at_step_1():
    cur = LeftOrbitCursor(_expanding_stream(), (0.1, 0.5))
    with pytest.raises(ConsistencyError, match="left pair distance grew at step 1:"):
        cur.advance()
    assert cur.n == 0


def _left_state(cur):
    return (cur.n, cur.generator, cur.computed, cur.values, cur.derivs, dict(cur.pair_distances),
            set(cur.saturated_seeds), set(cur.saturated_pairs))


@pytest.mark.parametrize("jets", [False, True], ids=["values", "jets"])
def test_left_pair_ledger_fault_inside_a_block_leaves_the_steps_before_it(jets):
    # four healthy rotations, then the expanding one at step 5, in one
    # block of 8 steps.  The seeds 1e-5 and 2e-5 lie so close that their
    # pair grows by less than LEDGER_SLACK and passes step 5 before the
    # pair (1e-5, 0.5) trips it; the block's lists and the cursor, its
    # whole pair ledger included, end at step 4, as a run of 4 leaves them
    rot = cmath.exp(0.3j)
    stream = GeneratorStream.from_list([_Planted(rot)] * 4 + [_Expanding(rot)] + [_Planted(rot)] * 3)
    seeds = (1e-5, 2e-5, 0.5)
    ref, cur = LeftOrbitCursor(stream, seeds, jets=jets), LeftOrbitCursor(stream, seeds, jets=jets)
    expected, expected_omegas = [], []
    ref.run(4, expected, expected_omegas)
    values, omegas = [], []
    with pytest.raises(ConsistencyError, match="left pair distance grew at step 5:"):
        cur.run(8, values, omegas)
    assert len(values) == len(omegas) == 4 * len(seeds)
    assert values == expected and omegas == expected_omegas
    assert _left_state(cur) == _left_state(ref)
    assert cur.n == 4 and cur.generator is stream.maps[3]


def _right_state(e):
    """Everything a right step sets, each list copied."""

    def copied(xs):
        return None if xs is None else list(xs)

    return (e.n, e.generator, e.matrix, e._det, copied(e.computed), copied(e.values), copied(e.derivs),
            set(e.saturated_seeds), copied(e.parts))


def _trips_and_retries(state, run, expected):
    """run() raises the ConsistencyError expected (a regex) and leaves
    state where it found it, and so does a retry, with the same message."""
    before = _right_state(state)
    with pytest.raises(ConsistencyError, match=expected) as first:
        run()
    assert _right_state(state) == before
    with pytest.raises(ConsistencyError) as again:
        run()
    assert str(again.value) == str(first.value)
    assert _right_state(state) == before


def test_right_step_ledger_trips_at_step_2():
    # step 1 moves the seed by exactly its bound omega(s, f(s)); step 2
    # moves f(s) to f(f(s)), further than that under an expanding map.
    # The step leaves the engine, and the cycle position's stored replay,
    # at step 1, so a retry replays from R_1(s) again
    state = RightOrbitState(_expanding_stream(), (0.5,))
    ref = RightOrbitState(_expanding_stream(), (0.5,))
    state.advance()
    ref.advance()
    _trips_and_retries(state, state.advance, r"right step .* exceeded its bound .* at n = 2$")
    assert _right_state(state) == _right_state(ref)
    assert state.n == 1


def test_distortion_above_one_is_named():
    with pytest.raises(ConsistencyError, match=r"distortion .* above 1 at \(?0\.5"):
        holomap.distortion(_Expanding(cmath.exp(0.3j)), 0.5)


def test_the_series_sweep_raises_its_first_points_distortion_error():
    # every base point's series meets its distortion's ConsistencyError at
    # step 1; the sweep runs on and raises the first base point's
    for run in (lambda s: criteria.classify_left_limits(s, 50), lambda s: criteria.distortion_series(s, 50)):
        with pytest.raises(ConsistencyError, match=r"distortion 1\.000001 above 1 at 0j$"):
            run(_expanding_stream())
    with pytest.raises(ConsistencyError, match=r"distortion \S+ above 1 at \(0\.3\+0\.2j\)$"):
        criteria.classify_left_limits(_expanding_stream(), 50, base_points=(0.3 + 0.2j, 0j))


def test_the_planted_node_without_its_expansion_passes():
    # the faults above come from the 1e-6 expansion alone: the same node
    # with expansion 1 runs the same paths and trips nothing
    healthy = GeneratorStream.from_cycle([_Planted(cmath.exp(0.3j))])
    cur = LeftOrbitCursor(healthy, (0.1, 0.5))
    state = RightOrbitState(healthy, (0.5,))
    for _ in range(50):
        cur.advance()
        state.advance()
    assert state.matrix is None
    assert holomap.distortion(healthy.generator_at(1), 0.5) == pytest.approx(1.0, abs=1e-15)


class _MatrixPlanted(Scale):
    """z |-> factor * z, a rotation, whose matrix entries are expansion
    times that: the right engine's matrix step reads the entries, while
    the step bound omega(s, f(s)) reads eval."""

    expansion = 1.0

    def entries(self):
        return self.expansion * self.factor, 0j, 0j, 1.0 + 0j


class _MatrixExpanding(_MatrixPlanted):
    expansion = EXPANSION


@pytest.mark.parametrize("jets", [False, True], ids=["values", "jets"])
def test_right_matrix_step_ledger_trips_at_step_1(jets):
    # the matrix takes 0.5 to 0.5 e^{0.3i} (1 + 1e-6), further from 0.5
    # than the bound omega(0.5, 0.5 e^{0.3i}) allows; the engine keeps
    # R_0, its identity matrix and no generator
    stream = GeneratorStream.from_cycle([_MatrixExpanding(cmath.exp(0.3j))])
    state = RightOrbitState(stream, (0.5,), jets=jets)
    _trips_and_retries(state, state.advance, r"right step .* exceeded its bound .* at n = 1$")
    assert _right_state(state) == _right_state(RightOrbitState(stream, (0.5,), jets=jets))
    assert state.n == 0 and state.generator is None


@pytest.mark.parametrize("jets", [False, True], ids=["values", "jets"])
@pytest.mark.parametrize("kind", ["list", "rule"])
@pytest.mark.parametrize("path", ["matrix", "replay"])
def test_right_step_ledger_fault_inside_a_block_leaves_the_steps_before_it(path, kind, jets):
    # four healthy rotations, the expanding one at step 5, then healthy
    # ones, in one block of 8 steps.  On the matrix path the step ledger
    # sees the expanding matrix at its own step, 5; a replay applies
    # f_n first, so there the ledger sees f_5 at step 6.  The expanding
    # map takes the seed 1 - 4e-13 out of the disc, so at step 5 the hold
    # rule takes it, on the matrix path before the seed 0.5 trips the
    # ledger.  The block's lists and the engine, its held seeds and a
    # replayed rule stream's parts included, end at the step before the
    # fault, as a run to that step leaves them, and a retry of the block
    # raises the same error
    rot = cmath.exp(0.3j)
    healthy, bad, trip = (_MatrixPlanted, _MatrixExpanding, 5) if path == "matrix" else (_Planted, _Expanding, 6)
    maps = [healthy(rot)] * 4 + [bad(rot)] + [healthy(rot)] * 3
    stream = GeneratorStream.from_list(maps) if kind == "list" else GeneratorStream.from_rule(lambda n: maps[n - 1])
    seeds = (1 - 4e-13, 0.5)
    ref, state = RightOrbitState(stream, seeds, jets=jets), RightOrbitState(stream, seeds, jets=jets)
    expected, expected_omegas = [], []
    ref.run(trip - 1, expected, expected_omegas)
    assert ref.saturated_seeds == (set() if path == "matrix" else {0})
    values, omegas = [], []
    with pytest.raises(ConsistencyError, match=rf"right step .* exceeded its bound .* at n = {trip}$") as first:
        state.run(8, values, omegas)
    assert values == expected and omegas == expected_omegas
    assert len(values) == (trip - 1) * len(seeds)
    assert _right_state(state) == _right_state(ref)
    assert state.n == trip - 1 and state.generator is maps[trip - 2]
    assert (state.matrix is None) == (path == "replay")
    assert (state.parts is None) == (path == "matrix" or kind == "list")
    _trips_and_retries(state, lambda: state.run(8, values, omegas), re.escape(str(first.value)) + "$")
    assert len(values) == (trip - 1) * len(seeds)


class _NaNAtTenth(_Planted):
    """NaN at 0.1 and 0.9999999999999, in the hold band, anywhere else."""

    def eval(self, z: complex) -> complex:
        return complex("nan") if z == 0.1 else 0.9999999999999 + 0j

    def jet(self, z: complex):
        return self.eval(z), 0j


_ENGINES = {
    "left": lambda stream, seeds, jets=False: LeftOrbitCursor(stream, seeds, track_pairs=False, jets=jets),
    "left-pairs": lambda stream, seeds, jets=False: LeftOrbitCursor(stream, seeds, jets=jets),
    "right": lambda stream, seeds, jets=False: RightOrbitState(stream, seeds, jets=jets),
}


def _state(e):
    return _right_state(e) if isinstance(e, RightOrbitState) else _left_state(e)


@pytest.mark.parametrize("seeds", [(0.1, 0.5), (0.5, 0.1)], ids=["nan-first", "nan-last"])
@pytest.mark.parametrize("engine", list(_ENGINES))
def test_a_non_finite_value_is_a_named_abort_whatever_the_seed_order(engine, seeds):
    # one step gives NaN at one seed and a value in the hold band at the
    # other: the finite check names the NaN's seed in either order, before
    # the hold rule or the pair ledger reads the step, and the engine
    # stays at step 0
    state = _ENGINES[engine](GeneratorStream.from_cycle([_NaNAtTenth(1.0)]), seeds)
    before = _state(state)
    with pytest.raises(NonFiniteError, match=r"is not finite at n = 1: \(?nan") as exc:
        state.advance()
    assert exc.value.partial == {"n": 1, "seed": seeds.index(0.1)}
    assert _state(state) == before


class _NaNBeyondTwoFifths(_Planted):
    """factor * z, and NaN where abs(z) > 0.4."""

    def eval(self, z: complex) -> complex:
        return complex("nan") if abs(z) > 0.4 else self.factor * z

    def jet(self, z: complex):
        return self.eval(z), complex("nan") if abs(z) > 0.4 else self.factor


@pytest.mark.parametrize("jets", [False, True], ids=["values", "jets"])
@pytest.mark.parametrize("engine", list(_ENGINES))
def test_a_non_finite_value_inside_a_block_leaves_the_steps_before_it(engine, jets):
    # four rotations, then one that gives NaN at the last seed only, at
    # step 5 of a block of 8: the block's lists and the engine end at
    # step 4, as a run of 4 leaves them
    rot = cmath.exp(0.3j)
    stream = GeneratorStream.from_list([_Planted(rot)] * 4 + [_NaNBeyondTwoFifths(rot)] + [_Planted(rot)] * 3)
    seeds = (1e-5, 2e-5, 0.5)
    ref, state = _ENGINES[engine](stream, seeds, jets), _ENGINES[engine](stream, seeds, jets)
    expected, expected_omegas = [], []
    ref.run(4, expected, expected_omegas)
    values, omegas = [], []
    with pytest.raises(NonFiniteError, match=r"is not finite at n = 5:") as exc:
        state.run(8, values, omegas)
    assert exc.value.partial == {"n": 5, "seed": 2}
    assert len(values) == len(omegas) == 4 * len(seeds)
    assert values == expected and omegas == expected_omegas
    assert _state(state) == _state(ref)
    assert state.n == 4 and state.generator is stream.maps[3]


@pytest.mark.parametrize("jets", [False, True], ids=["values", "jets"])
def test_the_planted_matrix_without_its_expansion_passes(jets):
    state = RightOrbitState(GeneratorStream.from_cycle([_MatrixPlanted(cmath.exp(0.3j))]), (0.5,), jets=jets)
    for _ in range(50):
        state.advance()
    assert state.matrix is not None
    assert state.values[0] == pytest.approx(0.5 * cmath.exp(15j), abs=1e-14)


class _Stretching(_Planted):
    """z |-> factor z (1 + stretch |z|^2): exact at 0, where the left
    straightener reads its distortion, and expanding away from it."""

    stretch = 1e-6

    def eval(self, z: complex) -> complex:
        return self.factor * z * (1.0 + self.stretch * abs(z) ** 2)

    def jet(self, z: complex):
        return self.eval(z), self.factor  # the derivative at 0


class _Unstretched(_Stretching):
    stretch = 0.0


def test_left_probe_ledger_trips_at_step_2():
    # L_n(0) = 0 and its distortion is 1, so only |H_n(probe)| sees the stretch
    stream = GeneratorStream.from_cycle([_Stretching(cmath.exp(0.3j))])
    with pytest.raises(ConsistencyError, match=r"\|H_n\(probe\)\| grew at step 2:"):
        straighten.left_straighten(stream, 50, tol=0.0)
    healthy = GeneratorStream.from_cycle([_Unstretched(cmath.exp(0.3j))])
    assert straighten.left_straighten(healthy, 50, tol=0.0).steps == 50


def test_mu_step_ledger_trips_at_n_1():
    with pytest.raises(ConsistencyError, match="step sequence grew at n = 1$"):
        straighten.mu_step(_Expanding(cmath.exp(0.3j)), 0.5, 1, 20)
    rep = straighten.mu_step(_Planted(cmath.exp(0.3j)), 0.5, 1, 20)
    assert not rep.exact and len(rep.trace) == 21


class _Constant(_Planted):
    """z |-> factor, which may lie on the unit circle."""

    def eval(self, z: complex) -> complex:
        return self.factor

    def jet(self, z: complex):
        return self.factor, 0j


def test_distortion_of_a_value_on_the_circle_is_named():
    with pytest.raises(ConsistencyError, match=r"self-map evaluation left the disc at \(?0\.5"):
        holomap.distortion(_Constant(1.0), 0.5)
    assert holomap.distortion(_Constant(0.5), 0.5) == 0.0


class _Phased(Monomial):
    """z |-> z^2 whose jet turns the derivative by an arbitrary phase."""

    def jet(self, z: complex):
        w, d = super().jet(z)
        return w, d * cmath.exp(1j * 1e3 * abs(z))


def test_right_step_derivatives_stay_real_and_nonnegative_under_any_phase():
    # g_n'(0) >= 0 holds by construction, whatever the phase of f_n'(w_n),
    # within the bounds of test_right_squaring_straightens
    orbit = BackwardOrbit(tuple(0.5 ** (2.0 ** -n) for n in range(31)))
    res = straighten.right_straighten(GeneratorStream.from_cycle([_Phased(2)]), orbit)
    assert res.steps == 30 and max(map(abs, res.phases)) > 1.0  # honest squaring keeps 0
    for gd in res.gn_derivs:
        assert gd.real >= -1e-9
        assert abs(gd.imag) <= 1e-9 * (1.0 + abs(gd))


class _Quadratic(_Planted):
    """z |-> factor z^2 + 0.1, a strict contraction of the disc.  With
    stall set, the jet is honest only at the fixed-point guard samples
    and reports the derivative 1 elsewhere, which stalls Newton."""

    stall = False

    def eval(self, z: complex) -> complex:
        return self.factor * z * z + 0.1

    def jet(self, z: complex):
        honest = not self.stall or z in criteria._GUARD_SAMPLES
        return self.eval(z), (2.0 * self.factor * z if honest else 1.0 + 0j)


class _Stalling(_Quadratic):
    stall = True


def test_fixed_point_tracking_falls_back_to_denjoy_wolff():
    root = (1.0 - math.sqrt(1.0 - 0.12)) / 0.6  # of 0.3 z^2 - z + 0.1
    assert holomap.polish_fixed_point(_Stalling(0.3), 0j) == 0.1  # Newton stalls
    for node in (_Stalling(0.3), _Quadratic(0.3)):
        rep = criteria.track_fixed_points(GeneratorStream.from_cycle([node]), 5)
        assert rep.residual_max < 1e-10
        assert rep.limit_estimate == pytest.approx(root, abs=1e-12)


def test_denjoy_wolff_of_a_rotation_without_a_matrix_is_inconclusive():
    # 0 is fixed, and the orbit of 0.35 circles forever
    with pytest.raises(InconclusiveError, match="settled nowhere within budget"):
        holomap.denjoy_wolff(_Planted(cmath.exp(0.3j)))
    assert holomap.denjoy_wolff(Scale(cmath.exp(0.3j))).kind == "elliptic_auto"
    assert holomap.denjoy_wolff(Mobius(moebius.identity())).kind == "identity"


@dataclass(frozen=True)
class _Halfway(_Planted):
    """z |-> (z + p) / 2 with p = factor for Re z >= 0 and p = left
    otherwise: each half of the disc has its own attracting point, which
    no holomorphic self-map has."""

    left: complex = 0j

    def eval(self, z: complex) -> complex:
        return (z + (self.factor if z.real >= 0 else self.left)) / 2

    def jet(self, z: complex):
        return self.eval(z), 0.5 + 0j


@pytest.mark.parametrize(
    "right, left, message",
    [
        (0.5, -0.5, "interior limits disagree across seeds"),
        (1.0, -1.0, "boundary directions disagree across seeds"),
        (0.5, -1.0, "seeds split between interior and boundary behaviour"),
    ],
)
def test_denjoy_wolff_names_split_attractors(right, left, message):
    # of the seeds, only -0.4 + 0.25i starts in the left half
    with pytest.raises(InconclusiveError, match=message):
        holomap.denjoy_wolff(_Halfway(right, left))
    rep = holomap.denjoy_wolff(_Halfway(right, right))
    assert rep.point == pytest.approx(right, abs=1e-12)
