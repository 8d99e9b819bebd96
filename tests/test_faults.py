"""Planted faults: the consistency checks trip on maps that break Schwarz-Pick.

Each fault is a subclass of a library node that overrides eval, jet or
matrix, so the library runs unchanged.  A holomorphic self-map never
expands the hyperbolic metric; a node that rotates and expands by one part
in 10^6 does, by far more than any check's rounding floor, and each check
must name it at the first step where it can see it.
"""

import cmath
import math
from dataclasses import dataclass

import pytest

from ifslab import criteria, holomap, moebius, straighten
from ifslab.holomap import ConsistencyError, InconclusiveError, Mobius, Monomial, Scale
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

    def matrix(self):
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


def test_right_step_ledger_trips_at_step_2():
    # step 1 moves the seed by exactly its bound omega(s, f(s)); step 2
    # moves f(s) to f(f(s)), further than that under an expanding map
    state = RightOrbitState(_expanding_stream(), (0.5,))
    state.advance()
    with pytest.raises(ConsistencyError, match=r"right step .* exceeded its bound .* at n = 2$"):
        state.advance()
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
