"""Planted faults: the consistency checks trip on maps that break Schwarz-Pick.

Each fault is a subclass of a library node that overrides eval, jet or
matrix, so the library runs unchanged.  A holomorphic self-map never
expands the hyperbolic metric; a node that rotates and expands by one part
in 10^6 does, by far more than any check's rounding floor, and each check
must name it at the first step where it can see it.
"""

import cmath

import pytest

from ifslab import holomap
from ifslab.holomap import ConsistencyError, Scale
from ifslab.ifs import GeneratorStream, LeftOrbitCursor, RightOrbitState

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
