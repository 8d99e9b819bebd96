"""Distortion series, limit classification, and fixed-point tracking."""

import cmath
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import criteria, holomap, ifs, moebius
from ifslab.holomap import Blaschke, Compose, Constant, HalfPlaneAffine, InconclusiveError, Mobius, Monomial, Scale
from ifslab.ifs import GeneratorStream, LeftOrbitCursor
from ifslab.criteria import (
    SeriesConfig,
    TrackingRefusal,
    classify_left_limits,
    classify_right_limits,
    distortion_series,
    track_fixed_points,
)

BASEL_MINUS_ONE = 0.6449340668482264  # pi^2/6 - 1
BANACH_LIMIT = 0.19615242270663188  # sqrt(27) - 5, fixed point of the limit map


def scale_product_stream(power: int) -> GeneratorStream:
    return GeneratorStream.from_rule(lambda n: Scale(1.0 - 1.0 / (n + 1) ** power))


def contraction_stream() -> GeneratorStream:
    # f_n moves 0 to b_n after halving; the limit map has fixed point
    # sqrt(27) - 5 (solve p = (p/2 + 0.1)/(1 + 0.1 p/2))
    def gen(n):
        b = 0.1 + 0.01 / n**2
        return Compose((Mobius(moebius.make_disc_auto(b, 0.0)), Scale(0.5)))

    return GeneratorStream.from_rule(gen)


def test_harmonic_series_diverges():
    rep = distortion_series(scale_product_stream(1), 2000, 0j)
    assert rep.verdict == "diverging"
    assert rep.partial_sums[-1] > 5.0
    assert rep.products[-1] < 1e-3


def test_basel_series_summable():
    rep = distortion_series(scale_product_stream(2), 5000, 0j)
    assert rep.verdict == "summable_so_far"
    # terms 1/(n+1)^2 sum to pi^2/6 - 1; the tail at this horizon is ~2e-4
    assert rep.partial_sums[-1] == pytest.approx(BASEL_MINUS_ONE, abs=1e-3)
    assert rep.products[-1] == pytest.approx(0.5, abs=1e-3)


def test_series_monotonicity():
    rep = distortion_series(scale_product_stream(2), 300, 0.3 + 0.2j)
    sums, prods = rep.partial_sums, rep.products
    assert all(sums[i] <= sums[i + 1] + 1e-15 for i in range(len(sums) - 1))
    assert all(prods[i + 1] <= prods[i] + 1e-15 for i in range(len(prods) - 1))


def test_series_chain_rule_identity():
    # product of step distortions equals the distortion of the composite
    for power in (1, 2):
        rep = distortion_series(scale_product_stream(power), 500, 0.3 + 0.2j)
        assert rep.product_residual_max < 1e-9


def test_superattracting_terms_are_one():
    rep = distortion_series(GeneratorStream.from_cycle([Monomial(2)]), 50, 0j)
    assert all(t == 1.0 for t in rep.terms)
    assert rep.verdict == "diverging"


def test_series_on_an_escaping_orbit_is_a_named_abort():
    # the left orbit of 0 under this hyperbolic automorphism runs into the
    # circle; the series stops where it enters the engines' held band,
    # rather than rejecting as input a point it computed itself
    s = GeneratorStream.from_cycle([Mobius(moebius.MoebiusMap(1.25, 0.75, 0.75, 1.25, "disc"))])
    with pytest.raises(InconclusiveError, match="at step 22") as e:
        distortion_series(s, 200)
    assert e.value.partial["step"] == 22
    assert abs(e.value.partial["last"]) > ifs._HELD_RADIUS


def test_constant_generator_rejected():
    s = GeneratorStream.from_cycle([Constant(0.2)])
    with pytest.raises(ValueError):
        distortion_series(s, 10, 0j)
    with pytest.raises(ValueError):
        classify_right_limits(s, 10)
    s = GeneratorStream.from_list([Scale(0.5), Constant(0.2), Scale(0.5)])
    for run in (lambda: distortion_series(s, 3), lambda: classify_left_limits(s, 3)):
        with pytest.raises(ValueError, match="generator 2 is constant"):
            run()


def test_a_lone_series_ends_where_it_stops():
    # past the constant generator 5 the 10-map list has 5 more maps, fewer
    # than the horizon: a lone series reads the stream no further than its
    # stop, so the stop is raised, not the list's end
    s = GeneratorStream.from_list([Scale(0.5)] * 4 + [Constant(0.1)] + [Scale(0.5)] * 5)
    with pytest.raises(ValueError, match="generator 5 is constant"):
        distortion_series(s, 200)


def test_left_classification_harmonic():
    rep = classify_left_limits(scale_product_stream(1), 2000)
    assert rep.kind == "constant_limits"
    assert rep.agreement
    # both base-point orbits collapse toward 0
    for v in rep.limit_estimates:
        assert abs(v) < 1e-3


def test_left_classification_basel():
    rep = classify_left_limits(scale_product_stream(2), 5000)
    assert rep.kind == "nonconstant_limits"
    assert rep.agreement
    assert {s.verdict for s in rep.series} == {"summable_so_far"}


def test_left_classification_escaping():
    g = Mobius(
        moebius.MoebiusMap(math.cosh(0.4), math.sinh(0.4), math.sinh(0.4), math.cosh(0.4), moebius.DISC)
    )
    rep = classify_left_limits(GeneratorStream.from_cycle([g]), 200)
    assert rep.kind == "not_relatively_compact"
    # fast escapes reach the boundary within a few steps; the escape
    # check still reads them before any series runs into the boundary
    for a in (0.9999999, 0.999999999):
        s = GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(a, 0.0))])
        assert classify_left_limits(s, 200).kind == "not_relatively_compact"


def test_left_classification_stops_at_its_escape():
    # omega(0, L_n(0)) = 0.4 n lies beyond the escape radius 3 from n = 8
    # on, so the run of three settles escape at step 10: the sweep fetches
    # no later generator, whatever N, and a list of 30 maps is long enough
    g = Mobius(
        moebius.MoebiusMap(math.cosh(0.4), math.sinh(0.4), math.sinh(0.4), math.cosh(0.4), moebius.DISC)
    )
    fetched = []

    def rule(n):
        fetched.append(n)
        return g

    for N in (20, 2000):
        fetched.clear()
        assert classify_left_limits(GeneratorStream.from_rule(rule), N).kind == "not_relatively_compact"
        assert fetched == list(range(1, 11))
    assert classify_left_limits(GeneratorStream.from_list([g] * 30), 100).kind == "not_relatively_compact"


def test_left_classification_near_the_circle():
    # L_1(0) lies 1e-9 inside the circle and L_2(0) in the held band: at
    # N = 2 the reported orbit has not escaped, so the series' band abort
    # stands, whichever base point comes first; one more held step is escape
    s = GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(0.999999999, 0.0))])
    for pts in ((0j, 0.9), (0.9, 0j)):
        with pytest.raises(InconclusiveError, match="at step 2") as e:
            classify_left_limits(s, 2, pts)
        assert e.value.partial["step"] == 2
        assert classify_left_limits(s, 3, pts).kind == "not_relatively_compact"


def _count_scale_calls(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("jet", "eval"):

        def counted(self, z, name=name, method=getattr(Scale, name)):
            calls[name] += 1
            return method(self, z)

        monkeypatch.setattr(Scale, name, counted)
    return calls


def test_series_takes_one_jet_per_step(monkeypatch):
    calls = _count_scale_calls(monkeypatch)
    distortion_series(scale_product_stream(2), 100, 0.3j)
    assert calls == Counter({"jet": 100})
    calls.clear()
    # one sweep: one jet per base point, which the escape check reads too
    classify_left_limits(scale_product_stream(2), 100)
    assert calls == Counter({"jet": 200})


def _chain_rule_product(s: GeneratorStream, n: int, z0: complex) -> float:
    """Distortion of R_n at z0 as the product of f_j#(v_j), one evaluation
    sweep down to v_0 and one distortion per factor up."""
    vs = [z0]
    for j in range(n, 0, -1):
        vs.append(holomap.eval_raw(s.generator_at(j), vs[-1]))
    vs.reverse()
    prod = 1.0
    for j in range(1, n + 1):
        prod *= holomap.distortion(s.generator_at(j), vs[j])
    return prod


def test_right_product_fetches_each_generator_once(monkeypatch):
    # matrix path for two steps, then cycled replays
    s = GeneratorStream.from_cycle([Blaschke((0.3 + 0.1j,), 0.4), Scale(0.9), Monomial(2)])
    n, z0 = 50, 0.4 - 0.2j
    expected = {m: _chain_rule_product(s, m, z0) for m in (12, 25, 37, 50)}
    fetches = []
    fetch = GeneratorStream.generator_at
    monkeypatch.setattr(GeneratorStream, "generator_at", lambda self, j: fetches.append(j) or fetch(self, j))
    rep = classify_right_limits(s, n, z0)
    assert fetches == list(range(1, n + 1))
    assert [m for m, _ in rep.distortion_checkpoints] == sorted(expected)
    for m, p in rep.distortion_checkpoints:
        assert p == pytest.approx(expected[m], rel=1e-12)


@pytest.mark.parametrize("kind", ["list", "rule"])
def test_right_classify_refuses_a_constant_generator_in_its_step(monkeypatch, kind):
    # generator 700 is constant.  The list runs on the matrix path to step
    # 699 and replays step 700; the rule's maps are not fractional-linear,
    # so it replays from step 1 and fetches no generator again.  The
    # sweep's engine refuses generator 700 right after its step, in the
    # block from checkpoint 500 to 750, having fetched each of 1..700 once
    constant = Constant(0.2)
    if kind == "list":
        pair = [Scale(0.99), Mobius(moebius.make_disc_auto(0.1j, 0.3))]
        s = GeneratorStream.from_list(pair * 349 + [Scale(0.5), constant] + [Scale(0.5)] * 300)
    else:
        s = GeneratorStream.from_rule(lambda n: constant if n == 700 else Compose((Scale(0.9), Monomial(2))))
    fetches = []
    fetch = GeneratorStream.generator_at
    monkeypatch.setattr(GeneratorStream, "generator_at", lambda self, j: fetches.append(j) or fetch(self, j))
    with pytest.raises(ValueError, match="^generator 700 is constant; the distortion product needs nonconstant maps$"):
        classify_right_limits(s, 1000, 0.4 - 0.2j)
    assert fetches == list(range(1, 701))


def test_right_classification_harmonic():
    rep = classify_right_limits(scale_product_stream(1), 3000, z0=0.7)
    assert rep.kind == "constant_limit"
    # R_N(0.7) = 0.7 / (N + 1) for commuting scalings
    assert abs(rep.limit_estimate) == pytest.approx(0.7 / 3001, rel=1e-10)


def test_right_classification_basel():
    rep = classify_right_limits(scale_product_stream(2), 2000, z0=0.7)
    assert rep.kind == "nonconstant_limit"
    assert rep.limit_estimate == pytest.approx(0.35, abs=1e-3)
    ns = [n for n, _ in rep.distortion_checkpoints]
    assert ns == sorted(ns)


def test_right_classification_rotations():
    s = GeneratorStream.from_cycle([Scale(1j), Scale(cmath.exp(0.5j))])
    rep = classify_right_limits(s, 400, z0=0.4)
    assert rep.kind == "nonconstant_limit"
    # isometries: the distortion product stays exactly 1
    assert all(p == pytest.approx(1.0, abs=1e-12) for _, p in rep.distortion_checkpoints)


def test_track_fixed_points_contraction_stream():
    rep = track_fixed_points(contraction_stream(), 1000)
    assert rep.residual_max < 1e-10
    assert rep.limit_estimate == pytest.approx(BANACH_LIMIT, abs=1e-6)
    assert rep.orbit_gap < 1e-6
    assert rep.min_deficit >= 1e-3
    assert len(rep.points) == 1000


def test_track_fixed_points_refuses_rotations():
    with pytest.raises(TrackingRefusal):
        track_fixed_points(GeneratorStream.from_cycle([Scale(1j)]), 20)


def test_track_fixed_points_refuses_a_boundary_attractor():
    # w |-> w + 1 + i contracts at every guard sample, but its Denjoy-Wolff
    # point is on the circle: the Newton polish fails, and so does the fallback
    stream = GeneratorStream.from_cycle([HalfPlaneAffine(1.0 + 1.0j)])
    with pytest.raises(TrackingRefusal, match="generator 1 has no interior attracting point"):
        track_fixed_points(stream, 20)


def test_track_fixed_points_refuses_weak_contraction():
    # distortion 1 - 1e-5 at the origin sits under the default guard
    with pytest.raises(TrackingRefusal):
        track_fixed_points(GeneratorStream.from_cycle([Scale(1.0 - 1e-5)]), 20)


def test_track_constant_stream():
    s = GeneratorStream.from_cycle([Scale(0.5)])
    rep = track_fixed_points(s, 200)
    assert rep.limit_estimate == pytest.approx(0.0, abs=1e-12)
    assert rep.residual_max < 1e-12


def _contraction(a: complex, theta: float, r: complex):
    return Compose((Mobius(moebius.make_disc_auto(a, theta)), Scale(r)))


_contractions = st.builds(
    _contraction,
    st.complex_numbers(max_magnitude=0.6),
    st.floats(-3.0, 3.0),
    st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9),
)


@given(st.lists(_contractions, min_size=1, max_size=5), st.integers(1, 300), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_cycle_tracking_equals_solving_every_step(ms, n, at):
    # a list stream never reuses a solve; the cycle must give the same
    # report field for field, and the same refusal with a rotation in it
    k = -(-n // len(ms))
    cyc = track_fixed_points(GeneratorStream.from_cycle(ms), n)
    lst = track_fixed_points(GeneratorStream.from_list(ms * k), n)
    assert cyc == lst
    assert repr(cyc) == repr(lst)  # signed zeros too
    at = min(at, len(ms))  # the rotation is generator at + 1
    ms = ms[:at] + [Scale(1j)] + ms[at:]
    k = -(-n // len(ms))
    errors = []
    for s in (GeneratorStream.from_cycle(ms), GeneratorStream.from_list(ms * k)):
        try:
            track_fixed_points(s, n)
        except TrackingRefusal as e:
            errors.append(str(e))
    assert len(errors) == (2 if n > at else 0)
    assert len(set(errors)) <= 1


def test_cycle_tracking_work_does_not_grow_with_n(monkeypatch):
    kinds = (Compose, Scale, Mobius)
    jets = Counter()
    for cls in kinds:

        def counted(self, z, name=cls.__name__, method=cls.jet):
            jets[name] += 1
            return method(self, z)

        monkeypatch.setattr(cls, "jet", counted)
    s = GeneratorStream.from_cycle([_contraction(0.3 + 0.1j, 0.5, 0.5), Scale(0.4 - 0.2j)])
    counts = []
    for n in (200, 2000):
        jets.clear()
        track_fixed_points(s, n)
        counts.append(dict(jets))
    assert counts[0] == counts[1]


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=40)
def test_series_prefix_consistency(n):
    # the length-n report is a prefix of the length-400 report
    full = distortion_series(scale_product_stream(2), 400, 0.2j)
    part = distortion_series(scale_product_stream(2), n, 0.2j)
    assert part.partial_sums == full.partial_sums[:n]
    assert part.products == full.products[:n]


def _exact_scale_term(a: float, v: complex) -> Fraction:
    """1 - f#(v) for f = Scale(a), a > 0, exactly in the floats a and v:
    f#(v) = a (1 - |v|^2) / (1 - a^2 |v|^2)."""
    a, r = Fraction(a), Fraction(v.real) ** 2 + Fraction(v.imag) ** 2
    return 1 - a * (1 - r) / (1 - a * a * r)


def test_basel_left_verdict_flips_where_the_exact_window_sum_predicts():
    # Basel (scale_product power 2) from the default base points: the
    # verdict turns summable once both trailing windows of summable_window
    # terms sum below summable_tol.  The second point's window decides;
    # its terms are rationals in the float factors and orbit points, so an
    # exact Fraction sum predicts the step.  Had the exact sum lain within
    # rounding (1e-12 relative) of the threshold, either verdict would do;
    # here it lies 4e-5 relative away on both sides of the flip.
    w = SeriesConfig().summable_window
    tol = Fraction(SeriesConfig().summable_tol)
    orbit = distortion_series(scale_product_stream(2), 3_400, 0.3 + 0.2j).orbit
    terms = [None] + [_exact_scale_term(1.0 - 1.0 / (n + 1) ** 2, orbit[n - 1]) for n in range(1, 3_401)]
    window = {n: sum(terms[n - w + 1 : n + 1]) for n in range(3_200, 3_401)}
    flip = min(n for n in window if window[n] < tol)
    assert all(window[n] < tol for n in range(flip, 3_401))  # the sums fall with n
    assert flip == 3_316
    for n in (flip - 1, flip):
        assert abs(window[n] - tol) > 1e-12 * tol
    stream = scale_product_stream(2)
    assert classify_left_limits(stream, flip - 1).kind == "inconclusive"
    assert classify_left_limits(stream, flip).kind == "nonconstant_limits"


@pytest.mark.parametrize("t, step", [(0.3, 10), (0.5, 6), (0.77, 3)])
def test_axis_translations_escape_at_the_predicted_step(t, step):
    # automorphisms moving along the axis (-1, 1) add their translation
    # lengths: omega(0, L_n(0)) = n atanh t, which first passes the escape
    # radius at n = ceil(radius / atanh t); escape needs _ESCAPE_RUN steps
    # beyond it, so classify reads it from that step + _ESCAPE_RUN - 1 on
    radius = criteria._ESCAPE_RADIUS
    assert step == math.ceil(radius / math.atanh(t))
    stream = GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(t, 0.0))])
    first_n = step + criteria._ESCAPE_RUN - 1
    assert classify_left_limits(stream, first_n - 1).kind == "inconclusive"
    for n in (first_n, first_n + 1, first_n + 5):
        assert classify_left_limits(stream, n).kind == "not_relatively_compact"


def _excursions(t: float, lengths: list) -> GeneratorStream:
    """A list stream under which the left orbit of 0, moved along the axis
    (-1, 1) by the automorphisms z |-> (z +- t)/(1 +- t z), goes from
    omega 2 atanh t out to 3 atanh t and back once for each entry of
    lengths, staying out for that many consecutive steps: the rotation
    Scale(-1) holds omega from 0 while the orbit stays out."""
    right, left, flip = Mobius(moebius.make_disc_auto(t, 0.0)), Mobius(moebius.make_disc_auto(-t, 0.0)), Scale(-1.0)
    maps, side = [right, right], 1  # the orbit's side of 0 (+1 or -1)
    for length in lengths:
        maps.append(right if side > 0 else left)
        maps += [flip] * (length - 1)
        side *= (-1) ** (length - 1)
        maps.append(left if side > 0 else right)
    return GeneratorStream.from_list(maps)


@pytest.mark.parametrize("long_run", [False, True], ids=["short-runs", "one-long-run"])
def test_the_escape_run_starts_again_when_the_orbit_comes_back(long_run):
    # omega(0, L_n(0)) moves between 2 atanh 0.77 = 2.04 and 3 atanh 0.77 =
    # 3.06, on either side of the escape radius 3: with runs of 2 steps
    # beyond it the run never reaches _ESCAPE_RUN = 3, however many
    # excursions add up; one run of 3 reads as escape from its last step on
    lengths = [2, 2, 3, 2, 2, 2] if long_run else [2] * 6
    stream = _excursions(0.77, lengths)
    N = len(stream.maps)
    cursor, beyond = LeftOrbitCursor(stream, (0j,), track_pairs=False), []
    for _ in range(N):
        beyond.append(math.atanh(abs(cursor.advance().values[0])) > criteria._ESCAPE_RADIUS)
    runs = [len(list(g)) for out, g in itertools.groupby(beyond) if out]
    assert runs == lengths
    escape = None
    if long_run:
        # the run's last step: the 2 steps out, two excursions of 3 steps
        # (2 beyond the radius, 1 back), then the run's _ESCAPE_RUN steps
        escape = 2 + 2 * 3 + criteria._ESCAPE_RUN
        assert beyond[escape - criteria._ESCAPE_RUN : escape] == [True] * criteria._ESCAPE_RUN
    for n in range(1, N + 1):
        escaped = classify_left_limits(stream, n).kind == "not_relatively_compact"
        assert escaped == (escape is not None and n >= escape)


class _ReferenceSeries(criteria._Series):
    """The fold with 1 - |L_n(z)|^2 formed afresh wherever it is read, and
    max for residual_max: the reference _Series.add must reproduce bit for
    bit."""

    def add(self, v, dv):
        d = holomap._distortion_from_jet(self.at, v, dv)
        term = 1.0 - d
        self.n += 1
        self.partial_sum += term
        self.product *= d
        self.deriv = dv if self.deriv is None else self.deriv * dv
        direct = abs(self.deriv) * self._base_gap / (1.0 - abs(v) ** 2)
        self.residual_max = max(self.residual_max, abs(direct - self.product))
        self.terms.append(term)
        self.products.append(self.product)
        self.at = v
        return term


def _recorded_classify(monkeypatch, fold, stream, N, pts):
    """classify_left_limits with fold as the series class; returns the
    report's repr and, per base point, the repr of every step's term,
    partial sum, product, derivative, residual_max and L_n(z), and of the
    final window deques."""
    series = []

    class Recording(fold):
        def __init__(self, z):
            super().__init__(z)
            self.steps = []
            series.append(self)

        def add(self, v, dv):
            term = super().add(v, dv)
            self.steps.append((term, self.partial_sum, self.product, self.deriv, self.residual_max, self.at))
            return term

    monkeypatch.setattr(criteria, "_Series", Recording)
    report = classify_left_limits(stream, N, pts)
    return repr(report), [(s.n, repr(s.steps), repr(s.terms), repr(s.products)) for s in series]


_FOLD_STREAMS = {
    "basel": lambda: scale_product_stream(2),
    "left_orbit_cycle": lambda: GeneratorStream.from_cycle([
        Scale(0.95 * cmath.exp(2.2j)),
        Compose((Scale(0.75), Blaschke((0.2 + 0.3j, -0.4j), 1.3))),
        HalfPlaneAffine(0.3 + 0.2j),
    ]),
    "contracting_pair": lambda: GeneratorStream.from_cycle([
        Compose((Scale(0.7), Blaschke((0.1j,), 0.5))),
        Compose((Scale(0.85), Blaschke((0.3, -0.2 + 0.1j), 2.0))),
    ]),
}


@pytest.mark.parametrize("name", sorted(_FOLD_STREAMS))
def test_the_fold_on_carried_gaps_equals_the_reference_fold(monkeypatch, name):
    # every partial sum, product, residual_max and window deque, bit for bit
    N, pts = 3000, (0j, 0.3 + 0.2j, -0.5 + 0.4j)
    got = _recorded_classify(monkeypatch, criteria._Series, _FOLD_STREAMS[name](), N, pts)
    want = _recorded_classify(monkeypatch, _ReferenceSeries, _FOLD_STREAMS[name](), N, pts)
    assert [n for n, *_ in got[1]] == [N] * len(pts)
    assert got == want
