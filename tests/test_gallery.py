"""The two showcase constructions: the escape-and-return system whose
orbit visits every scale yet keeps coming back, and the left system
whose milestones sweep a dense family of automorphisms."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import gallery, holomap, moebius
from ifslab.gallery import (
    ANCHOR,
    SHIFT,
    DenseStageCert,
    build_dense,
    build_escape_return,
    certify_not_compactly_divergent,
    default_dense_targets,
    inward_shift,
    rotated_shift,
    sup_deviation,
)
from ifslab.geometry import HyperbolicBall
from ifslab.ifs import LeftOrbitCursor

ER_MILESTONES = (0, 1, 7, 8, 30, 32, 116, 119, 396, 400, 1238, 1243)
ER_RUN_LENGTHS = (6, 22, 84, 277, 838)
DENSE_RUN_LENGTHS = (
    4, 12, 23, 46, 71, 98, 196, 392, 1106, 3451, 5401, 13803, 21604, 55209, 86413, 220833,
)
DENSE_LAST_DEVIATIONS = (6.103410099858941e-05, 3.0517272885790858e-05, 1.5258732545335276e-05)


@pytest.fixture(scope="module")
def build5():
    return build_escape_return(5)


@pytest.fixture(scope="module")
def dense16():
    return build_dense(default_dense_targets(16))


def _sup_deviation_by_loop(m, radius=0.9, samples=128):
    worst = 0.0
    for t in range(samples):
        z = radius * cmath.exp(2j * math.pi * t / samples)
        worst = max(worst, abs(moebius.apply(m, z) - z))
    return worst


def _dense_by_scan(targets, k_cap=1_000_000):
    """Reference: build_dense's certificates and exhausted flag with k
    found by trying k = 1, 2, 3, ... in turn."""
    certs = []
    L = moebius.identity()
    for j, tgt in enumerate(targets, start=1):
        bridge = moebius.compose(tgt, moebius.inverse(L))
        delta = 2.0**-j
        if moebius.matrix_distance(bridge, moebius.identity()) < 1e-15:
            certs.append(DenseStageCert(j, 0, delta, 0.0, moebius.matrix_distance(L, tgt)))
            L = tgt
            continue
        for k in range(1, k_cap + 1):
            root = moebius.kth_root(bridge, k)
            dev = _sup_deviation_by_loop(root)
            if dev <= delta:
                break
        else:
            return tuple(certs), True
        residual = moebius.matrix_distance(moebius.compose(moebius.power(root, k), L), tgt)
        certs.append(DenseStageCert(j, k, delta, dev, residual))
        if residual > 1e-8:
            return tuple(certs), True
        L = tgt
    return tuple(certs), False


def test_anchor_and_shift_shapes():
    assert moebius.apply(SHIFT, 3.0 + 1j) == 2.0 + 1j
    assert moebius.apply(ANCHOR, 0.0) == 0.0
    assert moebius.classify_auto(moebius.to_disc(ANCHOR.entries(), moebius.DISC)).kind == "parabolic"


@pytest.mark.parametrize("n", [1, 3, 7])
def test_rotated_shift_is_parabolic_at_n(n):
    g = rotated_shift(n)
    assert moebius.apply(g, complex(n)) == pytest.approx(complex(n), abs=1e-12)
    assert moebius.classify_auto(moebius.to_disc(g.entries(), moebius.DISC)).kind == "parabolic"


def test_rotated_shift_approaches_unit_shift():
    def rate(n):
        g = rotated_shift(n)
        return max(abs(moebius.apply(g, w) - (w - 1.0)) for w in (1j, 3j, 0.5 + 1j))

    assert rate(8) < rate(2)
    with pytest.raises(ValueError):
        rotated_shift(0)


def test_inward_shift_data():
    s = inward_shift(4)
    assert s.translation == complex(-1.0, 0.25)
    assert s.scale == 1.0


def test_escape_return_frozen_shape(build5):
    assert build5.achieved_n == 5
    assert not build5.exhausted
    assert build5.milestones == ER_MILESTONES
    assert tuple(c.k for c in build5.certs) == ER_RUN_LENGTHS
    assert len(build5.maps) == build5.milestones[-1] + 1
    assert len(build5.milestone_values) == len(build5.milestones)


def test_escape_return_stops_exhausted_at_the_run_cap(monkeypatch):
    # stage 4 needs a parabolic run of 277, past a cap of 100: the build
    # reports the three stages it completed, and nothing of the fourth
    monkeypatch.setattr(gallery, "_ESCAPE_K_CAP", 100)
    b = build_escape_return(5)
    assert b.requested_n == 5 and b.achieved_n == 3 and b.exhausted
    assert tuple(c.k for c in b.certs) == ER_RUN_LENGTHS[:3] == (6, 22, 84)
    assert b.milestones == ER_MILESTONES[:8]
    assert len(b.maps) == b.milestones[-1] + 1 == 120


def test_escape_return_milestone_arithmetic(build5):
    m = build5.milestones
    assert m[0] == 0 and m[1] == 1
    for n in range(1, build5.achieved_n + 1):
        cert = build5.certs[n - 1]
        assert m[2 * n] == m[2 * n - 1] + cert.k
        assert m[2 * n + 1] == m[2 * n] + n


def test_escape_return_certificates(build5):
    for cert in build5.certs:
        assert cert.target_gap < 2.0**-cert.n
        assert cert.return_residual < 1e-12
        assert abs(cert.value_out - cert.n) == cert.target_gap
    rates = [c.shift_rate for c in build5.certs]
    assert rates[-1] < rates[0]  # the stage parabolics drift toward w - 1


def test_escape_return_orbit_crosscheck(build5):
    # replay the stream at the disc image of i and compare against the
    # recorded half-plane milestone values through the raw Cayley map
    cur = LeftOrbitCursor(build5.stream, seeds=(0j,), track_pairs=False)
    horizon = {0: 0j}
    for step in range(1, build5.milestones[-1] + 2):
        cur.advance()
        horizon[step] = cur.values[0]
    for idx, m in enumerate(build5.milestones):
        v = build5.milestone_values[idx]
        img = (v - 1j) / (v + 1j)
        assert abs(horizon[m + 1] - img) < 1e-9


def test_escape_return_compactness_certificate(build5):
    cert = certify_not_compactly_divergent(build5, HyperbolicBall(0.0, 1.0))
    assert len(cert.returns) >= 4
    assert len(cert.exits) >= 4
    assert all(om <= 1.0 for _, om in cert.returns)
    assert all(om > 1.0 for _, om in cert.exits)
    # returns happen exactly at the post-shift milestones
    assert tuple(m for m, _ in cert.returns) == build5.milestones[3::2]
    assert tuple(m for m, _ in cert.exits) == build5.milestones[2::2]


def test_sup_deviation():
    assert sup_deviation(moebius.identity()) == 0.0
    small = sup_deviation(moebius.make_disc_auto(0.05, 0.0))
    large = sup_deviation(moebius.make_disc_auto(0.2, 0.0))
    assert 0.0 < small < large
    rng = random.Random(11)
    for _ in range(200):
        m = moebius.random_disc_auto(rng, 0.9)
        assert sup_deviation(m) == _sup_deviation_by_loop(m)
    # the first sample point is z = radius, the pole of this GENERIC map
    pole = moebius.MoebiusMap(1.0, 0.0, 1.0, -0.9, moebius.GENERIC)
    with pytest.raises(moebius.SingularityError):
        sup_deviation(pole)


def test_dense_frozen_shape(dense16):
    assert not dense16.exhausted
    assert tuple(c.k for c in dense16.certs) == DENSE_RUN_LENGTHS
    assert dense16.milestones == (0,) + tuple(
        sum(DENSE_RUN_LENGTHS[:j]) for j in range(1, 17)
    )
    assert len(dense16.maps) == dense16.milestones[-1] == 408_662
    assert tuple(c.deviation for c in dense16.certs[-3:]) == DENSE_LAST_DEVIATIONS


def _probes_by_stage(monkeypatch, targets, deviation=None, k_cap=None):
    """build_dense(targets), under gallery._K_CAP = k_cap when given, and,
    per stage that probed, its bridge and the counts k it probed, in
    order.  With deviation given, a probe at k measures deviation(k) in
    place of the root's sampled deviation."""
    stages = {}
    last = []
    kth_root = moebius.kth_root

    def recording(g, k):
        stages.setdefault(id(g), (g, []))[1].append(k)
        last[:] = [k]
        return kth_root(g, k)

    monkeypatch.setattr(moebius, "kth_root", recording)
    if deviation is not None:
        monkeypatch.setattr(gallery, "sup_deviation", lambda root: deviation(*last))
    if k_cap is not None:
        monkeypatch.setattr(gallery, "_K_CAP", k_cap)
    build = build_dense(targets)
    monkeypatch.undo()
    return build, list(stages.values())


def _chain_targets(seed, count=8):
    """Targets t_j = g_j o t_(j-1), each g_j the same-size move in a
    seeded direction, as the benchmark's dense target files are built."""
    rng = random.Random(seed)
    t, out = moebius.identity(), []
    for _ in range(count):
        g = moebius.make_disc_auto(0.35 * cmath.exp(2j * math.pi * rng.random()), 0.4)
        t = moebius.compose(g, t)
        out.append(t)
    return tuple(out)


@pytest.mark.parametrize("count", [10, 16])
def test_dense_probes_a_few_roots_per_stage(monkeypatch, count):
    build, stages = _probes_by_stage(monkeypatch, default_dense_targets(count))
    assert tuple(c.k for c in build.certs) == DENSE_RUN_LENGTHS[:count]
    assert len(stages) == sum(1 for c in build.certs if c.k)
    probes = sum(len(ks) for _, ks in stages)
    assert probes <= 4 * len(stages)  # a scan of k = 1, 2, 3, ... makes 5 399 at count 10
    assert all(len(set(ks)) == len(ks) for _, ks in stages)


def test_dense_search_premise(monkeypatch):
    # the search returns the least k when pass/fail is monotone on
    # [k_least, K], K the largest count probed: check that range on every
    # stage, and how far the passing probes overshoot k_least
    for targets in [default_dense_targets(16)] + [_chain_targets(seed) for seed in range(1, 31)]:
        build, stages = _probes_by_stage(monkeypatch, targets)
        cut = [c for c in build.certs if c.k]
        assert len(cut) == len(stages)
        for cert, (bridge, ks) in zip(cut, stages):

            def passes(k):
                return sup_deviation(moebius.kth_root(bridge, k)) <= cert.delta

            assert cert.k == 1 or not passes(cert.k - 1)
            assert all(passes(k) for k in range(cert.k, max(ks) + 1))
            assert max(ks) <= 1.5 * cert.k


# deviation models far from C/k, in the count k alone: a slow and a fast
# power law, and pass/fail steps at K0 with deviations a factor 2 and 1%
# on either side of the first stage's budget 1/2 (later stages exhaust)
K0 = 77_777
_MODELS = {
    "slow": lambda k: 0.5 * (2_000 / k) ** 0.2,
    "fast": lambda k: 0.5 * (2_000 / k) ** 5,
    "step": lambda k: 0.3 if k >= K0 else 0.6,
    "crawl": lambda k: 0.495 if k >= K0 else 0.505,
}


@pytest.mark.parametrize("k_cap", [50_000, 100_000])
@pytest.mark.parametrize("model", sorted(_MODELS))
def test_dense_search_safeguards(monkeypatch, model, k_cap):
    # the secant steps miss on these models, so the bisection and
    # doubling fallbacks decide; the real roots still hit the targets
    dev = _MODELS[model]
    build, stages = _probes_by_stage(monkeypatch, default_dense_targets(3), dev, k_cap=k_cap)
    least = []  # of the monotone model per stage, by bisection; k_cap + 1 if none passes
    for j in (1, 2, 3):
        lo, hi = 0, k_cap + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if dev(mid) <= 2.0**-j else (mid, hi)
        least.append(hi)
        if hi > k_cap:
            break
    assert tuple(c.k for c in build.certs) + (k_cap + 1,) * build.exhausted == tuple(least)
    assert len(stages) == len(least)
    for (_, ks), k in zip(stages, least):
        assert len(set(ks)) == len(ks) and max(ks) <= k_cap
        # O(log k): at most three probes per doubling of lo or halving of the bracket
        assert len(ks) <= 6 * math.log2(2 * k)


_CENTRES = st.tuples(
    st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)
)


@given(st.lists(_CENTRES, min_size=1, max_size=5))
@settings(deadline=None)
def test_dense_matches_linear_scan(data):
    targets = tuple(moebius.make_disc_auto(r * cmath.exp(1j * phi), theta) for r, phi, theta in data)
    certs, exhausted = _dense_by_scan(targets)
    build = build_dense(targets)
    assert tuple(c.k for c in build.certs) == tuple(c.k for c in certs)
    assert build.certs == certs and build.exhausted == exhausted


# the default stages probe k = 1, 3, 4 | 8, 12, 11 | 24, 23, 22 | 46, 45 | ...
# when uncapped, so most of these caps cut a secant jump short
DENSE_CERTS_UNDER_CAP = {0: 0, 1: 0, 2: 0, 3: 0, 10: 1, 11: 1, 12: 2, 23: 3, 45: 3, 46: 4, 47: 4}


@pytest.mark.parametrize("k_cap", sorted(DENSE_CERTS_UNDER_CAP))
def test_dense_k_cap_is_the_largest_k_tried(monkeypatch, k_cap):
    targets = default_dense_targets(5)
    certs, exhausted = _dense_by_scan(targets, k_cap)
    build, stages = _probes_by_stage(monkeypatch, targets, k_cap=k_cap)
    assert build.exhausted == exhausted
    assert build.certs == certs
    assert len(build.certs) == DENSE_CERTS_UNDER_CAP[k_cap]
    for _, ks in stages:
        assert len(set(ks)) == len(ks)  # no k probed twice
        assert max(ks) <= k_cap


def test_dense_certificates(dense16):
    for j, cert in enumerate(dense16.certs, start=1):
        assert cert.index == j
        assert cert.delta == 2.0**-j
        assert cert.deviation <= cert.delta
        assert cert.residual <= 1e-8
    deltas = [c.delta for c in dense16.certs]
    assert all(b == a / 2 for a, b in zip(deltas, deltas[1:]))


def test_dense_milestones_hit_targets(dense16):
    # independent replay: multiply out the generator matrices and compare
    # the milestone compositions against the requested automorphisms
    upto = dense16.milestones[3]
    L = moebius.identity()
    hits = {}
    for i, expr in enumerate(dense16.maps[:upto], start=1):
        L = moebius.compose(expr.map, L)
        hits[i] = L
    for j in (1, 2, 3):
        got = hits[dense16.milestones[j]]
        assert moebius.matrix_distance(
            moebius.canonical(got), moebius.canonical(dense16.targets[j - 1])
        ) < 1e-6


def test_dense_identity_bridge_contributes_nothing():
    t = moebius.make_disc_auto(0.25, 0.0)
    b = build_dense((t, t))
    assert b.certs[1].k == 0
    assert b.milestones[1] == b.milestones[2]
    assert b.certs[1].deviation == 0.0


def test_dense_rejects_half_plane_target():
    with pytest.raises(ValueError):
        build_dense((moebius.MoebiusMap(1.0, 1.0, 0.0, 1.0),))  # w + 1, untagged


def test_default_dense_targets():
    ts = default_dense_targets(4)
    assert len(ts) == 4
    assert all(t.domain == moebius.DISC for t in ts)
    # level one contributes the four odd half-integer centers
    for t in ts:
        assert abs(moebius.apply(t, 0.0)) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    more = default_dense_targets(10)
    assert more[:4] == ts
