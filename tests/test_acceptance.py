"""Acceptance gate: thirteen end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
Each check exercises a full pipeline at its stated tolerance; the
individual unit suites pin the finer-grained behavior.
"""

import cmath
import contextlib
import filecmp
import json
import math
import random

import pytest

from ifslab import bounds, cli, criteria, gallery, holomap, ifs, moebius, straighten
from ifslab.geometry import HyperbolicBall, disc_distance
from ifslab.holomap import Blaschke, Compose, HalfPlaneAffine, Mobius, Monomial, Scale
from ifslab.ifs import BackwardOrbit, GeneratorStream, LeftOrbitCursor, RightOrbitState

ATANH_HALF = 0.5493061443340548  # = atanh(1/2) = (1/2) ln 3
ATANH_08 = 1.0986122886681098


@contextlib.contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {label}")
        raise
    print(f"[criterion {num:02d}] PASS  {label}")


def _point(rng: random.Random, radius: float) -> complex:
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _scale_stream(power: float) -> GeneratorStream:
    return GeneratorStream.from_rule(
        lambda n: Scale(1.0 - 1.0 / (n + 1) ** power), "scale_product", {"power": power}
    )


def test_criterion_01_schwarz_pick_isometry():
    with _criterion(1, "Schwarz-Pick semicontraction and automorphism isometry"):
        rng = random.Random(101)
        for _ in range(10_000):
            f = bounds.random_self_map(rng)
            z, w = _point(rng, 0.9), _point(rng, 0.9)
            d0 = disc_distance(z, w)
            d1 = disc_distance(holomap.eval_raw(f, z), holomap.eval_raw(f, w))
            assert d1 <= d0 + 1e-10
        for _ in range(10_000):
            g = moebius.random_disc_auto(rng)
            z, w = _point(rng, 0.9), _point(rng, 0.9)
            d0 = disc_distance(z, w)
            d1 = disc_distance(moebius.apply(g, z), moebius.apply(g, w))
            assert abs(d1 - d0) <= 1e-10
            assert abs(holomap.distortion(Mobius(g), z) - 1.0) <= 1e-10


def test_criterion_02_distortion_calculus():
    with _criterion(2, "distortion chain rule and distance-quotient oracle"):
        rng = random.Random(202)
        for _ in range(10_000):
            f = bounds.random_self_map(rng)
            g = bounds.random_self_map(rng)
            z = _point(rng, 0.7)
            lhs = holomap.distortion(Compose((g, f)), z)
            rhs = holomap.distortion(g, holomap.eval_raw(f, z)) * holomap.distortion(f, z)
            assert abs(lhs - rhs) <= 1e-10
        h = 1e-5
        for _ in range(1_000):
            f = bounds.random_self_map(rng)
            z = _point(rng, 0.5)
            w = z + h * cmath.exp(2j * math.pi * rng.random())
            quotient = disc_distance(holomap.eval_raw(f, z), holomap.eval_raw(f, w)) / disc_distance(z, w)
            assert abs(quotient - holomap.distortion(f, z)) <= 1e-4


def test_criterion_03_inequality_margins():
    with _criterion(3, "inequality margins hold over 10^4 fuzz draws per kind"):
        for kind in bounds.MARGIN_KINDS:
            rep = bounds.fuzz_margins(kind, 10_000, seed=2026)
            assert rep.min_margin >= -1e-9, (kind, rep.min_margin)
        witness = bounds.margin("lipschitz_2", Monomial(2), 0.5, 0.0)
        assert abs(witness.lhs - ATANH_08) < 1e-9
        assert abs(witness.lhs - witness.rhs) < 1e-9


def test_criterion_04_telescoping_straightening():
    with _criterion(4, "telescoping stream straightens to z/2 at N = 10^4"):
        stream = _scale_stream(2.0)
        res = straighten.left_straighten(stream, 10_000)
        sup = max(abs(h - z / 2.0) for z, h in zip(res.grid, res.h_grid))
        assert sup < 1e-3
        trace = (1.0,) + criteria.distortion_series(stream, 10_000, 0j).products
        val = trace[-1]
        assert abs(val - 0.5) <= 5e-5
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def _canned_streams():
    rots = [moebius.make_disc_auto(0.0, 0.7), moebius.make_disc_auto(0.0, 2.1)]
    parabolic = moebius.to_disc(moebius.MoebiusMap(1.0, 1.0, 0.0, 1.0, moebius.HALF_PLANE))
    streams = [
        _scale_stream(1.0),
        _scale_stream(1.5),
        _scale_stream(2.0),
        _scale_stream(3.0),
        GeneratorStream.from_cycle([Monomial(2)]),
        GeneratorStream.from_cycle([Monomial(3)]),
        GeneratorStream.from_cycle([Scale(0.5)]),
        GeneratorStream.from_cycle([Scale(0.9j)]),
        GeneratorStream.from_cycle([Mobius(rots[0])]),
        GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(0.3, 0.0))]),
        GeneratorStream.from_cycle([Mobius(parabolic)]),
        GeneratorStream.from_cycle([Blaschke((0.2, -0.3), 0.4)]),
        GeneratorStream.from_cycle([Blaschke((0.1j,), 0.0)]),
        GeneratorStream.from_cycle(
            [Compose((Mobius(moebius.make_disc_auto(0.1, 0.0)), Scale(0.5)))]
        ),
        GeneratorStream.from_cycle([Monomial(2), Mobius(rots[1])]),
        GeneratorStream.from_cycle([Scale(0.8), Blaschke((0.3,), 0.2)]),
    ]
    for k in range(1, 5):
        streams.append(GeneratorStream.from_cycle([bounds.random_self_map(random.Random(k))]))
    return streams


def test_criterion_05_left_limit_classification():
    with _criterion(5, "left verdicts: base points agree; Basel nonconstant, harmonic constant"):
        streams = _canned_streams()
        assert len(streams) == 20
        for stream in streams:
            rep = criteria.classify_left_limits(stream, 2500)
            assert rep.agreement, stream.kind
        basel = criteria.classify_left_limits(_scale_stream(2.0), 10_000)
        assert basel.kind == "nonconstant_limits"
        harmonic = criteria.classify_left_limits(_scale_stream(1.0), 10_000)
        assert harmonic.kind == "constant_limits"
        assert all(abs(z) < 1e-4 for z in harmonic.limit_estimates)
        for rep in (basel, harmonic):
            for series in rep.series:
                assert series.product_residual_max < 1e-9


def test_criterion_06_right_limit_classification():
    with _criterion(6, "right verdicts: harmonic constant to 0, Basel nonconstant to z/2"):
        harmonic = criteria.classify_right_limits(_scale_stream(1.0), 10_000, z0=0.7)
        assert harmonic.kind == "constant_limit"
        assert abs(harmonic.limit_estimate) < 1e-4
        basel = criteria.classify_right_limits(_scale_stream(2.0), 10_000, z0=0.5)
        assert basel.kind == "nonconstant_limit"
        grid = straighten.DEFAULT_GRID
        cur = RightOrbitState(_scale_stream(2.0), grid)
        for _ in range(10_000):
            cur.advance()
        assert max(abs(v - z / 2.0) for z, v in zip(grid, cur.values)) < 1e-3


def test_criterion_07_backward_orbit_straightening():
    with _criterion(7, "squaring backward orbit verifies and straightens to nonconstant h"):
        stream = GeneratorStream.from_cycle([Monomial(2)])
        orbit = BackwardOrbit(tuple(0.5 ** (2.0**-n) for n in range(41)))
        check = ifs.verify_backward_orbit(stream, orbit)
        assert check.ok and check.max_step_residual < 1e-12
        res = straighten.right_straighten(stream, orbit)
        assert res.converged and not res.degenerate
        assert all(g.real >= -1e-10 for g in res.gn_derivs)
        assert min(res.distortion_trace[-10:]) > 0.05


def test_criterion_08_mu_step():
    with _criterion(8, "mu-step of the a = 1/2 hyperbolic: exact value, grid inf, subadditive"):
        f = Mobius(moebius.make_disc_auto(0.5, 0.0))
        for N in (1, 2, 5, 20, 100, 1000):
            rep = straighten.mu_step(f, 0j, 1, N)
            assert rep.exact
            assert abs(rep.value - ATANH_HALF) <= 1e-9
            assert len(rep.trace) == N + 1
            assert all(t == rep.value for t in rep.trace)
        grid_inf = min(straighten.mu_step(f, z, 1, 10).value for z in straighten.DEFAULT_GRID)
        assert abs(grid_inf - 0.5 * math.log(3.0)) < 1e-3
        for z in (0j, 0.3 + 0.2j, -0.4 + 0.1j):
            s = {k: straighten.mu_step(f, z, k, 10).value for k in range(1, 11)}
            for mu in range(1, 6):
                for nu in range(1, 6):
                    assert s[mu + nu] <= s[mu] + s[nu] + 1e-8


def test_criterion_09_denjoy_wolff():
    with _criterion(9, "Denjoy-Wolff: squaring elliptic, a = 1/2 hyperbolic, shift parabolic"):
        d1 = holomap.denjoy_wolff(Monomial(2))
        assert d1.kind.startswith("elliptic")
        assert abs(d1.point) < 1e-9 and d1.multiplier < 1e-9
        d2 = holomap.denjoy_wolff(Mobius(moebius.MoebiusMap(1.0, 0.5, 0.5, 1.0, moebius.DISC)))
        assert d2.kind == "hyperbolic"
        assert abs(d2.point - 1.0) < 1e-6
        assert abs(d2.multiplier - 1.0 / 3.0) <= 1e-3
        d3 = holomap.denjoy_wolff(HalfPlaneAffine(1.0))
        assert d3.kind == "parabolic"
        assert abs(d3.point - 1.0) < 1e-6
        assert abs(d3.multiplier - 1.0) <= 1e-3


def test_criterion_10_escape_return_build():
    with _criterion(10, "escape-return build at n_max = 5: bookkeeping, certificates, returns"):
        build = gallery.build_escape_return(5)
        assert build.achieved_n == 5 and not build.exhausted
        m = build.milestones
        assert m[0] == 0 and m[1] == 1
        for n in range(1, 6):
            cert = build.certs[n - 1]
            assert m[2 * n] == m[2 * n - 1] + cert.k
            assert m[2 * n + 1] == m[2 * n] + n
            run = build.maps[m[2 * n - 1] + 1 : m[2 * n] + 1]
            assert len(run) == cert.k and all(g == run[0] for g in run)
            assert moebius.classify_auto(run[0].map).kind == "parabolic"
            shift_run = build.maps[m[2 * n] + 1 : m[2 * n + 1] + 1]
            assert shift_run == (gallery.inward_shift(n),) * n
            # n inward shifts move any half-plane point by exactly -n + i
            w = 2.0 + 3.0j
            for _ in range(n):
                w += shift_run[0].translation
            assert abs(w - (2.0 + 3.0j - n + 1j)) < 1e-12
            assert cert.return_residual < 1e-12
            # escape certificate and return certificate at this stage
            assert abs(build.milestone_values[2 * n]) > n - 2.0**-n
            assert abs(build.milestone_values[2 * n + 1] - 1j) < 2.0**-n
        cc = gallery.certify_not_compactly_divergent(build, HyperbolicBall(0.0, 1.0))
        assert len(cc.returns) >= 4 and len(cc.exits) >= 4


def test_criterion_11_dense_build():
    with _criterion(11, "dense build realizes 10 dyadic targets within certified budgets"):
        build = gallery.build_dense(gallery.default_dense_targets(10))
        assert not build.exhausted and len(build.certs) == 10
        for j, cert in enumerate(build.certs, start=1):
            assert cert.residual < 1e-8
            assert cert.deviation <= 2.0**-j
        devs = [c.deviation for c in build.certs]
        assert all(b < a for a, b in zip(devs, devs[1:]))


def test_criterion_12_fixed_point_tracking():
    with _criterion(12, "fixed-point track reproduces the limit; rotation stream refused"):
        target = math.sqrt(27.0) - 5.0
        stream = GeneratorStream.from_rule(
            lambda n: Compose(
                (Mobius(moebius.make_disc_auto(0.1 + 0.01 / n**2, 0.0)), Scale(0.5))
            ),
            "contraction_demo",
            {},
        )
        rep = criteria.track_fixed_points(stream, 1000)
        assert rep.residual_max < 1e-10
        assert abs(rep.limit_estimate - target) < 1e-6
        cur = LeftOrbitCursor(stream, (0j, -0.4 + 0.3j))
        for _ in range(1000):
            cur.advance()
        assert all(abs(v - target) < 1e-6 for v in cur.values)
        rotations = GeneratorStream.from_cycle([Mobius(moebius.make_disc_auto(0.0, 0.9))])
        with pytest.raises(criteria.TrackingRefusal):
            criteria.track_fixed_points(rotations, 200)


def test_criterion_13_artifact_determinism(tmp_path):
    with _criterion(13, "CLI artifacts are byte-identical across same-seed reruns"):
        basel = '{"type": "rule", "name": "scale_product", "params": {"power": 2}}'
        harmonic = '{"type": "rule", "name": "scale_product", "params": {"power": 1}}'
        track = tmp_path / "track.json"
        track.write_text(
            json.dumps(
                ifs.stream_to_json(
                    GeneratorStream.from_cycle(
                        [Compose((Mobius(moebius.make_disc_auto(0.1, 0.0)), Scale(0.5)))]
                    )
                )
            ),
            encoding="utf-8",
        )
        commands = {
            "verify": ["verify", "--kind", "transfer", "--fuzz", "500", "--seed", "11"],
            "simulate": ["simulate", "--stream", basel, "-N", "100",
                         "--seed-point", "0", "--seed-point", "0.3+0.2j"],
            "classify": ["classify", "--stream", harmonic, "-N", "800"],
            "straighten": ["straighten", "--stream", basel, "-N", "150"],
            "gallery": ["gallery", "--example", "escape_return", "--nmax", "3", "--svg"],
            "fixed": ["fixed-points", "--stream", str(track), "-N", "200"],
        }
        for run in ("a", "b"):
            for name, argv in commands.items():
                out = tmp_path / run / name
                assert cli.main(["--out", str(out)] + argv) == 0
        compared = 0
        for name in commands:
            da, db = tmp_path / "a" / name, tmp_path / "b" / name
            files_a = sorted(p.name for p in da.iterdir())
            assert files_a == sorted(p.name for p in db.iterdir())
            for fname in files_a:
                assert filecmp.cmp(da / fname, db / fname, shallow=False), (name, fname)
                compared += 1
        assert compared >= 8
