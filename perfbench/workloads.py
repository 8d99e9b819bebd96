"""Seeded task lists for the four benchmark workloads.

A workload is one pass: a fixed list of task slots, each one `ifslab`
command line.  The slot structure (command, node kinds, horizon band) is
fixed per workload so that passes drawn from different seeds cost about
the same; the seed draws everything inside the slots: stream parameters,
horizons within their band, fuzz seeds and gallery targets.  Input files
(streams, backward orbits, target lists) are written by `prepare`, so the
program sees only command-line arguments and files.

Work units, used for ops_per_s, are counted from each task's artifacts
(see oracle._units): generator steps x tracked points for left_orbit and
right_orbit, generators emitted for auto_builds, fuzz draws for
margin_fuzz.
"""

from __future__ import annotations

import cmath
import json
import math
import pathlib
import random

DEFAULT_SEED = 1

# One line per workload: why it exists, the layers it loads and leaves
# alone, and the unit of ops_per_s.  BENCHMARK.json carries the same text.
WHY = {
    "left_orbit": "README running example, O(1) per step; loads holomap, geometry, straighten, "
    "criteria; not ifs.right, gallery, bounds; ops = generator steps x tracked points",
    "right_orbit": "replays stored compositions, O(n) per step, plus matrix streams; loads ifs.right, "
    "verify_backward; not gallery, bounds; ops = generator steps x tracked points",
    "auto_builds": "moebius matrix arithmetic, big artifacts and memory; loads moebius, gallery, cli.write; "
    "holomap barely, not bounds, criteria; ops = generators emitted",
    "margin_fuzz": "only workload on bounds; many short-lived validated matrices; loads bounds, "
    "moebius.construct, holomap; not ifs, gallery; ops = fuzz draws",
}

WORKLOADS = tuple(WHY)


def _cx(z: complex) -> list:
    return [z.real, z.imag]


def _scale(s: complex) -> dict:
    return {"kind": "scale", "factor": _cx(complex(s))}


def _blaschke(zeros, phase: float) -> dict:
    return {"kind": "blaschke", "zeros": [_cx(z) for z in zeros], "phase": phase}


def _compose(*parts) -> dict:
    return {"kind": "compose", "parts": list(parts)}


def _hp_affine(t: complex) -> dict:
    return {"kind": "hp_affine", "translation": _cx(complex(t))}


def _disc_auto(a: complex, theta: float):
    """Matrix of z -> e^{i theta} (z + a)/(1 + conj(a) z)."""
    ph = cmath.exp(1j * theta)
    return (ph, ph * a, a.conjugate(), 1.0 + 0j)


def _mobius(m) -> dict:
    return {"kind": "mobius", "matrix": [_cx(complex(e)) for e in m], "domain": "disc"}


def _rotation_about(c: complex, theta: float):
    """Elliptic automorphism: rotation by theta about the interior point c."""
    # phi_c^{-1} o rot o phi_c with phi_c(z) = (z - c)/(1 - conj(c) z)
    phi = (1.0 + 0j, -c, -c.conjugate(), 1.0 + 0j)
    phi_inv = (1.0 + 0j, c, c.conjugate(), 1.0 + 0j)
    rot = (cmath.exp(1j * theta), 0j, 0j, 1.0 + 0j)
    return _matmul(phi_inv, _matmul(rot, phi))


def _matmul(m, n):
    ma, mb, mc, md = m
    na, nb, nc, nd = n
    return (ma * na + mb * nc, ma * nb + mb * nd, mc * na + md * nc, mc * nb + md * nd)


def _apply(m, z: complex) -> complex:
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def _inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def _point(rng: random.Random, radius: float) -> complex:
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _band(rng: random.Random, centre: int) -> int:
    """A horizon within +-3% of the slot's centre."""
    return int(round(centre * (0.97 + 0.06 * rng.random())))


def _cycle(gens) -> dict:
    return {"type": "cycle", "generators": list(gens)}


def _scale_product(power: float) -> dict:
    return {"type": "rule", "name": "scale_product", "params": {"power": power}}


def _contraction(rng: random.Random, zeros: int) -> dict:
    """Compose(Scale, Blaschke): a strict contraction."""
    return _compose(
        _scale(0.6 + 0.3 * rng.random()),
        _blaschke([_point(rng, 0.6) for _ in range(zeros)], 2 * math.pi * rng.random()),
    )


def _left_cycle(rng: random.Random) -> dict:
    return _cycle(
        [
            _scale((0.9 + 0.09 * rng.random()) * cmath.exp(2j * math.pi * rng.random())),
            _contraction(rng, 2),
            _hp_affine(complex(2.0 * rng.random() - 1.0, 0.5 * rng.random())),
        ]
    )


def _points(rng: random.Random, flag: str, count: int) -> list:
    return [f"{flag}={_fmt(_point(rng, 0.6))}" for _ in range(count)]


# Slot lists are shaped so that the median and the tail percentile of a
# run's successful samples fall inside a block of samples from slots of
# about the same cost, not on the edge between two slots of different
# cost, where they would jump from run to run: an odd number of
# successful slots (9, 9, 9, 5); in left_orbit six of the nine cost
# 270-340 ms on the baseline VM and in right_orbit seven cost 300-350 ms,
# between cheaper and dearer slots; in auto_builds the default dense build runs
# three times so that the median lands mid-block, and escape_return at
# nmax 8 twice so that p75 does.
# A pass takes about 3 s (margin_fuzz 0.7 s), so a 20 s run holds about
# 63 successful samples (margin_fuzz 150).  TAIL_PERCENTILE is the highest
# of p75, p90, p95 with at least ten of them beyond it: p75 needs 40
# samples, p90 100 and p95 200.  It is fixed per workload rather than
# chosen per run, because the host's speed moves the sample count of a
# run by up to 1.7x and the percentile must not change with it.
TAIL_PERCENTILE = {"left_orbit": 75.0, "right_orbit": 75.0, "auto_builds": 75.0, "margin_fuzz": 90.0}


def _left_orbit(rng: random.Random):
    return [
        ["classify", "--stream", _scale_product(rng.uniform(1.8, 2.2)), "-N", _band(rng, 12_000)],
        ["classify", "--stream", _scale_product(rng.uniform(1.8, 2.2)), "-N", _band(rng, 12_000)],
        ["classify", "--stream", _left_cycle(rng), "-N", _band(rng, 6_000)]
            + _points(rng, "--base-point", 2),
        ["straighten", "--stream", _scale_product(rng.uniform(1.8, 2.0)), "-N", _band(rng, 3_000)],
        ["straighten", "--stream", _left_cycle(rng), "-N", _band(rng, 10_000)],
        ["simulate", "--stream", _left_cycle(rng), "-N", _band(rng, 12_000)]
            + _points(rng, "--seed-point", 2),
        ["simulate", "--stream", _scale_product(rng.uniform(1.8, 2.2)), "-N", _band(rng, 40_000)],
        ["simulate", "--stream", _scale_product(rng.uniform(1.8, 2.2)), "-N", _band(rng, 100_000)],
        ["fixed-points", "--stream", _cycle([_contraction(rng, 1), _contraction(rng, 2)]),
            "-N", _band(rng, 3_000)],
    ]


def _right_replay_cycle(rng: random.Random) -> dict:
    """Non-Moebius cycle: every step replays the stored composition."""
    return _cycle(
        [
            _blaschke([_point(rng, 0.6), _point(rng, 0.6)], 2 * math.pi * rng.random()),
            _contraction(rng, 1),
            {"kind": "monomial", "power": 2},
        ]
    )


def _right_orbit(rng: random.Random):
    centre = _point(rng, 0.5)
    rots = [_rotation_about(centre, rng.uniform(0.3, 2.0)) for _ in range(2)]
    elliptic = _cycle([_mobius(m) for m in rots])
    mixed = _cycle(
        [
            _scale(0.9 + 0.09 * rng.random()),
            _mobius(_rotation_about(_point(rng, 0.5), rng.uniform(0.5, 2.5))),
            _hp_affine(complex(2.0 * rng.random() - 1.0, 0.0)),
        ]
    )
    depth = rng.randint(30, 38)
    hyperbolic = _disc_auto(rng.uniform(0.4, 0.7) * cmath.exp(2j * math.pi * rng.random()), 0.0)
    return [
        # replay path: non-Moebius cycles, O(n) evaluations per step
        ["simulate", "--side", "right", "--stream", _right_replay_cycle(rng),
            "-N", _band(rng, 690)],
        ["classify", "--side", "right", "--stream", _right_replay_cycle(rng),
            "-N", _band(rng, 660)] + _points(rng, "--base-point", 1),
        ["classify", "--side", "right", "--stream", _right_replay_cycle(rng),
            "-N", _band(rng, 620)] + _points(rng, "--base-point", 1),
        ["simulate", "--side", "right", "--stream", _right_replay_cycle(rng),
            "-N", _band(rng, 480)] + _points(rng, "--seed-point", 2),
        ["straighten", "--side", "right", "--stream", elliptic,
            "--orbit", ("orbit", _backward_orbit(rots, _point(rng, 0.6), _band(rng, 850))), "-N", 20],
        ["straighten", "--side", "right", "--stream", _cycle([{"kind": "monomial", "power": 2}]),
            "--orbit", ("orbit", _squaring_orbit(rng.uniform(0.2, 0.7), depth)), "-N", depth],
        # matrix path: streams that collapse into one running product
        ["simulate", "--side", "right", "--stream", elliptic, "-N", _band(rng, 12_000)]
            + _points(rng, "--seed-point", 1),
        ["classify", "--side", "right", "--stream", _scale_product(rng.uniform(1.5, 3.0)),
            "-N", _band(rng, 7_600)],
        ["simulate", "--side", "right", "--stream", _scale_product(rng.uniform(1.5, 3.0)),
            "-N", _band(rng, 12_000)],
        # ROADMAP item 2 defects show on these matrix streams at these
        # horizons: contracting cycles go NaN in the unrenormalised
        # product, growing ones abort with a false "singular matrix"
        ["simulate", "--side", "right", "--stream", mixed, "-N", _band(rng, 10_000)]
            + _points(rng, "--seed-point", 1),
        ["classify", "--side", "right", "--stream", _cycle([_scale(rng.uniform(0.3, 0.6))]),
            "-N", _band(rng, 6_000)],
        ["simulate", "--side", "right", "--stream", _cycle([_mobius(hyperbolic)]),
            "-N", _band(rng, 2_000)],
    ]


def _backward_orbit(rots, w0: complex, n: int) -> list:
    """w_0 ... w_n with f_k(w_k) = w_{k-1} for the cycled automorphisms."""
    pts = [w0]
    for k in range(1, n + 1):
        pts.append(_apply(_inverse(rots[(k - 1) % len(rots)]), pts[-1]))
    return [_cx(w) for w in pts]


def _squaring_orbit(w0: float, depth: int) -> list:
    return [[w0 ** (2.0**-k), 0.0] for k in range(depth + 1)]


def _targets(rng: random.Random, count: int) -> list:
    """Targets t_j = g_j o t_{j-1}, each step g_j a fixed-size move in a
    seed-drawn direction.  Every bridge build_dense must cut is then a
    rotation conjugate of the same map, so the seed moves the targets
    without moving the cost."""
    t = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    out = []
    for _ in range(count):
        t = _matmul(_disc_auto(0.35 * cmath.exp(2j * math.pi * rng.random()), 0.4), t)
        out.append(_mobius(t))
    return out


def _auto_builds(rng: random.Random):
    # cost order: targets 7 < targets 8 (x2) < default 8 (x3) < escape_return
    # nmax 8 (x2) < nmax 9, so the median falls mid-way through the three
    # default builds and p75 inside the two nmax 8 builds
    return [
        ["gallery", "--example", "dense", "--count", 8],
        ["gallery", "--example", "dense", "--targets", ("targets", _targets(rng, 8))],
        ["gallery", "--example", "dense", "--targets", ("targets", _targets(rng, 8))],
        ["gallery", "--example", "dense", "--targets", ("targets", _targets(rng, 7))],
        ["gallery", "--example", "escape_return", "--svg", "--nmax", 9],
        ["gallery", "--example", "escape_return", "--svg", "--nmax", 8],
        ["gallery", "--example", "dense", "--count", 8],
        ["gallery", "--example", "escape_return", "--svg", "--nmax", 8],
        ["gallery", "--example", "dense", "--count", 8],
    ]


# draws per kind, set so each verify task costs about the same
_FUZZ_DRAWS = (("euclid_gap", 4_800), ("lipschitz_2", 1_950), ("transfer", 1_950),
               ("approx_auto", 975), ("approx_auto", 975))


def _margin_fuzz(rng: random.Random):
    return [
        ["verify", "--kind", kind, "--fuzz", _band(rng, draws), "--seed", rng.randrange(10**6)]
        for kind, draws in _FUZZ_DRAWS
    ]


_SLOTS = {
    "left_orbit": _left_orbit,
    "right_orbit": _right_orbit,
    "auto_builds": _auto_builds,
    "margin_fuzz": _margin_fuzz,
}


def _fmt(z: complex) -> str:
    return "%.17g%+.17gj" % (z.real, z.imag)


def prepare(workload: str, seed: int, indir: pathlib.Path) -> list:
    """Generate one pass of tasks; write their input files under indir.

    Returns dicts with the task id and the argv (minus --out), whose
    first entry is the subcommand.  Stream specs go inline as JSON; orbits and target lists go
    to files.
    """
    rng = random.Random(f"{workload}/{seed}")
    indir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for i, raw in enumerate(_SLOTS[workload](rng)):
        argv = []
        for item in raw:
            if isinstance(item, dict):
                item = json.dumps(item, sort_keys=True)
            elif isinstance(item, tuple):
                path = indir / f"t{i:02d}-{item[0]}.json"
                path.write_text(json.dumps(item[1]), encoding="utf-8")
                item = str(path)
            argv.append(str(item))
        tasks.append({"id": f"{workload}/{i:02d}-{argv[0]}", "argv": argv})
    return tasks
