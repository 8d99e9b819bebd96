"""Hand-built composition systems with prescribed limit behavior.

Two constructions live here.  The escape-and-return system alternates
long runs of a parabolic automorphism fixing the real point n (driving
the orbit of i out toward the boundary) with n applications of the
near-shift w -> w - 1 + i/n (bringing it back to the neighborhood of i
while lifting it by exactly +1).  The orbit therefore leaves every
compact set infinitely often and returns infinitely often, so the
system diverges nowhere compactly yet converges nowhere pointwise.

The density system realizes a prescribed sequence of disc
automorphisms as milestones of one left system whose generators are
all close to the identity: each target is reached by k equal
applications of a k-th root, with k chosen so each single generator
moves no point of a reference circle further than a stage budget that
halves at every stage.
"""

from __future__ import annotations

import cmath
import math

from . import holomap, moebius
from .geometry import HyperbolicBall, Record, _omega_raw
from .ifs import GeneratorStream
from .moebius import MoebiusMap

# half-plane maps, brought to the disc by moebius.to_disc
SHIFT = MoebiusMap(1.0, -1.0, 0.0, 1.0)    # w -> w - 1
ANCHOR = MoebiusMap(1.0, 0.0, 1.0, 1.0)    # w -> w / (w + 1), parabolic at 0


def rotated_shift(n: int) -> MoebiusMap:
    """Parabolic automorphism fixing the real point n, conjugate of the
    unit shift by the elliptic map (nw - 1)/(w + n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = MoebiusMap(float(n), -1.0, 1.0, float(n))
    return moebius.compose(phi, moebius.compose(SHIFT, moebius.inverse(phi)))


def inward_shift(n: int) -> holomap.HalfPlaneAffine:
    """w -> w - 1 + i/n; n applications move by exactly -n + i."""
    return holomap.HalfPlaneAffine(complex(-1.0, 1.0 / n))


_RATE_GRID = (1j, 0.5 + 1j, -0.5 + 2j, 3j, 2.0 + 0.5j)


class StageCert(Record):
    n: int
    k: int                   # length of the parabolic run
    value_before: complex    # orbit of i entering the stage
    value_out: complex       # after the parabolic run, near the real point n
    target_gap: float        # |value_out - n|, certified < 2^-n
    value_back: complex      # after the n inward shifts
    return_residual: float   # |value_back - (value_out - n + i)|
    shift_rate: float        # sup over a grid of |g_n(w) - (w - 1)|


class EscapeReturnBuild(Record):
    """Maps are 0-indexed; a milestone m marks the composition of maps
    0 through m inclusive, so maps m+1 entries and stream horizon m+1
    both correspond to milestone m."""

    requested_n: int
    achieved_n: int
    exhausted: bool
    maps: tuple              # f_0, f_1, ... as disc self-map expressions
    milestones: tuple        # m_0, m_1, ..., m_{2 achieved_n + 1}
    milestone_values: tuple  # orbit of i (half-plane) at each milestone
    certs: tuple

    @property
    def stream(self) -> GeneratorStream:
        """The maps as a 1-indexed stream: generator_at(s) is map s - 1.

        The build made every map itself, so they skip from_list's node check.
        """
        return GeneratorStream("list", self.maps)


_ESCAPE_K_CAP = 10_000_000  # longest parabolic run of one escape-return stage


def build_escape_return(n_max: int) -> EscapeReturnBuild:
    """Assemble the escape-and-return system through stage n_max.

    Stage n first repeats the parabolic automorphism fixing n until the
    orbit of i lands within 2^-n of n; the parabolic approach is like
    1/k, so the run length grows like (n^2 + 1) 2^n.  If the run would
    exceed _ESCAPE_K_CAP, or double precision stops making progress, the
    build stops and reports the last completed stage instead of guessing.
    """
    maps = [holomap.Mobius(moebius.to_disc(ANCHOR.entries(), moebius.DISC)), holomap.identity_map()]
    milestones = [0, 1]
    u = moebius.apply(ANCHOR, 1j)  # orbit of i after f_0; the identity f_1 leaves it
    values = [u, u]
    certs = []
    achieved = 0
    exhausted = False

    for n in range(1, n_max + 1):
        g = rotated_shift(n)
        gd = holomap.Mobius(moebius.to_disc(g.entries(), moebius.DISC))
        target = float(n)
        budget = 2.0**-n
        v = u
        k = 0
        a, b, c, d = g.entries()
        while abs(v - target) >= budget:
            # moebius.apply(g, v) in line: its float operations and pole check
            den = c * v + d
            if den == 0:
                raise moebius.SingularityError(f"pole of Moebius map at z = {v!r}")
            nxt = (a * v + b) / den
            k += 1
            if k > _ESCAPE_K_CAP:
                exhausted = True
                break
            if nxt == v:  # double precision stopped moving short of the budget
                exhausted = True
                break
            v = nxt
        if exhausted:
            break
        value_before = u
        u = v
        maps.extend([gd] * k)
        milestones.append(milestones[-1] + k)
        values.append(u)

        fshift = inward_shift(n)
        hp_shift = complex(-1.0, 1.0 / n)
        for _ in range(n):
            u = u + hp_shift
        maps.extend([fshift] * n)
        milestones.append(milestones[-1] + n)
        values.append(u)

        rate = max(abs(moebius.apply(g, w) - (w - 1.0)) for w in _RATE_GRID)
        certs.append(
            StageCert(
                n=n,
                k=k,
                value_before=value_before,
                value_out=v,
                target_gap=abs(v - target),
                value_back=u,
                return_residual=abs(u - (v - n + 1j)),
                shift_rate=rate,
            )
        )
        achieved = n

    return EscapeReturnBuild(
        requested_n=n_max,
        achieved_n=achieved,
        exhausted=exhausted,
        maps=tuple(maps),
        milestones=tuple(milestones),
        milestone_values=tuple(values),
        certs=tuple(certs),
    )


class CompactnessCert(Record):
    ball: HyperbolicBall
    returns: tuple  # (milestone index, omega to ball center) inside the ball
    exits: tuple    # (milestone index, omega to ball center) outside


def certify_not_compactly_divergent(build: EscapeReturnBuild, ball: HyperbolicBall) -> CompactnessCert:
    """Sort the milestone orbit of i into returns into and exits from a ball.

    The odd milestones (after the inward shifts) pile up near i, whose
    disc image is the origin, so they witness returns; the even ones sit
    near the real axis at distance n, witnessing exits.  A system whose
    orbit returns infinitely often cannot diverge compactly.
    """
    returns = []
    exits = []
    for idx in range(2, len(build.milestones)):
        m = build.milestones[idx]
        v = build.milestone_values[idx]
        # raw Cayley image: milestone values hug the real axis closely
        # enough that the validating constructor would reject them
        z = (v - 1j) / (v + 1j)
        om = _omega_raw(ball.center, z)
        if om <= ball.radius:
            returns.append((m, om))
        else:
            exits.append((m, om))
    return CompactnessCert(ball=ball, returns=tuple(returns), exits=tuple(exits))


# the 128 equally spaced sample points of the circle |z| = 0.9
_CIRCLE = tuple(0.9 * cmath.exp(2j * math.pi * t / 128) for t in range(128))


def sup_deviation(m: MoebiusMap) -> float:
    """Largest |m(z) - z| over the 128 points of _CIRCLE.  This is a
    maximum over the samples only; the maximum over the circle, which by
    the maximum principle would bound the deviation on the disc of radius
    0.9, can lie between samples and exceed it (ROADMAP item 2).

    Each point goes through the same float expression as
    `moebius.apply`, so the result is that of applying m point by point,
    and a pole on the circle raises `SingularityError` the same way.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    worst = 0.0
    for z in _CIRCLE:
        den = c * z + d
        if den == 0:
            raise moebius.SingularityError(f"pole of Moebius map at z = {z!r}")
        dev = abs((a * z + b) / den - z)
        if dev > worst:  # as max(worst, dev): a NaN deviation is never taken
            worst = dev
    return worst


class DenseStageCert(Record):
    index: int
    k: int
    delta: float        # stage budget for one generator's movement
    deviation: float    # sampled max deviation of the chosen root, not a bound (ROADMAP item 2)
    residual: float     # matrix distance between the milestone and the target


class DenseBuild(Record):
    targets: tuple
    maps: tuple
    milestones: tuple
    certs: tuple
    exhausted: bool


_K_CAP = 1_000_000  # largest count k a dense stage may cut its bridge into


def build_dense(targets) -> DenseBuild:
    """Hit each target automorphism as a milestone of one left system.

    Stage j must bridge from the previous milestone to target j; the
    bridge M is cut into k equal k-th roots, with k the least count in
    1.._K_CAP whose root moves none of the 128 points of _CIRCLE further
    than 2^-j (sup_deviation).  Identity bridges contribute no
    generators.  If no k up to _K_CAP passes (_K_CAP = 0 included), the
    build stops with exhausted=True and no certificate for that stage.
    A stage whose milestone misses its target by more than 1e-8 in
    matrix distance is certified and ends the build with exhausted=True.

    The least k is found by a safeguarded secant search on the model
    dev(k) ~ C/k: the root runs along the one-parameter subgroup through
    M, and its deviation falls roughly like the bridge's displacement
    over k.  The first probe of a stage is at twice the previous cut
    count (1 before the first cut), since the budget halves; each later
    probe is at ceil(k dev / delta) from the latest probe, clamped into
    the open bracket (lo, hi) between the largest failing and the least
    passing count probed so far (hi = _K_CAP + 1 while none has passed).
    When two probes in a row fail to halve the bracket, the next one
    bisects it (by the geometric mean while hi > 2 lo); when two probes
    with no pass fail to double lo, the next one is at 2 lo.  So a stage
    costs O(log k) roots and sup checks in the worst case, k the larger
    of the least count and the first probe, and two or three when the
    model holds, where trying k = 1, 2, 3, ... in turn cost k.  No count
    is probed twice or above _K_CAP, and the chosen (k, root, deviation)
    is the one computed by the probe at that k, so the generators and
    certificates are those of the scan.

    The search returns the least k as long as the pass/fail test is
    monotone on [k_least, K], K the largest count probed in the stage.
    A passing probe can overshoot: the first probe sits at twice the
    previous stage's count, whatever this bridge needs.  Over 1 186 cut
    stages (default count 16, the benchmark's dense target files for
    seeds 1-30 and 60 random 8-target sets with centres of modulus at
    most 0.9) K was at most 1.45 k_least on the default targets, 1.2
    k_least on the target files and 20.2 k_least on the random sets, and
    on every stage all counts below k_least failed and all counts in
    [k_least, K] passed.
    """
    targets = tuple(targets)
    maps = []
    milestones = [0]
    certs = []
    L = moebius.identity()
    exhausted = False
    guess = 1  # first probe of the next stage
    for j, tgt in enumerate(targets, start=1):
        if tgt.domain != moebius.DISC:
            raise ValueError(f"target {j} is not a disc automorphism")
        bridge = moebius.compose(tgt, moebius.inverse(L))
        delta = 2.0**-j
        if moebius.matrix_distance(bridge, moebius.identity()) < 1e-15:
            milestones.append(len(maps))
            certs.append(DenseStageCert(j, 0, delta, 0.0, moebius.matrix_distance(L, tgt)))
            L = tgt
            continue

        # every probed k <= lo fails; chosen is the probe at hi, which
        # passes, or None with hi = _K_CAP + 1 while no probe has passed
        lo, hi, chosen = 0, _K_CAP + 1, None
        k = min(guess, _K_CAP)
        back = last = (lo, hi)  # the bracket two probes and one probe ago
        while hi - lo > 1:
            root = moebius.kth_root(bridge, k)
            dev = sup_deviation(root)
            if dev <= delta:
                chosen, hi = (k, root, dev), k
            else:
                lo = k
            if chosen is None and lo < 2 * back[0]:
                k = 2 * lo  # lo did not double in two probes
            elif chosen is not None and 2 * (hi - lo) > back[1] - back[0]:
                # the bracket did not halve in two probes: bisect it, by
                # the geometric mean while hi > 2 lo (k = 1 if none failed)
                k = math.isqrt(lo * hi) if hi > 2 * lo else (lo + hi) // 2
            else:
                # dev(k) ~ C / k puts the least passing count at k dev / delta
                k = hi - 1 if k * dev >= (hi - 1) * delta else math.ceil(k * dev / delta)
            k = min(max(k, lo + 1), hi - 1)
            back, last = last, (lo, hi)
        if chosen is None:
            exhausted = True
            break
        k, root, dev = chosen
        guess = 2 * k  # delta halves, so the next stage's count about doubles
        maps.extend([holomap.Mobius(root)] * k)
        milestones.append(len(maps))
        L = moebius.compose(moebius.power(root, k), L)
        residual = moebius.matrix_distance(L, tgt)
        certs.append(DenseStageCert(j, k, delta, dev, residual))
        if residual > 1e-8:
            exhausted = True
            break
        L = tgt  # snap to the exact target so stage errors do not compound
    return DenseBuild(
        targets=targets,
        maps=tuple(maps),
        milestones=tuple(milestones),
        certs=tuple(certs),
        exhausted=exhausted,
    )


def default_dense_targets(count: int) -> tuple:
    """Deterministic enumeration of automorphisms with dyadic data.

    Centers run over points (p/2^l, q/2^l) with p, q odd (each level
    contributes only its new points), kept inside radius 0.9 and ordered
    by modulus; rotation angles cycle through the eighths of the turn.
    The enumeration visits every odd-dyadic center as count grows.
    """
    targets = []
    level = 1
    j = 0
    while len(targets) < count:
        step = 2.0**-level
        pts = []
        for p in range(-(2**level) + 1, 2**level, 2):
            for q in range(-(2**level) + 1, 2**level, 2):
                a = complex(p * step, q * step)
                if abs(a) <= 0.9:
                    pts.append(a)
        pts.sort(key=lambda a: (abs(a), math.atan2(a.imag, a.real) % (2 * math.pi)))
        for a in pts:
            if len(targets) >= count:
                break
            theta = 2.0 * math.pi * (j % 8) / 8.0
            targets.append(moebius.make_disc_auto(a, theta))
            j += 1
        level += 1
        if level > 24:
            raise ValueError("count too large for the dyadic enumeration")
    return tuple(targets)
