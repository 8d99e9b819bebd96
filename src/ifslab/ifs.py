"""Left and right iterated function systems of disc self-maps.

A generator stream is a deterministic sequence f_1, f_2, ... of self-maps
(index 0 is always the identity).  The left system composes new maps on
the outside, L_n = f_n o ... o f_1, so tracked orbit values advance in
O(1) per step and paired distances omega(L_n z, L_n w) never increase.
The right system composes on the inside, R_n = f_1 o ... o f_n, which
gives nested images and the step bound

    omega(R_{n-1} z, R_n z) <= omega(z, f_n z).

Right cost model: while every generator is fractional-linear (its
f.matrix() is not None), R_n is one raw matrix product, rescaled
exactly by powers of two, at O(1) per step.  Otherwise R_n(s) is
replayed through the stored composition: O(p) per step on a cycled
stream of period p, which reuses R_{n-p}, and O(n) per step on list and
rule streams.  A cycled stream also computes each position's matrix
entries and ledger bounds once.  Both engines stop checking what
double precision can no longer resolve: the left cursor freezes a
pair's distance ledger, the right one skips a step's ledger, and both
hold a seed's reported value under one rule (_Engine) while its
computed value lies within ~1600 ulps of the boundary; computed keeps
the unheld values.  The left cursor also keeps the generator f_n it
applied and, with jets on, the step derivatives f_n'(L_{n-1}(s)), so
every left orbit in criteria and straighten runs on it.
A right value that is not finite is a named abort (NonFiniteError),
never a silent NaN.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from . import holomap, moebius
from .geometry import _EPS, DomainError, HyperbolicBall, _omega_raw, disc_point, json_array, json_number
from .holomap import ConsistencyError, MapExpr, NonFiniteError, Scale

LEDGER_SLACK = 1e-10
# a boundary gap under which omega keeps less than two digits: a ledger
# noise term 16 eps / gap above 0.01
_SATURATED_GAP = 1600.0 * _EPS
_HELD_RADIUS = 1.0 - _SATURATED_GAP  # exact: |v| > this iff 1 - |v| < _SATURATED_GAP
# consecutive steps beyond the radius that orbit_bounded reads as escape
_ESCAPE_RUN = 3
_VERIFY_TOL = 1e-9  # verify_backward_orbit's bound on each |f_n(w_n) - w_{n-1}|
_BALL_RING = 8  # points that ball_samples takes on the ball's sphere

_UNIT_SCALE = Scale(1.0)


def _scale_product_rule(params: dict) -> Callable[[int], MapExpr]:
    power = json_number(params.get("power", 2.0), "scale_product power")
    if not (math.isfinite(power) and power > 0):
        raise DomainError(f"scale_product power must be finite and positive: {power!r}")
    new, put = object.__new__, object.__setattr__

    def rule(n: int) -> MapExpr:
        # 0 <= 1 - 1/(n+1)^power < 1 for the checked power, so the Scale is
        # built without its check (and + 0j is complex() of a value that is
        # never -0.0); past overflow 1.0 is that value correctly rounded
        try:
            factor = 1.0 - 1.0 / (n + 1) ** power + 0j
        except OverflowError:
            return _UNIT_SCALE
        f = new(Scale)
        put(f, "factor", factor)
        return f

    return rule


# Named stream rules available to the JSON loader.  Rules must be pure
# functions of the index so reruns reproduce streams bit for bit.
RULES: dict[str, Callable[[dict], Callable[[int], MapExpr]]] = {
    "scale_product": _scale_product_rule,
}


@dataclass(frozen=True)
class GeneratorStream:
    """Deterministic source of generators; generator_at(0) is the identity."""

    kind: str  # "list" | "cycle" | "rule"
    maps: tuple = ()
    rule: Callable[[int], MapExpr] | None = None

    @classmethod
    def from_list(cls, maps) -> "GeneratorStream":
        ms = tuple(maps)
        if not ms:
            raise ValueError("explicit stream needs at least one generator")
        holomap._require_nodes(ms, "stream generators")
        return cls("list", ms)

    @classmethod
    def from_cycle(cls, maps) -> "GeneratorStream":
        ms = tuple(maps)
        if not ms:
            raise ValueError("cycled stream needs at least one generator")
        holomap._require_nodes(ms, "stream generators")
        return cls("cycle", ms)

    @classmethod
    def from_rule(cls, rule: Callable[[int], MapExpr]) -> "GeneratorStream":
        return cls("rule", (), rule)

    def generator_at(self, n: int) -> MapExpr:
        if n > 0:  # every step's case first: rule, cycle, list
            if self.kind == "rule":
                return self.rule(n)
            if self.kind == "cycle":
                return self.maps[(n - 1) % len(self.maps)]
            if n > len(self.maps):
                raise IndexError(f"stream of length {len(self.maps)} has no generator {n}")
            return self.maps[n - 1]
        if n == 0:
            return holomap.identity_map()
        raise ValueError("stream index must be >= 0")

    def position(self, n: int) -> int | None:
        """The cycle position (n - 1) mod p of generator n; None off a cycle."""
        return (n - 1) % len(self.maps) if self.kind == "cycle" else None


def stream_from_json(obj: dict) -> GeneratorStream:
    if not isinstance(obj, dict):
        raise ValueError(f"a stream must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind in ("list", "cycle"):
        if "generators" not in obj:
            raise ValueError(f"{kind} stream lacks required key 'generators'")
        maps = [holomap.map_from_json(g) for g in json_array(obj["generators"], f"{kind} stream generators")]
        return GeneratorStream.from_list(maps) if kind == "list" else GeneratorStream.from_cycle(maps)
    if kind == "rule":
        name, params = obj.get("name"), obj.get("params", {})
        if not isinstance(name, str):
            raise ValueError(f"rule stream name must be a string: {name!r}")
        if not isinstance(params, dict):
            raise ValueError(f"rule stream params must be a JSON object: {params!r}")
        if name not in RULES:
            raise ValueError(f"unknown stream rule {name!r}")
        return GeneratorStream.from_rule(RULES[name](dict(params)))
    raise ValueError(f"unknown stream type {kind!r}")


class _Engine:
    """Seeds, values and the hold rule shared by both orbit engines.

    Each step computes the new value at every seed from the computed
    previous one (computed).  A seed is held exactly while its newly
    computed value lies in the band abs(v) > _HELD_RADIUS, within ~1600
    ulps of the boundary, where omega keeps less than two digits and the
    value may round onto the circle: values then keeps the seed's last
    reported value (the same object) and the seed is listed in
    saturated_seeds for good.  Once the computed value leaves the band,
    values follows it again.  A seed that itself lies in the band is
    reported at step 0 but never held for that: only computed values
    count.
    """

    def __init__(self, stream: GeneratorStream, seeds):
        self.stream = stream
        self.seeds = tuple(disc_point(z) for z in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.n = 0
        self.values = list(self.seeds)
        self.computed = self.values  # the engine's values at the seeds, held or not
        self.saturated_seeds = set()


class LeftOrbitCursor(_Engine):
    """Tracks L_n at a fixed set of seeds, one generator application per step.

    generator is the f_n of the last step.  With jets on, each step takes
    f_n.jet at every seed, which gives computed bit for bit as eval does,
    and derivs holds the step derivatives f_n'(L_{n-1}(s)) (1 at n = 0).
    With track_pairs on, every seed pair carries a distance ledger that
    must be non-increasing (up to LEDGER_SLACK); an increase trips a
    ConsistencyError since it would contradict the Schwarz-Pick bound.
    A pair whose computed orbit outruns double precision (an end of the
    step in the band of _Engine's hold rule, where omega keeps less than
    two digits) is frozen at its last accurate value and listed in
    saturated_pairs; monitoring it further would only ledger rounding
    noise.  Seeds follow _Engine's hold rule.
    """

    def __init__(self, stream: GeneratorStream, seeds, track_pairs: bool = True, jets: bool = False):
        super().__init__(stream, seeds)
        self.generator = None
        self.derivs = [1.0 + 0.0j] * len(self.seeds) if jets else None
        self.pair_distances = {}  # empty with track_pairs off
        self.saturated_pairs = set()
        if track_pairs:
            for i in range(len(self.seeds)):
                for j in range(i + 1, len(self.seeds)):
                    self.pair_distances[(i, j)] = _omega_raw(self.seeds[i], self.seeds[j])

    def advance(self) -> "LeftOrbitCursor":
        f = self.generator = self.stream.generator_at(self.n + 1)
        old = self.computed
        if self.derivs is None:
            new = [holomap.eval_raw(f, v) for v in old]
        else:
            new, derivs = [], []
            for v in old:
                w, d = f.jet(v)
                new.append(w)
                derivs.append(d)
            self.derivs = derivs
        if self.pair_distances:
            for (i, j), prev in self.pair_distances.items():
                if (i, j) in self.saturated_pairs:
                    continue
                # omega loses digits like eps/(1 - |z|) near the boundary;
                # genuine expansion is O(1) relative to the distance scale
                gap = min(1.0 - abs(new[i]), 1.0 - abs(new[j]), 1.0 - abs(old[i]), 1.0 - abs(old[j]))
                if gap < _SATURATED_GAP:
                    self.saturated_pairs.add((i, j))
                    continue
                d = _omega_raw(new[i], new[j])
                if d > prev + LEDGER_SLACK + 16.0 * _EPS / gap:
                    raise ConsistencyError(
                        f"left pair distance grew at step {self.n + 1}: {prev!r} -> {d!r}"
                    )
                self.pair_distances[(i, j)] = d
        values = new
        if max(map(abs, new)) > _HELD_RADIUS:
            values = list(new)
            for i, v in enumerate(new):
                if abs(v) > _HELD_RADIUS:
                    values[i] = self.values[i]
                    self.saturated_seeds.add(i)
        self.n += 1
        self.computed = new
        self.values = values
        return self


class RightOrbitState(_Engine):
    """Tracks R_n at fixed seeds, keeping the composed map as it grows.

    While every generator so far is fractional-linear (f.matrix() is not
    None), R_n is one running product of raw matrix entries, a plain
    4-tuple multiplied by each generator's entries in O(1) per step.
    When the entries' absolute sum leaves [1/4, 4] the product is
    rescaled by a power of two, which is exact and never reads the det.
    Otherwise R_n(s) is replayed through the stored composition, f_n
    first and f_1 last, which costs O(n) per step on list and rule
    streams.  A cycled stream of period p is linear in N: R_n = C o
    R_{n-p} with C = f_1 o ... o f_p, and the replay of R_n passes
    through R_{n-p}(s) after its first n - p evaluations, so applying
    f_p, ..., f_1 to the stored R_{n-p}(s) makes the same evaluations on
    the same floats and gives R_n(s) bit for bit in O(p).  A cycled
    stream keeps one record per position (n - 1) mod p (see _position);
    a position not yet replayed, whose steps so far ran on the matrix
    with its different rounding, replays in full once.

    Seeds follow _Engine's hold rule, and derivs with them.  The step
    ledger omega(R_{n-1}(s), R_n(s)) <= omega(s, f_n(s)) reads computed
    values and skips a step with either end in the band, so the step
    that releases a seed goes unchecked.  A value, derivative or matrix
    entry that is not finite raises NonFiniteError naming n.

    With jets on, derivs carries R_n'(s) at each seed: det/(cs + d)^2 on
    the matrix path, with the det kept as the running product of the
    generators' dets times the squared rescale factors, and the chain
    rule through each f_j's jet on a replay.  Values are the same bits
    with jets on or off.  Jets stay off by default: simulate reads only
    values, and carrying derivatives on every run measurably slowed the
    right_orbit benchmark.
    """

    def __init__(self, stream: GeneratorStream, seeds, jets: bool = False):
        super().__init__(stream, seeds)
        self.derivs = [1.0 + 0.0j] * len(self.seeds) if jets else None
        self.parts = []  # f_1 ... f_n in order
        # entries (a, b, c, d) of R_n up to a power-of-two scale, and their
        # det, which only derivatives read
        self.matrix: tuple | None = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
        self._det = 1.0 + 0.0j if jets else None
        # cycle position (n - 1) mod p -> what _position returns
        self._by_position: dict[int, list] = {}

    def advance(self) -> "RightOrbitState":
        n = self.n + 1
        f = self.stream.generator_at(n)
        self.parts.append(f)
        record = self._position(n, f)
        if self.matrix is not None:
            if record[0] is None:
                self.matrix = None
            else:
                self._multiply(record[0], record[1], n)
        self._step(n, record)
        self.n = n
        return self

    def _position(self, n: int, f: MapExpr) -> list:
        """The record [entries, det, bounds, replayed] of step n.

        entries are f's matrix entries, looked up only while R_n is on the
        matrix path (else None), det their det, only for an engine that
        carries derivatives, and bounds the step-ledger bound omega(s, f(s))
        per seed.  On a cycled stream the record of the position (n - 1)
        mod p is computed once, and _step keeps in replayed the (values,
        derivs) of its last replay there, from which R_{n+p} starts.
        """
        pos = self.stream.position(n)
        record = self._by_position.get(pos)
        if record is None:
            fm = f.matrix() if self.matrix is not None else None
            entries = None if fm is None else fm.entries()
            det = None if fm is None or self._det is None else moebius._det(*entries)
            bounds = []
            for s in self.seeds:
                bounds.append(_omega_raw(s, holomap.eval_raw(f, s)))
            record = [entries, det, bounds, None]
            if pos is not None:
                self._by_position[pos] = record
        return record

    def _multiply(self, g: tuple, gdet: complex, n: int) -> None:
        """Right-multiply the running product by the entries g of f_n."""
        a, b, c, d = self.matrix
        ga, gb, gc, gd = g
        a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
        det = None if gdet is None else self._det * gdet
        size = abs(a) + abs(b) + abs(c) + abs(d)  # NaN and inf propagate
        if not 0.25 <= size <= 4.0:
            if not 0.0 < size < math.inf:
                raise NonFiniteError(
                    f"right matrix product has entry sum {size!r} at n = {n}", partial={"n": n}
                )
            # a power of two scales every entry exactly; 2.0 ** 1024 overflows
            scale = 2.0 ** min(-math.frexp(size)[1], 1023)
            a, b, c, d = a * scale, b * scale, c * scale, d * scale
            if det is not None:
                det = det * scale * scale
        self.matrix = (a, b, c, d)
        self._det = det

    def _step(self, n: int, record: list) -> None:
        """Move every seed from R_{n-1}(s) to R_n(s) under the step ledger."""
        jets = self.derivs is not None
        if self.matrix is not None:
            a, b, c, d = self.matrix
            fresh, fresh_derivs = [], []
            for s in self.seeds:
                den = c * s + d
                fresh.append((a * s + b) / den)
                fresh_derivs.append(self._det / (den * den) if jets else None)
        else:
            earlier = record[3]  # R_{n-p} at the seeds
            if earlier is not None:
                pairs = [_replay(self.parts, len(self.stream.maps), z, dz) for z, dz in zip(*earlier)]
            else:
                pairs = [_replay(self.parts, n, s, 1.0 + 0.0j if jets else None) for s in self.seeds]
            fresh, fresh_derivs = (list(t) for t in zip(*pairs))
            record[3] = (fresh, fresh_derivs)
        values = list(self.values)
        derivs = list(self.derivs) if jets else None
        for i, (prev, val, dv, bound) in enumerate(zip(self.computed, fresh, fresh_derivs, record[2])):
            if not (cmath.isfinite(val) and (dv is None or cmath.isfinite(dv))):
                raise NonFiniteError(
                    f"right orbit of seed {i} is not finite at n = {n}: {val!r}",
                    partial={"n": n, "seed": i},
                )
            gap = 1.0 - abs(val)
            if gap < _SATURATED_GAP:  # abs(val) > _HELD_RADIUS: held
                self.saturated_seeds.add(i)
                continue
            # the bound side is seed-anchored and accurate; the step side
            # degrades near the boundary like the left ledger does
            gap = min(gap, 1.0 - abs(prev))
            if gap >= _SATURATED_GAP:
                step = _omega_raw(prev, val)
                if step > bound + LEDGER_SLACK + 16.0 * _EPS / gap:
                    raise ConsistencyError(
                        f"right step {step!r} exceeded its bound {bound!r} at n = {n}"
                    )
            values[i] = val
            if jets:
                derivs[i] = dv
        self.computed = fresh
        self.values = values
        self.derivs = derivs


def _replay(maps, k: int, z: complex, dz: complex | None = None) -> tuple:
    """maps[0] o ... o maps[k-1] at z, applying maps[k-1] first.

    Returns the value and, given the derivative dz of z, the derivative
    carried along by the chain rule through each map's jet (else None).
    """
    if dz is None:
        for j in range(k - 1, -1, -1):
            z = holomap.eval_raw(maps[j], z)
    else:
        for j in range(k - 1, -1, -1):
            z, d = maps[j].jet(z)
            dz = d * dz
    return z, dz


@dataclass(frozen=True)
class BackwardOrbit:
    """Points w_0, w_1, ..., w_N with f_n(w_n) = w_{n-1}."""

    points: tuple

    def __post_init__(self):
        pts = tuple(disc_point(p) for p in self.points)
        if len(pts) < 1:
            raise DomainError("backward orbit needs at least w_0")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class BackwardOrbitCheck:
    ok: bool
    max_step_residual: float
    composed_residual: float  # |R_N(w_N) - w_0|, diagnostic only


def verify_backward_orbit(stream: GeneratorStream, orbit: BackwardOrbit) -> BackwardOrbitCheck:
    """Check f_n(w_n) = w_{n-1} step by step, in O(N) evaluations.

    The end-to-end residual |R_N(w_N) - w_0| of the whole orbit is
    reported as a diagnostic but excluded from the verdict: recomposing N
    steps can amplify one rounding error exponentially (w^(2^N) magnifies
    relative error by 2^N), so only the per-step identities are held to
    _VERIFY_TOL.
    """
    pts = orbit.points
    gens = [stream.generator_at(n) for n in range(1, len(pts))]
    step_max = max((abs(holomap.eval_raw(f, w) - prev) for f, w, prev in zip(gens, pts[1:], pts)), default=0.0)
    return BackwardOrbitCheck(
        ok=step_max <= _VERIFY_TOL,
        max_step_residual=step_max,
        composed_residual=abs(_replay(gens, len(gens), pts[-1])[0] - pts[0]),
    )


@dataclass(frozen=True)
class OrbitBoundReport:
    side: str
    radius: float
    horizon: int
    max_omega: float
    escaped: bool
    first_escape: int | None


def _engine(stream: GeneratorStream, seeds, side: str):
    """The orbit engine of one side, without a pair ledger on the left."""
    if side == "left":
        return LeftOrbitCursor(stream, seeds, track_pairs=False)
    if side == "right":
        return RightOrbitState(stream, seeds)
    raise ValueError("side must be 'left' or 'right'")


class _Escape:
    """orbit_bounded's escape rule on an engine's first seed: escape is the
    first of _ESCAPE_RUN consecutive steps whose reported value lies beyond
    the radius (omega from 0), so lone near-boundary excursions do not count."""

    def __init__(self, engine, radius: float):
        self.engine, self.radius = engine, radius
        self.max_omega = _omega_raw(0j, engine.values[0])
        self.run = 0
        self.first = None

    def advance(self) -> None:
        """Step the engine and read its first seed."""
        om = _omega_raw(0j, self.engine.advance().values[0])
        self.max_omega = max(self.max_omega, om)
        self.run = self.run + 1 if om > self.radius else 0
        if self.run == _ESCAPE_RUN and self.first is None:
            self.first = self.engine.n - _ESCAPE_RUN + 1


def orbit_bounded(
    stream: GeneratorStream,
    z,
    N: int,
    radius: float,
    side: str = "left",
) -> OrbitBoundReport:
    """Finite-horizon boundedness heuristic for one orbit, by _Escape's rule;
    the verdict is explicitly a statement about the first N steps only."""
    watch = _Escape(_engine(stream, (z,), side), radius)
    for _ in range(N):
        watch.advance()
    return OrbitBoundReport(
        side=side,
        radius=radius,
        horizon=N,
        max_omega=watch.max_omega,
        escaped=watch.first is not None,
        first_escape=watch.first,
    )


def ball_samples(ball: HyperbolicBall):
    """Center plus _BALL_RING points on the hyperbolic sphere of the given ball."""
    c = ball.center
    move = moebius.make_disc_auto(c, 0.0) if c != 0 else None
    r = math.tanh(ball.radius)
    pts = [c]
    for k in range(_BALL_RING):
        u = r * cmath.exp(2j * math.pi * k / _BALL_RING)
        pts.append(moebius.apply(move, u) if move is not None else u)
    return tuple(pts)


@dataclass(frozen=True)
class CompactDivergenceReport:
    horizon: int
    disjoint_flags: tuple
    first_permanent: int | None  # first index from which every later step is disjoint


def compact_divergence(
    stream: GeneratorStream,
    ball: HyperbolicBall,
    N: int,
    side: str = "left",
) -> CompactDivergenceReport:
    """Track whether the orbit of a ball leaves that ball for good.

    Finite-horizon heuristic: `first_permanent` is the first index whose
    entire tail (within the horizon) has sampled image disjoint from the
    ball.  It says nothing beyond the horizon.
    """
    engine = _engine(stream, ball_samples(ball), side)
    flags = []
    for _ in range(1, N + 1):
        engine.advance()
        outside = all(
            _omega_raw(ball.center, v) > ball.radius for v in engine.values
        )
        flags.append(outside)
    first = None
    for i in range(len(flags) - 1, -1, -1):
        if flags[i]:
            first = i + 1
        else:
            break
    return CompactDivergenceReport(
        horizon=N, disjoint_flags=tuple(flags), first_permanent=first
    )
