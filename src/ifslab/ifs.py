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
pair's distance ledger, and the right engine holds a seed's reported
value at its last accurate one while the computed value lies within
~1600 ulps of the boundary, and releases it once the value comes back.
A right value that is not finite is a named abort (NonFiniteError),
never a silent NaN.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from . import holomap, moebius
from .geometry import _EPS, DomainError, HyperbolicBall, _omega_raw, disc_point
from .holomap import ConsistencyError, MapExpr

LEDGER_SLACK = 1e-10
# a boundary gap under which omega keeps less than two digits: a ledger
# noise term 16 eps / gap above 0.01
_SATURATED_GAP = 1600.0 * _EPS
DEPTH_CAP = 100_000


class DepthCapError(RuntimeError):
    """Right composition grew past the configured depth cap."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NonFiniteError(ConsistencyError):
    """A right orbit value, derivative or matrix entry stopped being finite."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _scale_product_rule(params: dict) -> Callable[[int], MapExpr]:
    power = float(params.get("power", 2.0))
    if not (math.isfinite(power) and power > 0):
        raise DomainError(f"scale_product power must be finite and positive: {power!r}")

    def rule(n: int) -> MapExpr:
        return holomap.Scale(1.0 - 1.0 / (n + 1) ** power)

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
    rule_name: str = ""
    rule_params: dict = field(default_factory=dict)

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
    def from_rule(cls, rule: Callable[[int], MapExpr], name: str = "", params: dict | None = None) -> "GeneratorStream":
        return cls("rule", (), rule, name, dict(params or {}))

    @classmethod
    def constant(cls, f: MapExpr) -> "GeneratorStream":
        return cls.from_cycle([f])

    @property
    def length(self) -> int | None:
        return len(self.maps) if self.kind == "list" else None

    def generator_at(self, n: int) -> MapExpr:
        if n < 0:
            raise ValueError("stream index must be >= 0")
        if n == 0:
            return holomap.identity_map()
        if self.kind == "list":
            if n > len(self.maps):
                raise IndexError(f"stream of length {len(self.maps)} has no generator {n}")
            return self.maps[n - 1]
        if self.kind == "cycle":
            return self.maps[(n - 1) % len(self.maps)]
        return self.rule(n)


def stream_to_json(stream: GeneratorStream) -> dict:
    if stream.kind in ("list", "cycle"):
        return {
            "type": stream.kind,
            "generators": [holomap.map_to_json(f) for f in stream.maps],
        }
    if not stream.rule_name:
        raise ValueError("only named rules can be serialized")
    return {"type": "rule", "name": stream.rule_name, "params": dict(stream.rule_params)}


def stream_from_json(obj: dict) -> GeneratorStream:
    kind = obj.get("type")
    if kind in ("list", "cycle"):
        if "generators" not in obj:
            raise ValueError(f"{kind} stream lacks required key 'generators'")
        maps = [holomap.map_from_json(g) for g in obj["generators"]]
        return GeneratorStream.from_list(maps) if kind == "list" else GeneratorStream.from_cycle(maps)
    if kind == "rule":
        name = obj.get("name")
        if name not in RULES:
            raise ValueError(f"unknown stream rule {name!r}")
        params = dict(obj.get("params", {}))
        return GeneratorStream.from_rule(RULES[name](params), name, params)
    raise ValueError(f"unknown stream type {kind!r}")


class LeftOrbitCursor:
    """Tracks L_n at a fixed set of seeds, one generator application per step.

    With track_pairs on, every seed pair carries a distance ledger that
    must be non-increasing (up to LEDGER_SLACK); an increase trips a
    ConsistencyError since it would contradict the Schwarz-Pick bound.
    A pair whose orbit outruns double precision (boundary gap under ~1600
    ulps, where omega keeps less than two digits) is frozen at its last
    accurate value and listed in saturated_pairs; monitoring it further
    would only ledger rounding noise.
    """

    def __init__(self, stream: GeneratorStream, seeds, track_pairs: bool = True):
        self.stream = stream
        self.seeds = tuple(disc_point(z) for z in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.n = 0
        self.values = list(self.seeds)
        self.track_pairs = track_pairs
        self.pair_distances = {}
        self.saturated_pairs = set()
        if track_pairs:
            for i in range(len(self.seeds)):
                for j in range(i + 1, len(self.seeds)):
                    self.pair_distances[(i, j)] = _omega_raw(self.seeds[i], self.seeds[j])

    def advance(self) -> "LeftOrbitCursor":
        f = self.stream.generator_at(self.n + 1)
        old = self.values
        new = [holomap.eval_raw(f, v) for v in old]
        if self.track_pairs:
            for (i, j), prev in self.pair_distances.items():
                if (i, j) in self.saturated_pairs:
                    continue
                # omega loses digits like eps/(1 - |z|) near the boundary;
                # genuine expansion is O(1) relative to the distance scale
                gap = min(1.0 - abs(new[i]), 1.0 - abs(new[j]), 1.0 - abs(old[i]), 1.0 - abs(old[j]))
                noise = 16.0 * _EPS / max(gap, _EPS)
                if noise > 0.01:
                    self.saturated_pairs.add((i, j))
                    continue
                d = _omega_raw(new[i], new[j])
                if d > prev + LEDGER_SLACK + noise:
                    raise ConsistencyError(
                        f"left pair distance grew at step {self.n + 1}: {prev!r} -> {d!r}"
                    )
                self.pair_distances[(i, j)] = d
        self.n += 1
        self.values = new
        return self


class RightOrbitState:
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
    the same floats and gives R_n(s) bit for bit in O(p).  Values from
    the matrix path differ in rounding from a replay, so a residue whose
    last step ran on the matrix is replayed once in full.  On a cycled
    stream, what depends only on the position n mod p is computed once:
    the generator's matrix entries and det, and each seed's step-ledger
    bound omega(s, f(s)).  The depth cap applies to every stream off the
    matrix path, cycled or not.

    R_n(s) is computed at every step.  While it lies within ~1600 ulps
    of the boundary, where omega keeps less than two digits and the
    value may round onto the circle, values (and derivs) hold the seed's
    last accurate value, its step ledger is skipped and the seed is
    listed in saturated_seeds for good.  Once the computed value comes
    back, values follow it again; the ledger resumes a step later, since
    the one-step bound does not cover the move from the held value.  A
    value, derivative or matrix entry that is not finite raises
    NonFiniteError naming n.

    With jets on, derivs carries R_n'(s) at each seed: det/(cs + d)^2 on
    the matrix path, with the det kept as the running product of the
    generators' dets times the squared rescale factors, and the chain
    rule through each f_j's jet on a replay.  Values are the same bits
    with jets on or off.  Jets stay off by default: simulate reads only
    values, and carrying derivatives on every run measurably slowed the
    right_orbit benchmark.
    """

    def __init__(self, stream: GeneratorStream, seeds, depth_cap: int = DEPTH_CAP, jets: bool = False):
        self.stream = stream
        self.seeds = tuple(disc_point(z) for z in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.n = 0
        self.values = list(self.seeds)
        self.derivs = [1.0 + 0.0j] * len(self.seeds) if jets else None
        self.saturated_seeds = set()
        self._held = set()  # seeds whose value is held at its last accurate one
        self.parts = []  # f_1 ... f_n in order
        # entries (a, b, c, d) of R_n up to a power-of-two scale, and their
        # det, which only derivatives read
        self.matrix: tuple | None = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
        self._det = 1.0 + 0.0j if jets else None
        self.depth_cap = depth_cap
        self._period = len(stream.maps) if stream.kind == "cycle" else 0
        # cycle position (n - 1) mod period -> what _generator_data returns
        self._by_position: dict[int, tuple] = {}
        # n mod period -> replayed (values, derivs) of R_n at the seeds, for the last such n
        self._by_residue: dict[int, tuple] = {}

    @property
    def composed(self) -> MapExpr:
        if not self.parts:
            return holomap.identity_map()
        if len(self.parts) == 1:
            return self.parts[0]
        return holomap.Compose(tuple(self.parts))

    def advance(self) -> "RightOrbitState":
        n = self.n + 1
        f = self.stream.generator_at(n)
        self.parts.append(f)
        entries, det, ledger = self._generator_data(n, f)
        if self.matrix is not None:
            if entries is None:
                self.matrix = None
            else:
                self._multiply(entries, det, n)
        if self.matrix is None and len(self.parts) > self.depth_cap:
            raise DepthCapError(
                f"right composition depth {len(self.parts)} exceeds cap {self.depth_cap}",
                diagnostics={"n": n, "depth": len(self.parts)},
            )
        self._step(n, ledger)
        self.n = n
        return self

    def _generator_data(self, n: int, f: MapExpr) -> tuple:
        """(matrix entries or None, det or None, [(f(s), omega(s, f(s))) per seed]).

        The entries are looked up only while R_n is on the matrix path,
        and the det only by an engine that carries derivatives.  On a
        cycled stream the triple depends only on the position (n - 1)
        mod p and is computed once per position.
        """
        pos = (n - 1) % self._period if self._period else None
        data = self._by_position.get(pos)
        if data is None:
            fm = f.matrix() if self.matrix is not None else None
            entries = None if fm is None else fm.entries()
            det = None if fm is None or self._det is None else moebius._det(*entries)
            ledger = []
            for s in self.seeds:
                inner = holomap.eval_raw(f, s)
                ledger.append((inner, _omega_raw(s, inner)))
            data = (entries, det, ledger)
            if pos is not None:
                self._by_position[pos] = data
        return data

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
                    f"right matrix product has entry sum {size!r} at n = {n}", diagnostics={"n": n}
                )
            # a power of two scales every entry exactly; 2.0 ** 1024 overflows
            scale = 2.0 ** min(-math.frexp(size)[1], 1023)
            a, b, c, d = a * scale, b * scale, c * scale, d * scale
            if det is not None:
                det = det * scale * scale
        self.matrix = (a, b, c, d)
        self._det = det

    def _step(self, n: int, ledger: list) -> None:
        """Move every seed from R_{n-1}(s) to R_n(s) under the step ledger."""
        jets = self.derivs is not None
        residue = n % self._period if self._period else None
        if self.matrix is not None:
            a, b, c, d = self.matrix
            fresh, fresh_derivs = [], []
            for s in self.seeds:
                den = c * s + d
                fresh.append((a * s + b) / den)
                fresh_derivs.append(self._det / (den * den) if jets else None)
        else:
            earlier = self._by_residue.get(residue)  # R_{n-p} at the seeds
            if earlier is not None:
                pairs = [self._tail(z, self._period, dz) for z, dz in zip(*earlier)]
            elif jets:
                pairs = [self._tail(s, n, 1.0 + 0.0j) for s in self.seeds]
            else:
                pairs = [self._tail(inner, n - 1) for inner, _ in ledger]
            fresh, fresh_derivs = (list(t) for t in zip(*pairs))
            if residue is not None:
                self._by_residue[residue] = (fresh, fresh_derivs)
        values = list(self.values)
        derivs = list(self.derivs) if jets else None
        held = self._held
        for i, (prev, val, dv, (_, bound)) in enumerate(zip(self.values, fresh, fresh_derivs, ledger)):
            if not (cmath.isfinite(val) and (dv is None or cmath.isfinite(dv))):
                raise NonFiniteError(
                    f"right orbit of seed {i} is not finite at n = {n}: {val!r}",
                    diagnostics={"n": n, "seed": i},
                )
            # the bound side is seed-anchored and accurate; the step side
            # degrades near the boundary like the left ledger does
            gap = min(1.0 - abs(prev), 1.0 - abs(val))
            if gap < _SATURATED_GAP:
                self.saturated_seeds.add(i)
                held.add(i)
                continue
            if i in held:
                # back from the boundary: prev is older than R_{n-1}(s), so
                # the one-step bound does not apply to this move
                held.discard(i)
            else:
                step = _omega_raw(prev, val)
                if step > bound + LEDGER_SLACK + 16.0 * _EPS / gap:
                    raise ConsistencyError(
                        f"right step {step!r} exceeded its bound {bound!r} at n = {n}"
                    )
            values[i] = val
            if jets:
                derivs[i] = dv
        self.values = values
        self.derivs = derivs

    def _tail(self, z: complex, k: int, dz: complex | None = None) -> tuple:
        """f_1 o ... o f_k at z, evaluated f_k first.

        Returns the value and, given the derivative dz of z, the
        derivative carried along by the chain rule (else None).
        """
        parts = self.parts
        if dz is None:
            for j in range(k - 1, -1, -1):
                z = holomap.eval_raw(parts[j], z)
        else:
            for j in range(k - 1, -1, -1):
                z, d = parts[j].jet(z)
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

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class BackwardOrbitCheck:
    ok: bool
    max_step_residual: float
    composed_residual: float  # |R_N(w_N) - w_0|, diagnostic only
    step_residuals: tuple


def verify_backward_orbit(stream: GeneratorStream, orbit: BackwardOrbit, tol: float = 1e-9) -> BackwardOrbitCheck:
    """Check f_n(w_n) = w_{n-1} step by step, in O(N) evaluations.

    The end-to-end residual |R_N(w_N) - w_0| of the whole orbit is
    reported as a diagnostic but excluded from the verdict: recomposing N
    steps can amplify one rounding error exponentially (w^(2^N) magnifies
    relative error by 2^N), so only the per-step identities are held to
    the tolerance.
    """
    pts = orbit.points
    gens = [stream.generator_at(n) for n in range(1, len(pts))]
    steps = tuple(abs(holomap.eval_raw(f, w) - prev) for f, w, prev in zip(gens, pts[1:], pts))
    v = pts[-1]
    for f in reversed(gens):
        v = holomap.eval_raw(f, v)
    step_max = max(steps, default=0.0)
    return BackwardOrbitCheck(
        ok=step_max <= tol,
        max_step_residual=step_max,
        composed_residual=abs(v - pts[0]),
        step_residuals=steps,
    )


@dataclass(frozen=True)
class OrbitBoundReport:
    side: str
    radius: float
    horizon: int
    max_omega: float
    escaped: bool
    first_escape: int | None
    exceed_count: int


def _engine(stream: GeneratorStream, seeds, side: str):
    """The orbit engine of one side, without a pair ledger on the left."""
    if side == "left":
        return LeftOrbitCursor(stream, seeds, track_pairs=False)
    if side == "right":
        return RightOrbitState(stream, seeds)
    raise ValueError("side must be 'left' or 'right'")


def orbit_bounded(
    stream: GeneratorStream,
    z,
    N: int,
    radius: float,
    side: str = "left",
    hysteresis: int = 3,
) -> OrbitBoundReport:
    """Finite-horizon boundedness heuristic for one orbit.

    The escape flag needs `hysteresis` consecutive steps beyond the radius,
    which keeps single near-boundary excursions from reading as escape.
    The verdict is explicitly a statement about the first N steps only.
    """
    engine = _engine(stream, (z,), side)
    max_omega = _omega_raw(0j, engine.values[0])
    run = 0
    exceed = 0
    first = None
    for n in range(1, N + 1):
        engine.advance()
        om = _omega_raw(0j, engine.values[0])
        max_omega = max(max_omega, om)
        if om > radius:
            exceed += 1
            run += 1
            if run >= hysteresis and first is None:
                first = n - hysteresis + 1
        else:
            run = 0
    return OrbitBoundReport(
        side=side,
        radius=radius,
        horizon=N,
        max_omega=max_omega,
        escaped=first is not None,
        first_escape=first,
        exceed_count=exceed,
    )


def ball_samples(ball: HyperbolicBall, ring: int = 8):
    """Center plus a ring on the hyperbolic sphere of the given ball."""
    c = ball.center
    move = moebius.make_disc_auto(c, 0.0) if c != 0 else None
    r = math.tanh(ball.radius)
    pts = [c]
    for k in range(ring):
        u = r * cmath.exp(2j * math.pi * k / ring)
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
    ring: int = 8,
) -> CompactDivergenceReport:
    """Track whether the orbit of a ball leaves that ball for good.

    Finite-horizon heuristic: `first_permanent` is the first index whose
    entire tail (within the horizon) has sampled image disjoint from the
    ball.  It says nothing beyond the horizon.
    """
    engine = _engine(stream, ball_samples(ball, ring), side)
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
