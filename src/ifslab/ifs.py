"""Left and right iterated function systems of disc self-maps.

A generator stream is a deterministic sequence f_1, f_2, ... of self-maps
(index 0 is always the identity).  The left system composes new maps on
the outside, L_n = f_n o ... o f_1, so tracked orbit values advance in
O(1) per step and paired distances omega(L_n z, L_n w) never increase.
The right system composes on the inside, R_n = f_1 o ... o f_n, which
gives nested images and the step bound

    omega(R_{n-1} z, R_n z) <= omega(z, f_n z).

Runs of fractional-linear generators, the ones whose f.matrix() is not
None, are collapsed into a single matrix product, which keeps the common
scaling and Moebius streams at O(1) per right step.  Other right
evaluations go through the stored composition: O(p) per step on a cycled
stream of period p, which reuses R_{n-p}, and O(n) per step on list and
rule streams.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from . import holomap, moebius
from .geometry import _EPS, DomainError, HyperbolicBall, _omega_raw, disc_point
from .holomap import ConsistencyError, MapExpr
from .moebius import MoebiusMap

LEDGER_SLACK = 1e-10
DEPTH_CAP = 100_000


class DepthCapError(RuntimeError):
    """Right composition grew past the configured depth cap."""

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
    None), R_n is one running matrix product and each step costs O(1).
    Otherwise R_n(s) is replayed through the stored composition, f_n
    first and f_1 last, which costs O(n) per step on list and rule
    streams.  A cycled stream of period p is linear in N: R_n = C o
    R_{n-p} with C = f_1 o ... o f_p, and the replay of R_n passes
    through R_{n-p}(s) after its first n - p evaluations, so applying
    f_p, ..., f_1 to the stored R_{n-p}(s) makes the same evaluations on
    the same floats and gives R_n(s) bit for bit in O(p).  Values from
    the matrix path differ in rounding from a replay, so a residue whose
    last step ran on the matrix is replayed once in full.  The depth cap
    applies to every stream off the matrix path, cycled or not.
    """

    def __init__(self, stream: GeneratorStream, seeds, depth_cap: int = DEPTH_CAP):
        self.stream = stream
        self.seeds = tuple(disc_point(z) for z in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.n = 0
        self.values = list(self.seeds)
        self.parts = []  # f_1 ... f_n in order
        self.matrix: MoebiusMap | None = moebius.identity()
        self.depth_cap = depth_cap
        self._period = len(stream.maps) if stream.kind == "cycle" else 0
        # n mod period -> replayed R_n values at the seeds, for the last such n
        self._by_residue: dict[int, list] = {}

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
        if self.matrix is not None:
            fm = f.matrix()
            if fm is not None:
                prod = moebius.compose(self.matrix, fm)
                det = prod.a * prod.d - prod.b * prod.c
                # renormalize so long products keep entries of order one
                if abs(det) > 1e-12:
                    prod = MoebiusMap(*moebius._det1(*prod.entries()), domain=moebius.GENERIC)
                self.matrix = prod
            else:
                self.matrix = None
        if self.matrix is None and len(self.parts) > self.depth_cap:
            raise DepthCapError(
                f"right composition depth {len(self.parts)} exceeds cap {self.depth_cap}",
                diagnostics={"n": n, "depth": len(self.parts)},
            )
        residue = n % self._period if self._period else None
        earlier = self._by_residue.get(residue)  # R_{n-p} at the seeds
        new = []
        for i, (s, prev) in enumerate(zip(self.seeds, self.values)):
            inner = holomap.eval_raw(f, s)
            if self.matrix is not None:
                val = moebius.apply(self.matrix, s)
            elif earlier is not None:
                val = self._tail(earlier[i], self._period)
            else:
                val = self._tail(inner, n - 1)
            bound = _omega_raw(s, inner)
            # the bound side is seed-anchored and accurate; the step side
            # degrades near the boundary like the left ledger does
            gap = min(1.0 - abs(prev), 1.0 - abs(val))
            noise = 16.0 * _EPS / max(gap, _EPS)
            if noise <= 0.01:
                step = _omega_raw(prev, val)
                if step > bound + LEDGER_SLACK + noise:
                    raise ConsistencyError(
                        f"right step {step!r} exceeded its bound {bound!r} at n = {n}"
                    )
            new.append(val)
        self.n = n
        self.values = new
        if residue is not None and self.matrix is None:
            self._by_residue[residue] = new
        return self

    def _tail(self, z: complex, k: int) -> complex:
        """f_1 o ... o f_k (z), evaluated f_k first."""
        parts = self.parts
        for j in range(k - 1, -1, -1):
            z = holomap.eval_raw(parts[j], z)
        return z


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
