"""Left and right iterated function systems of disc self-maps.

A generator stream is a deterministic sequence f_1, f_2, ... of self-maps
(index 0 is always the identity).  The left system composes new maps on
the outside, L_n = f_n o ... o f_1, so tracked orbit values advance in
O(1) per step and paired distances omega(L_n z, L_n w) never increase.
The right system composes on the inside, R_n = f_1 o ... o f_n, which
gives nested images and the step bound

    omega(R_{n-1} z, R_n z) <= omega(z, f_n z).

Right cost model (RightOrbitState): O(1) per step while every generator
is fractional-linear, rule streams included, as one running product of
the generators' raw matrix entries (each node's entries(), so no step
builds a MoebiusMap); otherwise a replay, in O(p) per step on a cycle of
period p and O(n) on list and rule streams.  Either path only computes
the step's values, which one pass then checks with the step ledger.
Both engines stop checking what double precision can no longer resolve:
the left cursor freezes a pair's distance ledger, the right one skips a
step's ledger, and both hold a seed's reported value under one step
rule (_Engine._settle) while its computed value lies within ~1600 ulps
of the boundary; computed keeps the unheld values.  That rule first
makes a computed value that is not finite, on either engine, a named
abort (NonFiniteError), never a silent NaN.  Both keep the generator f_n
of the last step; with jets on, the left cursor also keeps the step
derivatives f_n'(L_{n-1}(s)), which criteria's series read.

Both engines take k steps by run(k, values, omegas), which extends
values by each step's reported values and omegas by the omegas between
each seed's consecutive reported values (orbit.csv's step_omega column,
0.0 for a held seed), so orbit.csv makes one call per block of rows.
Each engine takes them in one loop, and its advance() is run(1).  A
step that raises leaves both lists, and both engines, at the step
before it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Callable

from . import holomap, moebius
from .geometry import _EPS, DomainError, Record, _omega_raw, disc_point, json_array, json_number
from .holomap import ConsistencyError, MapExpr, NonFiniteError, Scale

LEDGER_SLACK = 1e-10
# a boundary gap under which omega keeps less than two digits: a ledger
# noise term 16 eps / gap above 0.01
_SATURATED_GAP = 1600.0 * _EPS
_HELD_RADIUS = 1.0 - _SATURATED_GAP  # exact: |v| > this iff 1 - |v| < _SATURATED_GAP
_VERIFY_TOL = 1e-9  # verify_backward_orbit's bound on each |f_n(w_n) - w_{n-1}|

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


class GeneratorStream(Record):
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
    """Seeds, values and the step rule shared by both orbit engines.

    Each step computes the new value at every seed from the computed
    previous one (computed), and _settle is the step rule for them all.
    First the finite check: a computed value that is not finite raises
    NonFiniteError with partial {"n": step, "seed": its index}, the
    first such seed's.  Then the hold rule: a seed is held exactly while
    its newly computed value lies in the band abs(v) > _HELD_RADIUS,
    within ~1600 ulps of the boundary, where omega keeps less than two
    digits and the value may round onto the circle: values then keeps
    the seed's last reported value (the same object) and the seed is
    listed in saturated_seeds for good.  Once the computed value leaves
    the band, values follows it again.  A seed that itself lies in the
    band is reported at step 0 but never held for that: only computed
    values count.  generator is the f_n of the last step (None at n = 0),
    and derivs, with jets on, holds one derivative per seed (1 at n = 0).
    """

    def __init__(self, stream: GeneratorStream, seeds, jets: bool):
        self.stream = stream
        self.seeds = tuple(disc_point(z) for z in seeds)
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.n = 0
        self.generator = None
        self.values = list(self.seeds)
        self.computed = self.values  # the engine's values at the seeds, held or not
        self.derivs = [1.0 + 0.0j] * len(self.seeds) if jets else None
        self.saturated_seeds = set()

    def _settle(self, m: int, new: list, reported: list) -> tuple:
        """The step rule on step m's computed values new, given the
        previous reported ones: (the reported list, the held seeds).
        Each engine calls it only for a step with a value that is not
        finite or lies in the band; it changes nothing on the engine."""
        now, held = list(new), []
        for i, v in enumerate(new):
            if not cmath.isfinite(v):
                raise NonFiniteError(f"orbit of seed {i} is not finite at n = {m}: {v!r}", partial={"n": m, "seed": i})
            if abs(v) > _HELD_RADIUS:
                now[i] = reported[i]
                held.append(i)
        return now, held


class LeftOrbitCursor(_Engine):
    """Tracks L_n at a fixed set of seeds, one generator application per step.

    With jets on, each step takes f_n.jet at every seed, which gives computed bit for bit as eval does,
    and derivs holds the step derivatives f_n'(L_{n-1}(s)) (1 at n = 0).
    With track_pairs on, every seed pair carries a distance ledger that
    must be non-increasing (up to LEDGER_SLACK); an increase trips a
    ConsistencyError since it would contradict the Schwarz-Pick bound.
    A pair whose computed orbit outruns double precision (an end of the
    step in the band of _Engine's hold rule, where omega keeps less than
    two digits) is frozen at its last accurate value and listed in
    saturated_pairs; monitoring it further would only ledger rounding
    noise.  A step goes to _Engine's step rule before its pair ledger, so
    no value that is not finite enters the ledger.

    run(k) takes k steps in one loop and advance() is run(1).  A step
    changes the cursor only once it is complete, so a step that raises
    (a generator past the end of a list stream, an evaluation's error, a
    NonFiniteError, a pair ledger's ConsistencyError) leaves the cursor
    at the step before it: n, generator, computed, values, derivs, the
    pair ledger and the saturated sets as that step left them.
    """

    def __init__(self, stream: GeneratorStream, seeds, track_pairs: bool = True, jets: bool = False):
        super().__init__(stream, seeds, jets)
        self.pair_distances = {}  # empty with track_pairs off
        self.saturated_pairs = set()
        if track_pairs:
            for i in range(len(self.seeds)):
                for j in range(i + 1, len(self.seeds)):
                    self.pair_distances[(i, j)] = _omega_raw(self.seeds[i], self.seeds[j])

    def run(self, k: int = 1, values: list | None = None, omegas: list | None = None) -> "LeftOrbitCursor":
        """Take k steps in one loop; advance() is run(1).

        values, if given, is extended by each step's reported values,
        seed by seed, and omegas, if given, by each seed's omega from its
        previous reported value to its new one: 0.0 for a held seed.  If
        a step raises, values and omegas hold exactly the steps before
        it, and the cursor is left at the last of them.
        """
        if omegas is not None:
            # one map over the block, each value after its previous one; a
            # held seed repeats its reported value v, and omega(v, v) is
            # exactly 0.0 for any v a cursor reports (a seed, which passed
            # disc_point, or a value inside the hold radius)
            before, block = self.values, []
            try:
                self.run(k, block)
            finally:
                omegas += map(_omega_raw, itertools.chain(before, block), block)
                if values is not None:
                    values += block
            return self
        stream = self.stream
        n = self.n
        f = self.generator
        old = self.computed
        reported = self.values
        derivs = self.derivs
        inside = _HELD_RADIUS.__ge__  # False for NaN, so a NaN goes to _settle
        stop = n + k
        try:
            while n < stop:  # a while loop: a range costs more than a one-step run
                g = stream.generator_at(n + 1)
                if derivs is None:
                    new = [holomap.eval_raw(g, v) for v in old]
                else:
                    new, step_derivs = [], []
                    for v in old:
                        w, d = g.jet(v)
                        new.append(w)
                        step_derivs.append(d)
                if all(map(inside, map(abs, new))):  # the common step: nothing to settle
                    now = new
                    if self.pair_distances:
                        self._ledger(n + 1, old, new)
                else:  # settled before the ledger, so no NaN enters it
                    now, held = self._settle(n + 1, new, reported)
                    if self.pair_distances:
                        self._ledger(n + 1, old, new)
                    self.saturated_seeds.update(held)
                # the step is complete: nothing below raises
                if values is not None:
                    values += now
                n += 1
                f = g
                old = new
                reported = now
                if derivs is not None:
                    derivs = step_derivs
        finally:  # the last complete step's state
            self.n = n
            self.generator = f
            self.computed = old
            self.values = reported
            self.derivs = derivs
        return self

    advance = run  # one step

    def _ledger(self, n: int, old: list, new: list) -> None:
        """Step n of the pair ledger, stored only once every pair passed."""
        frozen, ledger, freeze = self.saturated_pairs, {}, []
        for (i, j), prev in self.pair_distances.items():
            if (i, j) in frozen:
                continue
            # omega loses digits like eps/(1 - |z|) near the boundary;
            # genuine expansion is O(1) relative to the distance scale
            gap = min(1.0 - abs(new[i]), 1.0 - abs(new[j]), 1.0 - abs(old[i]), 1.0 - abs(old[j]))
            if gap < _SATURATED_GAP:
                freeze.append((i, j))
                continue
            d = _omega_raw(new[i], new[j])
            if d > prev + LEDGER_SLACK + 16.0 * _EPS / gap:
                raise ConsistencyError(f"left pair distance grew at step {n}: {prev!r} -> {d!r}")
            ledger[i, j] = d
        self.pair_distances.update(ledger)
        frozen.update(freeze)


class RightOrbitState(_Engine):
    """Tracks R_n at fixed seeds.

    While every generator so far is fractional-linear (f.entries() is not
    None), a step is the matrix step: R_n is a running product of raw
    matrix entries, a 4-tuple right-multiplied by f_n.entries() in O(1)
    and rescaled by an exact power of two when their absolute sum leaves
    [1/4, 4]; no generator is kept and no MoebiusMap is built, so a rule
    stream's step costs what a cycle's does.  Otherwise _step replays
    R_n(s) through f_n, ..., f_1, O(n) per step on list and rule streams
    (a rule stream fetches f_1, ..., f_n into parts when it leaves the
    matrix path) and O(p) on a cycle of period p, since R_n = C o R_{n-p}
    with C = f_1 o ... o f_p gives R_n(s) bit for bit from the stored
    R_{n-p}(s); a position whose steps ran on the matrix replays in full
    once.

    run(k) takes k steps in one loop and advance() is run(1).  Each step
    takes the matrix step or _step's replay, and then one pass takes
    every seed, computing its matrix value R_n(s) on the way: a
    derivative that is not finite raises NonFiniteError (as a matrix entry
    does), and the step ledger omega(R_{n-1}(s), R_n(s)) <= omega(s, f_n(s))
    reads computed values and skips a seed with either end in the band,
    so the step that releases a seed goes unchecked.  A step with a value
    in the band or not finite then goes to _Engine's step rule, and a
    held seed keeps its derivative too.  The step's omegas are the ledger's
    where it ran, 0.0 for a held seed, and from the previous reported
    value where the ledger skipped.

    A step changes the engine only once it is complete, so a step that
    raises (a generator past the end of a list stream, an evaluation's
    error, a NonFiniteError, the step ledger's ConsistencyError) leaves
    the engine at the step before it: n, generator, matrix, computed,
    values, derivs, saturated_seeds, parts and the replay a cycle
    position keeps as that step left them.

    With jets on, derivs carries R_n'(s): det/(cs + d)^2 on the matrix
    path (det: the generators' dets times the squared rescale factors),
    the chain rule through each f_j's jet on a replay; values keep their
    bits.  A constant generator f_n makes R_n' vanish, so a jet-carrying
    engine raises ValueError for it right after step n completes.  Jets
    are off by default, as simulate reads only values.
    """

    def __init__(self, stream: GeneratorStream, seeds, jets: bool = False):
        super().__init__(stream, seeds, jets)
        self.parts = None  # f_1 ... f_n, kept only by a rule stream off the matrix path
        # R_n's entries (a, b, c, d) up to a power-of-two scale; their det only with jets
        self.matrix: tuple | None = (1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)
        self._det = 1.0 + 0.0j if jets else None
        # cycle position (n - 1) mod p -> what _position returns
        self._by_position: dict[int, list] = {}

    def run(self, k: int = 1, values: list | None = None, omegas: list | None = None) -> "RightOrbitState":
        """Take k steps in one loop; advance() is run(1).

        values, if given, is extended by each step's reported values,
        seed by seed, and omegas, if given, by each seed's omega from its
        previous reported value to its new one.  If a step raises, values
        and omegas hold exactly the steps before it, and the engine is
        left at the last of them.
        """
        stream, seeds, by_position, count = self.stream, self.seeds, self._by_position, len(self.seeds)
        period = len(stream.maps) if stream.kind == "cycle" else 0
        generator_at, isfinite, omega, noise = stream.generator_at, cmath.isfinite, _omega_raw, 16.0 * _EPS
        n, f, parts, matrix, det = self.n, self.generator, self.parts, self.matrix, self._det
        computed, reported, derivs = self.computed, self.values, self.derivs
        stop = n + k
        try:
            while n < stop:  # a while loop: a range costs more than a one-step run
                m = n + 1
                g = generator_at(m)
                pos = n % period if period else None  # stream.position(m) in line
                record = by_position.get(pos) or self._position(g, pos, matrix)  # made once per cycle position
                entries = record[0]
                if matrix is None or entries is None:  # a replay; R_n leaves the matrix path for good
                    step_parts = parts
                    if matrix is not None and stream.kind == "rule":  # a pure rule gives f_1 ... f_{n-1} again
                        step_parts = list(map(generator_at, range(1, m)))
                    if step_parts is not None:
                        step_parts.append(g)  # taken off again below if the step raises
                    replayed = fresh, fresh_derivs = self._step(m, record, step_parts)
                    step_matrix = step_det = None
                else:  # the matrix step: R_n = R_{n-1} f_n
                    replayed = None
                    a, b, c, d = matrix
                    ga, gb, gc, gd = entries
                    a, b, c, d = a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd
                    step_det = None if record[1] is None else det * record[1]
                    size = abs(a) + abs(b) + abs(c) + abs(d)  # NaN and inf propagate
                    if not 0.25 <= size <= 4.0:
                        if not 0.0 < size < math.inf:
                            msg = f"right matrix product has entry sum {size!r} at n = {m}"
                            raise NonFiniteError(msg, partial={"n": m})
                        # a power of two scales every entry exactly; 2.0 ** 1024 overflows
                        scale = 2.0 ** min(-math.frexp(size)[1], 1023)
                        a, b, c, d = a * scale, b * scale, c * scale, d * scale
                        if step_det is not None:
                            step_det = step_det * scale * scale
                    step_matrix = a, b, c, d
                # one pass for both paths: the derivative check, the step
                # ledger and the step omegas at every seed; a seed in the
                # band or not finite leaves the step to _settle (now None)
                bounds, new, new_derivs = record[2], [], None if derivs is None else []
                oms, now = [0.0] * count, new  # a held seed's omega(v, v) is exactly 0.0
                for i, s in enumerate(seeds):
                    if replayed is None:
                        den = c * s + d
                        val = (a * s + b) / den
                        dv = None if step_det is None else step_det / (den * den)
                    else:
                        val, dv = fresh[i], fresh_derivs[i]
                    if dv is not None and not isfinite(dv):
                        msg = f"right orbit derivative of seed {i} is not finite at n = {m}: {dv!r}"
                        raise NonFiniteError(msg, partial={"n": m, "seed": i})
                    new.append(val)
                    gap = 1.0 - abs(val)
                    if not gap >= _SATURATED_GAP:  # in the band (held, with its derivative) or NaN
                        now = None
                        if new_derivs is not None:
                            new_derivs.append(derivs[i])
                        continue
                    if new_derivs is not None:
                        new_derivs.append(dv)
                    prev_gap = 1.0 - abs(computed[i])  # the step side degrades near the boundary, the bound side not
                    if prev_gap < gap:  # gap = min(gap, prev_gap), without the call
                        gap = prev_gap
                    # where the ledger runs, the previous computed value is the reported one
                    step = oms[i] = omega(reported[i], val)
                    if gap >= _SATURATED_GAP and step > bounds[i] + LEDGER_SLACK + noise / gap:
                        raise ConsistencyError(f"right step {step!r} exceeded its bound {bounds[i]!r} at n = {m}")
                if now is None:
                    now, held = self._settle(m, new, reported)
                    self.saturated_seeds.update(held)
                # the step is complete: nothing below raises but the constant refusal
                if replayed is not None:
                    record[3], parts = replayed, step_parts
                n, f = m, g
                matrix, det = step_matrix, step_det
                computed, reported = new, now
                derivs = new_derivs
                if values is not None:
                    values += now
                if omegas is not None:
                    omegas += oms
                if record[4]:
                    raise ValueError(f"generator {n} is constant; the distortion product needs nonconstant maps")
        finally:  # the last complete step's state
            if parts is not None:
                del parts[n:]  # a replay that raised appended its f_n
            self.n, self.generator, self.parts, self.matrix, self._det = n, f, parts, matrix, det
            self.computed, self.values, self.derivs = computed, reported, derivs
        return self

    advance = run  # one step

    def _position(self, f: MapExpr, pos: int | None, matrix: tuple | None) -> list:
        """The record [entries, det, bounds, replayed, constant] of a step
        by f: f's raw matrix entries (f.entries(), no MoebiusMap built)
        while R_n is on the matrix path (matrix is not None), else None;
        their det with jets on; the ledger bounds omega(s, f(s)); on a
        cycle the (values, derivs) of the last replay at the position
        pos = (n - 1) mod p, under which _by_position keeps the record for
        run to find (pos is None off a cycle); and whether a jet-carrying
        engine refuses f as constant (a map with entries never is)."""
        entries = f.entries() if matrix is not None else None
        jets = self.derivs is not None
        det = moebius._det(*entries) if jets and entries is not None else None
        constant = jets and entries is None and holomap._as_constant(f) is not None
        record = [entries, det, [_omega_raw(s, holomap.eval_raw(f, s)) for s in self.seeds], None, constant]
        if pos is not None:
            self._by_position[pos] = record
        return record

    def _step(self, n: int, record: list, parts: list | None) -> tuple:
        """Replay every seed from R_{n-1}(s) to R_n(s) through parts, or the
        stream's maps when parts is None: the lists of step n's computed
        values and derivatives (None each with jets off)."""
        earlier = record[3]  # R_{n-p} at the seeds
        maps = self.stream.maps if parts is None else parts
        if earlier is not None:
            pairs = [_replay(maps, len(maps), z, dz) for z, dz in zip(*earlier)]
        else:
            if n > len(maps):  # a cycle: its maps repeated past f_n
                maps = maps * -(-n // len(maps))
            dz = None if self.derivs is None else 1.0 + 0.0j
            pairs = [_replay(maps, n, s, dz) for s in self.seeds]
        return tuple(list(t) for t in zip(*pairs))


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


class BackwardOrbit(Record):
    """Points w_0, w_1, ..., w_N with f_n(w_n) = w_{n-1}."""

    points: tuple

    def __post_init__(self):
        pts = tuple(disc_point(p) for p in self.points)
        if len(pts) < 1:
            raise DomainError("backward orbit needs at least w_0")
        object.__setattr__(self, "points", pts)


class BackwardOrbitCheck(Record):
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
