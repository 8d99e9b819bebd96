"""Moebius maps as 2x2 complex matrices, with automorphism structure.

A map (a z + b)/(c z + d) is stored by its coefficient matrix up to a
complex scalar.  Disc automorphisms are exactly the maps whose det-1
representative has the SU(1,1) shape

    [[alpha, beta], [conj(beta), conj(alpha)]],   |alpha|^2 - |beta|^2 = 1,

and half-plane automorphisms the ones with a real det-1 representative
(SL(2,R)).  Classification goes by the absolute trace of that
representative: < 2 elliptic, = 2 parabolic, > 2 hyperbolic.

Validation happens once, at the boundary: MoebiusMap(...) and from_json
check that the matrix is finite and nonsingular and has the structure
its domain tag promises, and make_disc_auto and translate_to_zero check
their point with disc_point.  A map derived from maps (or points) that passed those
checks keeps its structure up to rounding, so it is built by _trusted,
which sets the fields without re-proving SU(1,1) or SL(2,R) structure:
compose, inverse, canonical, to_disc, kth_root, power, identity and the
two point-built automorphisms all return trusted maps, and so do the
straighteners' per-step coordinate changes gamma_n, built from an orbit
point and a unit phase.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .geometry import DomainError, disc_point, json_array, json_point

DISC = "disc"
HALF_PLANE = "half_plane"
GENERIC = "generic"

STRUCT_TOL = 1e-10
PARABOLIC_TOL = 1e-9


class SingularityError(ArithmeticError):
    """Evaluation at the pole of a Moebius map."""


class NonAutomorphismError(ValueError):
    """A matrix lacked the structure its domain tag promised."""


def _det(a, b, c, d):
    return a * d - b * c


def _det1(a, b, c, d):
    det = _det(a, b, c, d)
    if det == 0:
        raise NonAutomorphismError("singular matrix")
    s = cmath.sqrt(det)
    return a / s, b / s, c / s, d / s


def _scale(entries):
    return max(abs(e) for e in entries)


def _is_su11(a, b, c, d) -> bool:
    """A complex multiple of an SU(1,1) matrix, tested without rescaling.

    That shape means d = u conj(a) and c = u conj(b) for one unit u, with
    |a| > |b|; equivalently |d| = |a| and c conj(a) = d conj(b).  Both
    residuals are held relative to the largest entry m (STRUCT_TOL m and
    STRUCT_TOL m^2), so the test is as sharp for entries of size 1e3 as of
    size 1; dividing by sqrt(det) first would leave an error of about
    m^3 eps.
    """
    m = _scale((a, b, c, d))
    return (
        abs(a) > abs(b)
        and abs(abs(a) - abs(d)) <= STRUCT_TOL * m
        and abs(c * a.conjugate() - d * b.conjugate()) <= STRUCT_TOL * m * m
    )


def _real_rep(a, b, c, d):
    """Phase-align a matrix to real entries; None when impossible."""
    entries = (a, b, c, d)
    piv = max(entries, key=abs)
    if abs(piv) == 0:
        return None
    u = piv / abs(piv)
    al = tuple(e / u for e in entries)
    m = max(1.0, _scale(al))
    if any(abs(e.imag) > STRUCT_TOL * m for e in al):
        return None
    ra, rb, rc, rd = (e.real for e in al)
    if ra * rd - rb * rc <= 0:
        return None  # orientation-reversing, not a half-plane automorphism
    return ra, rb, rc, rd


@dataclass(frozen=True)
class MoebiusMap:
    """Matrix [[a, b], [c, d]] acting as z |-> (a z + b)/(c z + d).

    Every map built here has finite entries and a nonzero det; a
    non-finite entry raises DomainError.  The domain tag records which
    further structure was verified at construction: "disc" and
    "half_plane" mean automorphism of that domain, "generic" promises
    nothing more.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    domain: str = GENERIC

    def __post_init__(self):
        a, b, c, d = (complex(self.a), complex(self.b), complex(self.c), complex(self.d))
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise DomainError(f"matrix entries must be finite: {(a, b, c, d)!r}")
        if _det(a, b, c, d) == 0:
            raise NonAutomorphismError("singular matrix")
        if self.domain == DISC and not _is_su11(a, b, c, d):
            raise NonAutomorphismError("matrix is not a disc automorphism")
        if self.domain == HALF_PLANE and _real_rep(a, b, c, d) is None:
            raise NonAutomorphismError("matrix is not a half-plane automorphism")
        if self.domain not in (DISC, HALF_PLANE, GENERIC):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


_setattr = object.__setattr__


def _trusted(a: complex, b: complex, c: complex, d: complex, domain: str) -> MoebiusMap:
    """A MoebiusMap built without __post_init__'s checks.

    Only for complex entries derived from validated maps or points, whose
    structure the derivation preserves; everything else goes through
    MoebiusMap(...).
    """
    g = object.__new__(MoebiusMap)
    # object.__setattr__ keeps the instance's compact attribute storage;
    # writing through g.__dict__ would give every map its own dict
    _setattr(g, "a", a)
    _setattr(g, "b", b)
    _setattr(g, "c", c)
    _setattr(g, "d", d)
    _setattr(g, "domain", domain)
    return g


_IDENTITY = {tag: _trusted(1.0 + 0j, 0j, 0j, 1.0 + 0j, tag) for tag in (DISC, HALF_PLANE, GENERIC)}


def identity(domain: str = DISC) -> MoebiusMap:
    """The identity matrix, one shared frozen instance per domain tag."""
    g = _IDENTITY.get(domain)
    return g if g is not None else MoebiusMap(1.0, 0.0, 0.0, 1.0, domain)


def make_disc_auto(a, theta: float) -> MoebiusMap:
    """gamma(z) = e^{i theta} (z + a)/(1 + conj(a) z), so gamma(0) = e^{i theta} a."""
    av = disc_point(a)
    if not math.isfinite(theta):
        raise DomainError(f"rotation angle must be finite: {theta!r}")
    ph = cmath.exp(1j * theta)
    return _trusted(ph, ph * av, av.conjugate(), 1.0 + 0j, DISC)


def translate_to_zero(w) -> MoebiusMap:
    """The automorphism (z - w)/(1 - conj(w) z) sending w to 0."""
    wv = disc_point(w)
    return _trusted(1.0 + 0j, -wv, -wv.conjugate(), 1.0 + 0j, DISC)


def _matmul(m, n):
    ma, mb, mc, md = m
    na, nb, nc, nd = n
    return (ma * na + mb * nc, ma * nb + mb * nd, mc * na + md * nc, mc * nb + md * nd)


def compose(g: MoebiusMap, f: MoebiusMap) -> MoebiusMap:
    """Matrix product: (g o f)(z) = g(f(z))."""
    domain = g.domain if g.domain == f.domain else GENERIC
    return _trusted(*_matmul(g.entries(), f.entries()), domain)


def inverse(g: MoebiusMap) -> MoebiusMap:
    return _trusted(g.d, -g.b, -g.c, g.a, g.domain)


def apply(g: MoebiusMap, z) -> complex:
    zv = complex(z)
    den = g.c * zv + g.d
    if den == 0:
        raise SingularityError(f"pole of Moebius map at z = {zv!r}")
    return (g.a * zv + g.b) / den


def deriv(g: MoebiusMap, z) -> complex:
    zv = complex(z)
    den = g.c * zv + g.d
    if den == 0:
        raise SingularityError(f"pole of Moebius map at z = {zv!r}")
    return _det(g.a, g.b, g.c, g.d) / (den * den)


def canonical(g: MoebiusMap) -> MoebiusMap:
    """Det-1 representative with a fixed sign.

    The sign makes the first entry of modulus above 1e-12 have positive
    real part (imaginary part positive on the real-part tie).
    """
    return _trusted(*_canonical_entries(*g.entries()), g.domain)


def _canonical_entries(a, b, c, d):
    """The entries of canonical's representative of the matrix (a, b, c, d)."""
    a, b, c, d = _det1(a, b, c, d)
    m = _scale((a, b, c, d))
    for e in (a, b, c, d):
        if abs(e) > 1e-12 * m:
            if e.real < -1e-12 * m or (abs(e.real) <= 1e-12 * m and e.imag < 0):
                a, b, c, d = -a, -b, -c, -d
            break
    return a, b, c, d


def matrix_distance(g: MoebiusMap, h: MoebiusMap) -> float:
    """Sup distance between det-1 representatives, minimised over the sign."""
    u = _det1(*g.entries())
    v = _det1(*h.entries())
    plus = max(abs(x - y) for x, y in zip(u, v))
    minus = max(abs(x + y) for x, y in zip(u, v))
    return min(plus, minus)


# Cayley transform as a matrix: z |-> (z - i)/(z + i), and its adjugate.
_CAYLEY = (1.0, -1j, 1.0, 1j)
_CAYLEY_ADJ = (1j, 1j, -1.0, 1.0)


def to_disc(g: MoebiusMap) -> MoebiusMap:
    """Conjugate a half-plane map by the Cayley transform."""
    if g.domain == DISC:
        return g
    m = _matmul(_matmul(_CAYLEY, g.entries()), _CAYLEY_ADJ)
    domain = DISC if g.domain == HALF_PLANE else GENERIC
    return _trusted(*_det1(*m), domain)


@dataclass(frozen=True)
class AutClass:
    """Classification of a disc (or transported half-plane) automorphism.

    Fixed points are given in disc coordinates.  For hyperbolic maps the
    attracting point comes first and translation_length is acosh(|tr|/2)
    in this package's metric convention, which equals min_z omega(z, g z).
    """

    kind: str  # "identity" | "elliptic" | "parabolic" | "hyperbolic"
    fixed_points: tuple
    multipliers: tuple
    translation_length: float | None = None


def _disc_rep(g: MoebiusMap):
    """Det-1 SU(1,1) representative with nonnegative real trace."""
    h = to_disc(g)
    if not _is_su11(*h.entries()):
        raise NonAutomorphismError("not (conjugate to) a disc automorphism")
    a, b, c, d = _det1(*h.entries())
    if (a + d).real < 0:
        a, b, c, d = -a, -b, -c, -d
    return a, b, c, d


def _quad_roots(c2: complex, c1: complex, c0: complex):
    """Roots of c2 z^2 + c1 z + c0, stable in the small-|c2| regime."""
    if abs(c2) <= 1e-14 * max(abs(c1), abs(c0), 1.0):
        if c1 == 0:
            return ()
        return (-c0 / c1,)
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    if abs(-c1 + disc) < abs(-c1 - disc):
        disc = -disc
    r1 = (-c1 + disc) / (2.0 * c2)
    r2 = c0 / (c2 * r1) if r1 != 0 else -c1 / c2
    return (r1, r2)


def classify_auto(g: MoebiusMap) -> AutClass:
    """Classify an automorphism by the trace of its det-1 representative."""
    a, b, c, d = _disc_rep(g)
    tr = (a + d).real
    scale = max(1.0, _scale((a, b, c, d)))
    if abs(b) <= STRUCT_TOL * scale and abs(c) <= STRUCT_TOL * scale and abs(a - d) <= STRUCT_TOL * scale:
        return AutClass("identity", (), ())

    def mult(z):
        return 1.0 / (c * z + d) ** 2

    if abs(tr - 2.0) <= PARABOLIC_TOL:
        # Fixed boundary point; double root of c z^2 + (d - a) z - b.
        if abs(c) > 0:
            fp = (a - d) / (2.0 * c)
        else:
            fp = b / (d - a)
        fp /= abs(fp)  # parabolic fixed points sit on the unit circle
        return AutClass("parabolic", (fp,), (mult(fp),))

    roots = _quad_roots(c, d - a, -b)
    if tr < 2.0:
        interior = min(roots, key=abs) if roots else 0.0
        return AutClass("elliptic", (interior,), (mult(interior),))

    length = math.acosh(tr / 2.0)
    r1, r2 = roots
    r1, r2 = r1 / abs(r1), r2 / abs(r2)
    if abs(mult(r1)) > abs(mult(r2)):
        r1, r2 = r2, r1
    return AutClass("hyperbolic", (r1, r2), (mult(r1), mult(r2)), length)


def kth_root(g: MoebiusMap, k: int) -> MoebiusMap:
    """Automorphism r with r^k = g, taken in the same one-parameter subgroup.

    Eigenvalue roots use the principal logarithm, so rotation angles land
    in (-pi, pi] and r tends to the identity as k grows.  Parabolic maps
    are handled by unipotent scaling, never by eigendecomposition.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.domain == HALF_PLANE:
        ra, rb, rc, rd = _real_rep(*g.entries())
        a, b, c, d = _det1(ra, rb, rc, rd)
    else:
        a, b, c, d = _disc_rep(g)
    if (a + d).real < 0:
        a, b, c, d = -a, -b, -c, -d
    if k == 1:
        return _trusted(a, b, c, d, g.domain)
    tr = (a + d).real

    if abs(tr - 2.0) <= PARABOLIC_TOL:
        na, nb, nc, nd = a - 1.0, b, c, d - 1.0
        ra, rb, rc, rd = 1.0 + na / k, nb / k, nc / k, 1.0 + nd / k
        return _trusted(*_det1(ra, rb, rc, rd), g.domain)

    disc = cmath.sqrt(complex(tr * tr / 4.0 - 1.0))
    lam1 = tr / 2.0 + disc
    lam2 = tr / 2.0 - disc
    root1 = cmath.exp(cmath.log(lam1) / k)
    root2 = cmath.exp(cmath.log(lam2) / k)
    # Eigenvector for lam: (b, lam - a) or (lam - d, c); pick the larger.
    vs = []
    for lam in (lam1, lam2):
        v1 = (b, lam - a)
        v2 = (lam - d, c)
        vs.append(max((v1, v2), key=lambda v: abs(v[0]) + abs(v[1])))
    (x1, y1), (x2, y2) = vs
    det_v = x1 * y2 - x2 * y1
    if det_v == 0:
        raise NonAutomorphismError("degenerate eigenvectors in kth_root")
    # V diag(root1, root2) V^{-1}
    ra = (root1 * x1 * y2 - root2 * x2 * y1) / det_v
    rb = (root2 - root1) * x1 * x2 / det_v
    rc = (root1 - root2) * y1 * y2 / det_v
    rd = (root2 * x1 * y2 - root1 * x2 * y1) / det_v
    return _trusted(*_det1(ra, rb, rc, rd), g.domain)


def power(g: MoebiusMap, k: int) -> MoebiusMap:
    """Matrix power by repeated squaring."""
    if k < 0:
        return power(inverse(g), -k)
    acc = identity(g.domain)
    base = g
    while k:
        if k & 1:
            acc = compose(base, acc)
        base = compose(base, base) if k > 1 else base
        k >>= 1
    return acc


def random_disc_auto(rng: random.Random, max_center: float = 0.8) -> MoebiusMap:
    r = max_center * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    theta = 2.0 * math.pi * rng.random()
    return make_disc_auto(r * cmath.exp(1j * phi), theta)


def to_json(g: MoebiusMap) -> dict:
    return {
        "kind": "mobius",
        "matrix": [[e.real, e.imag] for e in g.entries()],
        "domain": g.domain,
    }


def from_json(obj: dict) -> MoebiusMap:
    if not isinstance(obj, dict):
        raise ValueError(f"a mobius payload must be a JSON object, got {obj!r}")
    if obj.get("kind") != "mobius":
        raise ValueError(f"not a mobius payload: {obj!r}")
    a, b, c, d = (json_point(e, "mobius matrix entry") for e in json_array(obj["matrix"], "mobius matrix", 4))
    domain = obj.get("domain")
    if domain is None:
        if _is_su11(a, b, c, d):
            domain = DISC
        elif _real_rep(a, b, c, d) is not None:
            domain = HALF_PLANE
        else:
            domain = GENERIC
    return MoebiusMap(a, b, c, d, domain)
