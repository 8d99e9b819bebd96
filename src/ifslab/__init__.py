"""Numerical laboratory for iterated function systems of holomorphic
self-maps of the unit disc.

Left systems compose new maps on the outside (L_n = f_n ∘ ... ∘ f_1),
right systems on the inside (R_n = f_1 ∘ ... ∘ f_n).  Everything is
measured in the hyperbolic metric with density 1/(1 - |z|^2); see
`ifslab.geometry` for the conventions.
"""

from .geometry import (
    DomainError,
    HyperbolicBall,
    cayley,
    cayley_inv,
    disc_distance,
    disc_point,
    halfplane_distance,
    halfplane_point,
)
from .holomap import (
    Blaschke,
    Compose,
    ConsistencyError,
    Constant,
    HalfPlaneAffine,
    InconclusiveError,
    MapExpr,
    Mobius,
    Monomial,
    NonFiniteError,
    Scale,
    denjoy_wolff,
    derivative,
    distortion,
)
from .ifs import (
    BackwardOrbit,
    GeneratorStream,
    LeftOrbitCursor,
    RightOrbitState,
    verify_backward_orbit,
)
from .moebius import MoebiusMap, classify_auto, kth_root, random_disc_auto
from .straighten import (
    left_straighten,
    mu_step,
    right_straighten,
    semiconjugacy_probe,
)
from .criteria import (
    TrackingRefusal,
    classify_left_limits,
    classify_right_limits,
    distortion_series,
    track_fixed_points,
)
from .bounds import best_automorphism, boundary_defect, fuzz_margins, margin
from .gallery import build_dense, build_escape_return

__version__ = "0.1.0"

__all__ = [
    "BackwardOrbit",
    "Blaschke",
    "Compose",
    "ConsistencyError",
    "Constant",
    "DomainError",
    "GeneratorStream",
    "HalfPlaneAffine",
    "HyperbolicBall",
    "InconclusiveError",
    "LeftOrbitCursor",
    "MapExpr",
    "Mobius",
    "MoebiusMap",
    "Monomial",
    "NonFiniteError",
    "RightOrbitState",
    "Scale",
    "TrackingRefusal",
    "best_automorphism",
    "boundary_defect",
    "build_dense",
    "build_escape_return",
    "cayley",
    "cayley_inv",
    "classify_auto",
    "classify_left_limits",
    "classify_right_limits",
    "denjoy_wolff",
    "derivative",
    "disc_distance",
    "disc_point",
    "distortion",
    "distortion_series",
    "fuzz_margins",
    "halfplane_distance",
    "halfplane_point",
    "kth_root",
    "left_straighten",
    "margin",
    "mu_step",
    "random_disc_auto",
    "right_straighten",
    "semiconjugacy_probe",
    "track_fixed_points",
    "verify_backward_orbit",
]
