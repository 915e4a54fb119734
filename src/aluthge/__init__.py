"""Dense complex-matrix lambda-Aluthge transform toolkit.

Polar decomposition with the N(V) = N(T) convention, the lambda-Aluthge and
Duggal transforms, structured random generators, and a seeded verification
harness for the transform's rank-one, projection, self-adjointness, kernel
and spectrum facts plus the rigidity of Jordan-product-commuting maps.
"""

from .generators import GeneratorSpec
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    is_normal,
    is_partial_isometry,
    is_projection,
    is_quasi_normal,
    jordan_product,
    rank_one,
    spectra_pairing_distance,
    spectrum,
)
from .maps import CandidateMap, adjoint_counterexample, apply_map
from .reporting import CheckReport
from .transform import (
    AluthgeTrace,
    PolarDecomposition,
    aluthge,
    aluthge_rank_one,
    duggal,
    iterate_aluthge,
    polar,
)

__version__ = "0.1.0"

__all__ = [
    "AluthgeTrace",
    "CandidateMap",
    "CheckReport",
    "DEFAULT_TOL",
    "GeneratorSpec",
    "PolarDecomposition",
    "Tolerances",
    "adjoint_counterexample",
    "aluthge",
    "aluthge_rank_one",
    "apply_map",
    "duggal",
    "is_normal",
    "is_partial_isometry",
    "is_projection",
    "is_quasi_normal",
    "iterate_aluthge",
    "jordan_product",
    "polar",
    "rank_one",
    "spectra_pairing_distance",
    "spectrum",
]
