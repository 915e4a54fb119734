"""Dense complex-matrix lambda-Aluthge transform toolkit.

Polar decomposition with the N(V) = N(T) convention, the lambda-Aluthge and
Duggal transforms, structured random generators, and a seeded verification
harness for the transform's rank-one, projection, self-adjointness, kernel
and spectrum facts plus the rigidity of Jordan-product-commuting maps.
"""

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    spectra_pairing_distance,
    spectrum,
)
from .transform import (
    PolarDecomposition,
    aluthge,
    aluthge_rank_one,
    aluthge_stack,
    iterate_aluthge,
    polar,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "PolarDecomposition",
    "Tolerances",
    "aluthge",
    "aluthge_rank_one",
    "aluthge_stack",
    "iterate_aluthge",
    "polar",
    "spectra_pairing_distance",
    "spectrum",
]
