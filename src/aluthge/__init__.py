"""Dense complex-matrix lambda-Aluthge transform toolkit.

The lambda-Aluthge and Duggal transforms through the polar decomposition with
the N(V) = N(T) convention, their iteration, structured random generators and
a seeded verification harness for the transform's rank-one, projection,
self-adjointness, kernel and spectrum facts plus the rigidity of
Jordan-product-commuting maps.
"""

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    spectra_pairing_distance,
    spectrum,
)
from .transform import aluthge, aluthge_stack, iterate_aluthge

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tolerances",
    "aluthge",
    "aluthge_stack",
    "iterate_aluthge",
    "spectra_pairing_distance",
    "spectrum",
]
