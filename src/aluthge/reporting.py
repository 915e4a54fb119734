"""Machine-readable outcomes of randomized checks.

A CheckReport records everything needed to replay a run: check id, seed,
tolerances snapshot, trial counts, the worst residual seen and a witness for
it. Serialization is canonical (sorted keys, shortest round-trip floats) so
identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import Tolerances

__all__ = ["CheckReport", "vector_payload", "dumps_canonical"]


def vector_payload(v) -> list:
    """[re, im] pairs of a vector, the row layout of ``matrixio.matrix_to_obj``."""
    return np.asarray(v, dtype=np.complex128).ravel().view(np.float64).reshape(-1, 2).tolist()


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    seed: int
    dim: int
    lam: float
    trials: int
    failures: int
    vacuous: int
    worst_residual: float
    tolerances: Tolerances
    witness: dict | None = field(default=None)

    def __post_init__(self) -> None:
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "seed": int(self.seed),
            "dim": int(self.dim),
            "lambda": float(self.lam),
            "trials": int(self.trials),
            "failures": int(self.failures),
            "vacuous": int(self.vacuous),
            "worst_residual": float(self.worst_residual),
            "tolerances": self.tolerances.to_dict(),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def to_json(self) -> str:
        return dumps_canonical(self.to_dict())


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
