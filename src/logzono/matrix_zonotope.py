"""Logical matrix zonotopes and the Minkowski semi-tensor product.

The matrix analogue of a logical zonotope: a center matrix plus generator
matrices combined by elementwise XOR. The Minkowski semi-tensor product
mirrors the AND construction (center-with-generator and cross terms), and
over-approximates the pointwise semi-tensor product set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DimensionError
from .gf2 import BitMatrix, stp
from .zonotope import _check_gamma


@dataclass(frozen=True)
class LogicalMatrixZonotope:
    center: BitMatrix
    generators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if (g.rows, g.cols) != (self.center.rows, self.center.cols):
                raise DimensionError("generator shape does not match center")

    @property
    def shape(self):
        return (self.center.rows, self.center.cols)

    @property
    def gamma(self) -> int:
        return len(self.generators)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.center.rows,
            "cols": self.center.cols,
            "center": self.center.to_text().split(";"),
            "generators": [g.to_text().split(";") for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LogicalMatrixZonotope":
        center = BitMatrix.from_text(";".join(d["center"]))
        if (center.rows, center.cols) != (d["rows"], d["cols"]):
            raise DimensionError("rows/cols fields do not match center")
        return cls(center, tuple(BitMatrix.from_text(";".join(g)) for g in d["generators"]))


def evaluate_matrix(l: LogicalMatrixZonotope, cap: Optional[int] = None) -> frozenset:
    """All matrices over the 2^gamma generator assignments, deduplicated."""
    _check_gamma(l.gamma, cap)
    out = {l.center}
    for g in l.generators:
        if any(g.row_words):
            out |= {m ^ g for m in out}
    return frozenset(out)


def mink_stp(l1: LogicalMatrixZonotope, l2: LogicalMatrixZonotope) -> LogicalMatrixZonotope:
    """Over-approximation with generators [C1*G2j] ++ [G1i*C2] ++ [G1i*G2j]."""
    c1, c2 = l1.center, l2.center
    gens = [stp(c1, g2) for g2 in l2.generators]
    gens += [stp(g1, c2) for g1 in l1.generators]
    gens += [stp(g1, g2) for g1 in l1.generators for g2 in l2.generators]
    return LogicalMatrixZonotope(stp(c1, c2), tuple(gens))
