"""Brute-force explicit sets of binary vectors.

This is the ground truth the zonotope operations are checked against:
every Minkowski operation is applied between every pair of members and
deduplicated. Deliberately naive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionError
from .gf2 import BitVec

_BINARY_OPS = {
    "xor": lambda a, b: a ^ b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "nand": lambda a, b: ~(a & b),
    "nor": lambda a, b: ~(a | b),
    "xnor": lambda a, b: ~(a ^ b),
}


def _text_key(dim: int):
    """Sort key on a word giving `BitVec.to_text()` order, built in C.

    `format` writes bit dim-1 first; reversed, that is the text form (for
    dim >= 1; a dim-0 set has at most one point).
    """
    fmt = f"0{dim}b"
    return lambda w: format(w, fmt)[::-1]


@dataclass(frozen=True)
class ExplicitSet:
    """Deduplicated vectors in canonical (lexicographic bitstring) order."""

    dim: int
    points: tuple

    @classmethod
    def from_iterable(cls, dim: int, pts: Iterable[BitVec]) -> "ExplicitSet":
        words = []
        for p in pts:
            if p.n != dim:
                raise DimensionError(f"point of length {p.n} in a dim-{dim} set")
            words.append(p.word)
        return cls.from_words(dim, words)

    @classmethod
    def from_words(cls, dim: int, words: Iterable[int]) -> "ExplicitSet":
        mask = (1 << dim) - 1
        ordered = sorted({w & mask for w in words}, key=_text_key(dim))
        return cls(dim, tuple(BitVec(dim, w) for w in ordered))

    def words(self) -> frozenset:
        return frozenset(p.word for p in self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, v: BitVec):
        return v.n == self.dim and v.word in self.words()

    def issubset(self, other: "ExplicitSet") -> bool:
        return self.dim == other.dim and self.words() <= other.words()

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "points": [p.to_text() for p in self.points]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExplicitSet":
        return cls.from_iterable(d["dim"], [BitVec.from_text(s) for s in d["points"]])


def oracle_op(op: str, s1: ExplicitSet, s2: ExplicitSet) -> ExplicitSet:
    """Pointwise Minkowski operation between every pair of members."""
    if op not in _BINARY_OPS:
        raise ValueError(f"unknown op {op!r}")
    if s1.dim != s2.dim:
        raise DimensionError(f"set dims differ: {s1.dim} vs {s2.dim}")
    f = _BINARY_OPS[op]
    return ExplicitSet.from_iterable(s1.dim, (f(a, b) for a in s1 for b in s2))


def oracle_not(s: ExplicitSet) -> ExplicitSet:
    return ExplicitSet.from_iterable(s.dim, (~a for a in s))
