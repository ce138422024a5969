"""Logical zonotopes over binary vectors.

A logical zonotope <c, G> is the point set { c xor (xor_i g_i b_i) : b_i in
{0,1} } for a center c and generators g_1..g_gamma, that is the affine
subspace c xor span(G) of GF(2)^n. XOR, NOT and XNOR of two zonotopes are
computed exactly; AND (and the operations derived from it) are
over-approximated, meaning the result's point set contains the true
pointwise set but may have surplus members.

`reduce`, `evaluate` and `contains` each take one GF(2) echelon form of the
generator words from `gf2.echelon`, the package's only elimination, so none
of them enumerates the 2^gamma generator assignments; only `evaluate` lists
points, 2^rank of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import CapacityError, DimensionError, EmptyInputError, UsageError
from .explicit import ExplicitSet
from .gf2 import BitVec, echelon, ones, zeros

DEFAULT_GAMMA_CAP = 20
_CAP_ENV = "LOGZONO_GAMMA_CAP"


def effective_cap(cap: Optional[int] = None) -> int:
    """`cap` if given, else LOGZONO_GAMMA_CAP, else DEFAULT_GAMMA_CAP."""
    if cap is not None:
        return cap
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_GAMMA_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise UsageError(f"{_CAP_ENV} must be a positive integer, got {raw!r}")
    return value


def _check_gamma(gamma: int, cap: Optional[int]) -> None:
    """Raise CapacityError when gamma exceeds effective_cap(cap)."""
    cap = effective_cap(cap)
    if gamma > cap:
        raise CapacityError(
            f"gamma={gamma} exceeds enumeration cap {cap} ({_CAP_ENV})")


@dataclass(frozen=True)
class LogicalZonotope:
    center: BitVec
    generators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.n != self.center.n:
                raise DimensionError(
                    f"generator length {g.n} does not match center length {self.center.n}")

    @property
    def dim(self) -> int:
        return self.center.n

    @property
    def gamma(self) -> int:
        return len(self.generators)

    def __xor__(self, other):
        return mink_xor(self, other)

    def __and__(self, other):
        return mink_and(self, other)

    def __or__(self, other):
        return mink_or(self, other)

    def __invert__(self):
        return mink_not(self)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "center": self.center.to_text(),
            "generators": [g.to_text() for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LogicalZonotope":
        if not isinstance(d, dict):
            raise ValueError(f"a zonotope is a JSON object, got {type(d).__name__}")
        c = BitVec.from_text(d["center"])
        if c.n != d["dim"]:
            raise DimensionError("dim field does not match center length")
        if not isinstance(d["generators"], list):
            raise ValueError(f"generators must be a list of bitstrings, got {d['generators']!r}")
        return cls(c, tuple(BitVec.from_text(s) for s in d["generators"]))

    def __repr__(self):
        gens = ",".join(g.to_text() for g in self.generators)
        return f"<{self.center.to_text()};{gens}>"


def singleton(c: BitVec) -> LogicalZonotope:
    return LogicalZonotope(c, ())


def full_set(n: int = 1) -> LogicalZonotope:
    """The zonotope covering all of B^n (unit-vector generators)."""
    return LogicalZonotope(zeros(n), tuple(BitVec(n, 1 << i) for i in range(n)))


def _check_dims(l1: LogicalZonotope, l2: LogicalZonotope):
    if l1.dim != l2.dim:
        raise DimensionError(f"zonotope dims differ: {l1.dim} vs {l2.dim}")


def evaluate(l: LogicalZonotope, cap: Optional[int] = None) -> ExplicitSet:
    """All points of the zonotope: the 2^rank sums of a generator basis.

    Raises CapacityError when gamma (not the rank) exceeds the enumeration
    cap.
    """
    _check_gamma(l.gamma, cap)
    words = [l.center.word]
    for p in echelon([g.word for g in l.generators])[1].values():
        words += [w ^ p for w in words]
    return ExplicitSet.from_words(l.dim, words)


_FREE_BIT = BitVec(1, 1)


def scalar_normalize(l: LogicalZonotope) -> LogicalZonotope:
    """Evaluate-preserving cleanup of a 1-bit zonotope; other dims unchanged.

    A scalar zonotope is {c} when every generator is zero and {0,1}
    otherwise, so gamma never needs to exceed 1. Each scalar Minkowski
    op's center and that "free" flag depend only on its operands' centers
    and flags, so normalizing after every op gives the same result as
    normalizing once at the end.
    """
    if l.dim != 1:
        return l
    free = any(g.word for g in l.generators)
    if l.gamma == (1 if free else 0):
        return l
    return LogicalZonotope(l.center, (_FREE_BIT,) if free else ())


def mink_xor(l1: LogicalZonotope, l2: LogicalZonotope) -> LogicalZonotope:
    """Exact: <c1 xor c2, [G1, G2]>."""
    _check_dims(l1, l2)
    return LogicalZonotope(l1.center ^ l2.center, l1.generators + l2.generators)


def mink_not(l: LogicalZonotope) -> LogicalZonotope:
    """Exact: flip the center, keep the generators."""
    return LogicalZonotope(l.center ^ ones(l.dim), l.generators)


def mink_xnor(l1: LogicalZonotope, l2: LogicalZonotope) -> LogicalZonotope:
    return mink_not(mink_xor(l1, l2))


def mink_and(l1: LogicalZonotope, l2: LogicalZonotope) -> LogicalZonotope:
    """Over-approximation with generators [c1&g2j] ++ [c2&g1i] ++ [g1i&g2j]."""
    _check_dims(l1, l2)
    c1, c2 = l1.center, l2.center
    gens = [c1 & g2 for g2 in l2.generators]
    gens += [c2 & g1 for g1 in l1.generators]
    gens += [g1 & g2 for g1 in l1.generators for g2 in l2.generators]
    return LogicalZonotope(c1 & c2, tuple(gens))


def mink_nand(l1: LogicalZonotope, l2: LogicalZonotope) -> LogicalZonotope:
    return mink_not(mink_and(l1, l2))


def mink_or(l1: LogicalZonotope, l2: LogicalZonotope) -> LogicalZonotope:
    return mink_nand(mink_not(l1), mink_not(l2))


def mink_nor(l1: LogicalZonotope, l2: LogicalZonotope) -> LogicalZonotope:
    return mink_not(mink_or(l1, l2))


def contains(l: LogicalZonotope, x: BitVec) -> bool:
    """Exact membership: x xor c lies in the span of the generators.

    `echelon` walks its words in reverse, so with x xor c first it keeps
    index 0 exactly when x xor c is not in the span of the generators.
    Polynomial in gamma; never enumerates the 2^gamma assignments.
    """
    if x.n != l.dim:
        raise DimensionError(f"point length {x.n} does not match dim {l.dim}")
    kept = echelon([x.word ^ l.center.word] + [g.word for g in l.generators])[0]
    return kept[:1] != [0]


def enclose_points(points: Iterable[BitVec]) -> LogicalZonotope:
    """Zonotope guaranteed to contain every input point: c = s1, g_i = s_i xor c."""
    points = list(points)
    if not points:
        raise EmptyInputError("enclose_points needs at least one point")
    n = points[0].n
    for p in points:
        if p.n != n:
            raise DimensionError("points of mixed lengths")
    c = points[0]
    return LogicalZonotope(c, tuple(p ^ c for p in points[1:]))


def reduce(l: LogicalZonotope) -> LogicalZonotope:
    """Drop every generator that lies in the span of the generators after it.

    The kept generators are a basis of span(G) in their original order, and
    the center is never changed, so the result evaluates to exactly the same
    set. This is the set a greedy scan in index order keeps, where each
    generator whose removal leaves the evaluated set equal is dropped.
    """
    kept = echelon([g.word for g in l.generators])[0]
    return LogicalZonotope(l.center, tuple(l.generators[i] for i in kept))
