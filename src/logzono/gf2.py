"""Bit-packed binary vectors and matrices with GF(2) arithmetic.

Vectors and matrices are stored as plain Python ints (one int per vector,
one int per matrix row), so the elementwise logical operations are single
machine-word operations for the dimensions this package cares about.

`echelon` is the package's one GF(2) elimination, over plain ints. The
zonotope's `reduce`, `evaluate` and `contains`, `solve_words` (and
`gf2_solve`, which packs a `BitMatrix` system for it) and the LFSR key
search are all built on it. Eliminating on rows packed into machine words
follows M4RI (Albrecht and Bard).

Indexing follows the 1-based convention used throughout: the leftmost
character of the text form "101" is index 1. Internally index i lives at
int bit (i - 1); that layout is not part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DimensionError


@dataclass(frozen=True, slots=True)
class BitVec:
    """Fixed-length binary vector."""

    n: int
    word: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError(f"negative vector length {self.n}")
        object.__setattr__(self, "word", self.word & ((1 << self.n) - 1))

    @classmethod
    def from_text(cls, text: str) -> "BitVec":
        if not isinstance(text, str) or not all(ch in "01" for ch in text):
            raise ValueError(f"not a bitstring: {text!r}")
        word = 0
        for pos, ch in enumerate(text):
            if ch == "1":
                word |= 1 << pos
        return cls(len(text), word)

    def to_text(self) -> str:
        return "".join("1" if self.word >> p & 1 else "0" for p in range(self.n))

    def bit(self, i: int) -> int:
        """Value at 1-based index i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return self.word >> (i - 1) & 1

    def _check(self, other: "BitVec"):
        if self.n != other.n:
            raise DimensionError(f"vector lengths differ: {self.n} vs {other.n}")

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.word ^ other.word)

    def __and__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.word & other.word)

    def __or__(self, other: "BitVec") -> "BitVec":
        self._check(other)
        return BitVec(self.n, self.word | other.word)

    def __invert__(self) -> "BitVec":
        return BitVec(self.n, ~self.word)

    def __repr__(self):
        return f"BitVec('{self.to_text()}')"


def zeros(n: int) -> BitVec:
    return BitVec(n, 0)


def ones(n: int) -> BitVec:
    return BitVec(n, (1 << n) - 1)


@dataclass(frozen=True)
class BitMatrix:
    """Row-major packed binary matrix (column j of a row at int bit j)."""

    rows: int
    cols: int
    row_words: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionError(f"matrix dims must be positive, got {self.rows}x{self.cols}")
        if len(self.row_words) != self.rows:
            raise DimensionError("row count does not match row_words")
        mask = (1 << self.cols) - 1
        object.__setattr__(self, "row_words", tuple(w & mask for w in self.row_words))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BitMatrix":
        rows = [list(r) for r in rows]
        words = []
        for r in rows:
            w = 0
            for j, b in enumerate(r):
                if b:
                    w |= 1 << j
            words.append(w)
        return cls(len(rows), len(rows[0]) if rows else 0, tuple(words))

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse rows separated by ';', each row a bitstring."""
        parts = text.split(";")
        vecs = [BitVec.from_text(p) for p in parts]
        if len({v.n for v in vecs}) > 1:
            raise DimensionError("ragged rows in matrix text")
        return cls(len(vecs), vecs[0].n, tuple(v.word for v in vecs))

    def to_text(self) -> str:
        return ";".join(BitVec(self.cols, w).to_text() for w in self.row_words)

    def entry(self, i: int, j: int) -> int:
        """Value at 1-based (row, col)."""
        return self.row_words[i - 1] >> (j - 1) & 1

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ")
        return BitMatrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.row_words, other.row_words)))

    def __repr__(self):
        return f"BitMatrix('{self.to_text()}')"


def identity(k: int) -> BitMatrix:
    return BitMatrix(k, k, tuple(1 << i for i in range(k)))


def from_columns(cols: Iterable[BitVec]) -> BitMatrix:
    cols = list(cols)
    n = cols[0].n
    words = []
    for i in range(n):
        w = 0
        for j, c in enumerate(cols):
            if c.word >> i & 1:
                w |= 1 << j
        words.append(w)
    return BitMatrix(n, len(cols), tuple(words))


def gf2_matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product with XOR accumulation: (i,j) = XOR_k a[i,k] & b[k,j]."""
    if a.cols != b.rows:
        raise DimensionError(f"inner dims differ: {a.cols} vs {b.rows}")
    out = []
    for w in a.row_words:
        acc = 0
        while w:
            low = w & -w
            acc ^= b.row_words[low.bit_length() - 1]
            w ^= low
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def gf2_matvec(a: BitMatrix, x: BitVec) -> BitVec:
    if a.cols != x.n:
        raise DimensionError(f"inner dims differ: {a.cols} vs {x.n}")
    w = 0
    for i, rw in enumerate(a.row_words):
        if (rw & x.word).bit_count() & 1:
            w |= 1 << i
    return BitVec(a.rows, w)


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product; block (i,j) = a[i,j] * b."""
    out = []
    for aw in a.row_words:
        for bw in b.row_words:
            w = 0
            rem = aw
            while rem:
                low = rem & -rem
                w |= bw << (low.bit_length() - 1) * b.cols
                rem ^= low
            out.append(w)
    return BitMatrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


def stp(m: BitMatrix, n: BitMatrix) -> BitMatrix:
    """Semi-tensor product (m kron I_{s/cols}) (n kron I_{s/rows}), s = lcm."""
    s = math.lcm(m.cols, n.rows)
    left = kron(m, identity(s // m.cols)) if s != m.cols else m
    right = kron(n, identity(s // n.rows)) if s != n.rows else n
    return gf2_matmul(left, right)


def echelon(words: Sequence[int]) -> tuple:
    """Echelon basis of span(words) over GF(2) as (kept indices, pivots).

    The package's only elimination. Walks the words in reverse and reduces
    each against `pivots`, a dict from a lowest set bit (`w & -w`) to the
    reduced word that owns it; a word is kept when its remainder is
    nonzero, and the remainder becomes the pivot for its lowest bit. The
    kept indices come back in their original order: the words that are not
    in the span of the words after them. The pivot keys are the pivot
    columns of the reduced row-echelon form, whatever the order of
    elimination.
    """
    pivots = {}
    kept = []
    for i in range(len(words) - 1, -1, -1):
        w = words[i]
        while w:
            low = w & -w
            p = pivots.get(low)
            if p is None:
                pivots[low] = w
                kept.append(i)
                break
            w ^= p
    kept.reverse()
    return kept, pivots


def solve_words(rows: Sequence[int], cols: int) -> Optional[int]:
    """One solution x of a packed GF(2) system, or None.

    Row i holds the coefficients of equation i in bits 0..cols-1 and its
    right-hand side at bit `cols`. The system has no solution exactly when
    that bit becomes a pivot of `echelon`. Otherwise x comes from
    back-substitution, highest pivot first, with every free bit 0; zero
    rows or zero columns need no special case.
    """
    pivots = echelon(rows)[1]
    if 1 << cols in pivots:
        return None
    x = 0
    for low in sorted(pivots, reverse=True):
        w = pivots[low]
        if ((w & x).bit_count() + (w >> cols)) & 1:
            x |= low
    return x


def gf2_solve(a: BitMatrix, b: BitVec) -> Optional[BitVec]:
    """One solution of A x = b over GF(2), or None.

    Packs row i as `a.row_words[i] | b_i << a.cols` for `solve_words`.
    Deterministic: the pivots are the lowest columns any echelon form
    attains and free variables are 0, so the witness does not depend on
    the order of elimination.
    """
    if a.rows != b.n:
        raise DimensionError(f"rhs length {b.n} does not match rows {a.rows}")
    cols = a.cols
    x = solve_words([w | (b.word >> i & 1) << cols
                     for i, w in enumerate(a.row_words)], cols)
    return None if x is None else BitVec(cols, x)
