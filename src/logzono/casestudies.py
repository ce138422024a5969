"""Two worked case studies: LFSR key search and an intersection protocol.

The LFSR search recovers a stream-cipher key from one message/ciphertext
pair. The unknown key bits are the generators of one logical zonotope:
each keystream cell is a mask over those shared generators, and the
keystream is XOR-only, so propagation is exact. The ciphertext lies in
the resulting zonotope exactly when some key produces it. One
`gf2.echelon` per search, on rows packed straight from the cells, tests
this containment for every seed combination at once: each combination is
then a few parity tests and a back-substitution that returns its key.

The intersection protocol is a small Boolean system of four vehicles; it
ships as DSL source so the reachability backends can be compared on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .dsl import SystemSpec, parse_system
from .errors import DimensionError, SearchFailed, UsageError
from .gf2 import echelon


@dataclass(frozen=True)
class LfsrSpec:
    """1-based taps; register 1 receives feedback, cells shift upward."""

    length: int = 60
    feedback: tuple = (60, 59, 58, 14)
    output: tuple = (60, 59)

    def __post_init__(self):
        if type(self.length) is not int:
            raise ValueError(f"spec length must be an int, got {self.length!r}")
        for name in ("feedback", "output"):
            taps = getattr(self, name)
            if any(type(t) is not int for t in taps):
                raise ValueError(f"spec {name} taps must be ints, got {list(taps)!r}")
            if not taps or any(not 1 <= t <= self.length for t in taps):
                raise ValueError(f"taps {taps} out of range 1..{self.length}")
            # a tap listed twice cancels in the XOR, so the spec would not
            # act as it reads
            for t in taps:
                if taps.count(t) > 1:
                    raise ValueError(f"spec {name} lists tap {t} twice: {list(taps)!r}")

    def to_json_dict(self):
        return {"length": self.length, "feedback": list(self.feedback),
                "output": list(self.output)}

    @classmethod
    def from_json_dict(cls, d):
        check_json_object(d, "spec", ("length", "feedback", "output"))
        for name in ("feedback", "output"):
            if not isinstance(d[name], list):
                raise ValueError(f"spec {name} must be a list of taps, got {d[name]!r}")
        return cls(d["length"], tuple(d["feedback"]), tuple(d["output"]))


def check_json_object(d, what: str, fields: tuple) -> None:
    """Raise ValueError unless d is a JSON object holding every field."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object with {', '.join(fields)}, "
                         f"got {type(d).__name__}")
    for name in fields:
        if name not in d:
            raise ValueError(f"{what} has no {name!r} field")


def scaled_spec(length: int) -> LfsrSpec:
    """Shrunk variant of the default taps for desk-scale runs; length >= 3."""
    if length < 3:
        raise UsageError(f"LFSR length must be at least 3, got {length}")
    if length == 60:
        return LfsrSpec()
    fb = (length, length - 1, length - 2, max(2, length // 4))
    # lengths 3 and 4 draw one tap twice, and the pair cancels in the XOR
    fb = tuple(t for t in fb if fb.count(t) == 1)
    return LfsrSpec(length, fb, (length, length - 1))


@dataclass(frozen=True)
class CipherInstance:
    message: tuple
    cipher: tuple

    def __post_init__(self):
        if len(self.message) != len(self.cipher):
            raise DimensionError("message and cipher lengths differ")
        for name in ("message", "cipher"):
            for i, bit in enumerate(getattr(self, name)):
                if type(bit) is not int or bit not in (0, 1):
                    raise ValueError(f"{name}[{i}] must be the int 0 or 1, got {bit!r}")

    @property
    def l_m(self):
        return len(self.message)


def lfsr_keystream(spec: LfsrSpec, key: Sequence, l_m: int) -> list:
    """l_m keystream cells; works for any XOR-able cells.

    Output is read from the current state, then feedback shifts in. All
    arithmetic is XOR, so zonotope cells (or int cells that pack a center
    bit and generator mask) propagate without any over-approximation.
    """
    if len(key) != spec.length:
        raise DimensionError(f"key has {len(key)} cells, spec wants {spec.length}")
    # circular buffer, head = current register 1; shifting is O(1)
    n = spec.length
    buf = list(key)
    head = 0
    out = []
    for _ in range(l_m):
        out.append(functools.reduce(
            lambda a, b: a ^ b, (buf[(head + t - 1) % n] for t in spec.output)))
        fb = functools.reduce(
            lambda a, b: a ^ b, (buf[(head + t - 1) % n] for t in spec.feedback))
        head = (head - 1) % n
        buf[head] = fb
    return out


def encrypt(spec: LfsrSpec, key_bits: Sequence, message: Sequence) -> tuple:
    ks = lfsr_keystream(spec, list(key_bits), len(message))
    return tuple(k ^ m for k, m in zip(ks, message))


def make_instance(spec: LfsrSpec, key_bits: Sequence, message: Sequence) -> CipherInstance:
    return CipherInstance(tuple(message), encrypt(spec, key_bits, message))


def key_search(spec: LfsrSpec, inst: CipherInstance, *, seed_width: int = 2,
               on_comb: Optional[Callable] = None) -> tuple:
    """Recover the key for a message/ciphertext pair.

    Seeds the first `seed_width` bits over all combinations and keeps the
    remaining bits as shared generators. The keystream is built once with
    every key bit a generator: free key bit j is column j and seed bit i
    is column `free + i`. Cell i packs into the row `cell_i | rhs_i << L`
    for key length L, where rhs_i = message_i ^ cipher_i, and one
    `gf2.echelon` over those rows serves every combination. A pivot whose
    lowest bit is a seed column or the right-hand-side bit has no free
    bits, so it is a parity test on the seed: if any test is odd, no key
    with that seed exists and the combination is pruned. Otherwise the
    pivots in free columns back-substitute, highest first, with every free
    bit they leave open set to 0. Those are the pivot columns of the
    seeded system alone, so the key is the one a solve per combination
    would return. A candidate key is accepted only if re-encrypting the
    message reproduces the ciphertext exactly.
    """
    if not 0 <= seed_width <= spec.length:
        raise ValueError(f"seed width {seed_width} out of range")
    length = spec.length
    free = length - seed_width
    columns = [1 << j for j in range(length)]
    cells = lfsr_keystream(spec, columns[free:] + columns[:free], inst.l_m)
    rows = [cell | (m ^ c) << length
            for cell, m, c in zip(cells, inst.message, inst.cipher)]
    pivots = echelon(rows)[1]
    parity_tests = [w for low, w in pivots.items() if low >> free]
    free_pivots = sorted(((low, w) for low, w in pivots.items()
                          if not low >> free), reverse=True)

    for comb in range(1 << seed_width):
        seed = tuple(comb >> (seed_width - 1 - i) & 1 for i in range(seed_width))
        # the seed in its columns and bit L set, so `w & x` holds a row's
        # known part; back-substitution then fills in the free bits
        x = 1 << length
        for i, bit in enumerate(seed):
            x |= bit << (free + i)
        pruned = any((w & x).bit_count() & 1 for w in parity_tests)
        if on_comb is not None:
            on_comb(seed, pruned)
        if pruned:
            continue
        for low, w in free_pivots:
            if (w & x).bit_count() & 1:
                x |= low
        key = seed + tuple(x >> j & 1 for j in range(free))
        if encrypt(spec, key, inst.message) == tuple(inst.cipher):
            return key
    raise SearchFailed(f"no {spec.length}-bit key reproduces the ciphertext")


INTERSECTION_SOURCE = """\
# Four vehicles at a crossing. p_i: vehicle i is passing; c_i: vehicle i
# came first. A vehicle may start passing when its controller requests it
# and it is neither already passing nor flagged as having come first.
state p1, p2, p3, p4, c1, c2, c3, c4;
input up1, up2, up3, up4, uc1, uc2, uc3, uc4;

p1' = up1 & !p1 & !c1;
p2' = up2 & !p2 & !c2;
p3' = up3 & !p3 & !c3;
p4' = up4 & !p4 & !c4;
c1' = !p1' & (uc1 | (!p1 & p1'));
c2' = !p2' & (uc2 | (!p2 & p2'));
c3' = !p3' & (uc3 | (!p3 & p3'));
c4' = !p4' & (uc4 | (!p4 & p4'));

init p1 = 1;
init p2 = {0,1};
init p3 = 0;
init p4 = {0,1};
init c1 = 1;
init c2 = {0,1};
init c3 = 0;
init c4 = {0,1};

in up1 = {0,1};
in up2 = 0;
in up3 = {0,1};
in up4 = 0;
in uc1 = {0,1};
in uc2 = {0,1};
in uc3 = {0,1};
in uc4 = {0,1};

horizon 10;
"""


def intersection_system() -> SystemSpec:
    return parse_system(INTERSECTION_SOURCE)
