"""Two worked case studies: LFSR key search and an intersection protocol.

The LFSR search recovers a stream-cipher key from one message/ciphertext
pair by propagating unknown key bits as {0,1} zonotopes through the
keystream (XOR-only, so propagation is exact) and fixing one bit at a
time with containment tests.

The intersection protocol is a small Boolean system of four vehicles; it
ships as DSL source so the reachability backends can be compared on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .dsl import SystemSpec, parse_system
from .errors import DimensionError, SearchFailed
from .gf2 import BitVec
from .zonotope import (LogicalZonotope, contains, full_set, scalar_normalize,
                       singleton)


@dataclass(frozen=True)
class LfsrSpec:
    """1-based taps; register 1 receives feedback, cells shift upward."""

    length: int = 60
    feedback: tuple = (60, 59, 58, 14)
    output: tuple = (60, 59)

    def __post_init__(self):
        for taps in (self.feedback, self.output):
            if not taps or any(not 1 <= t <= self.length for t in taps):
                raise ValueError(f"taps {taps} out of range 1..{self.length}")

    def to_json_dict(self):
        return {"length": self.length, "feedback": list(self.feedback),
                "output": list(self.output)}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["length"], tuple(d["feedback"]), tuple(d["output"]))


def scaled_spec(length: int) -> LfsrSpec:
    """Shrunk variant of the default taps for desk-scale runs."""
    if length == 60:
        return LfsrSpec()
    fb = (length, length - 1, length - 2, max(2, length // 4))
    return LfsrSpec(length, fb, (length, length - 1))


@dataclass(frozen=True)
class CipherInstance:
    message: tuple
    cipher: tuple

    def __post_init__(self):
        if len(self.message) != len(self.cipher):
            raise DimensionError("message and cipher lengths differ")

    @property
    def l_m(self):
        return len(self.message)


def lfsr_keystream(spec: LfsrSpec, key: Sequence, l_m: int, *,
                   post: Optional[Callable] = None) -> list:
    """l_m keystream cells; works for int cells and scalar zonotope cells.

    Output is read from the current state, then feedback shifts in. All
    arithmetic is XOR, so zonotope cells propagate without any
    over-approximation. `post` (e.g. a generator cleanup) is applied to
    every freshly computed cell.
    """
    if len(key) != spec.length:
        raise DimensionError(f"key has {len(key)} cells, spec wants {spec.length}")
    fix = post if post is not None else (lambda c: c)
    # circular buffer, head = current register 1; shifting is O(1)
    n = spec.length
    buf = list(key)
    head = 0
    out = []
    for _ in range(l_m):
        out.append(fix(functools.reduce(
            lambda a, b: a ^ b, (buf[(head + t - 1) % n] for t in spec.output))))
        fb = fix(functools.reduce(
            lambda a, b: a ^ b, (buf[(head + t - 1) % n] for t in spec.feedback)))
        head = (head - 1) % n
        buf[head] = fb
    return out


def encrypt(spec: LfsrSpec, key_bits: Sequence, message: Sequence) -> tuple:
    ks = lfsr_keystream(spec, list(key_bits), len(message))
    return tuple(k ^ m for k, m in zip(ks, message))


def make_instance(spec: LfsrSpec, key_bits: Sequence, message: Sequence) -> CipherInstance:
    return CipherInstance(tuple(message), encrypt(spec, key_bits, message))


def _bit(b) -> LogicalZonotope:
    return singleton(BitVec(1, b))


def key_search(spec: LfsrSpec, inst: CipherInstance, *, seed_width: int = 2,
               on_comb: Optional[Callable] = None) -> tuple:
    """Recover the key for a message/ciphertext pair.

    Seeds the first `seed_width` bits over all combinations, keeps the
    remaining bits as {0,1} zonotopes, prunes combinations whose cipher
    zonotopes fail to contain the observed ciphertext, then pins the free
    bits one at a time: a bit stays 0 unless setting it to 0 pushes some
    observed cipher bit outside its zonotope. A candidate key is accepted
    only if re-encrypting the message reproduces the ciphertext exactly.
    """
    if not 0 <= seed_width <= spec.length:
        raise ValueError(f"seed width {seed_width} out of range")
    unknown = full_set(1)

    def cipher_zonos(cells):
        ks = lfsr_keystream(spec, cells, inst.l_m, post=scalar_normalize)
        return [scalar_normalize(k ^ _bit(m)) for k, m in zip(ks, inst.message)]

    def consistent(zonos):
        return all(contains(z, BitVec(1, c)) for z, c in zip(zonos, inst.cipher))

    for comb in range(1 << seed_width):
        seed = [comb >> (seed_width - 1 - i) & 1 for i in range(seed_width)]
        cells = [_bit(b) for b in seed] + [unknown] * (spec.length - seed_width)
        pruned = not consistent(cipher_zonos(cells))
        if on_comb is not None:
            on_comb(tuple(seed), pruned)
        if pruned:
            continue
        for j in range(seed_width, spec.length):
            cells[j] = _bit(0)
            if not consistent(cipher_zonos(cells)):
                cells[j] = _bit(1)
        key = tuple(c.center.word for c in cells)
        if encrypt(spec, key, inst.message) == tuple(inst.cipher):
            return key
    raise SearchFailed(
        f"no {spec.length}-bit key found; instance may be under-determined")


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
