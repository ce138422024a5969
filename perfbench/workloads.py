"""The four benchmark workloads: seeded inputs, the timed operation, its check.

A workload hands out its inputs in rounds. `run` is the operation the
benchmark times; `check` compares its result with a reference from
`reference.py` and returns an error message, or None when the result is
right. Library calls go through the `logzono` package namespace at call
time, so the traced run's wrappers see them. README.md says why each
workload exists and why rounds are balanced the way they are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import logzono as lz

import reference as ref


def _check_reach(result, expected_digest: str):
    """Shared check of a `reach --backend both` verdict."""
    rz, rx, report = result
    if not report.ok:
        return f"containment violated: {report.violations[:2]}"
    exact = [frozenset(p.word for p in s.joint.points) for s in rx.steps]
    if ref.digest(exact) != expected_digest:
        return "explicit reachable sets differ from the reference"
    if len(rz.steps) != len(exact):
        return "zonotope reach has the wrong number of steps"
    for zs, words in zip(rz.steps, exact):
        for i, v in enumerate(rz.var_names):
            if not {w >> i & 1 for w in words} <= set(zs.var_sets[v]):
                return f"zonotope reach misses a value of {v} at k={zs.k}"
    return None


class IntersectionLong:
    """`reach --backend both` on the four-vehicle intersection at N=1000."""

    name = "intersection-long"
    HORIZON = 1000
    WARMUP_HORIZON = 10

    def __init__(self, seed: int, small: bool = False):
        # The system is fixed; the seed has nothing to vary here.
        self.system = lz.intersection_system()
        self.horizon = self.WARMUP_HORIZON if small else self.HORIZON
        self.digests = ref.load_digests()["intersection"]

    def warmup_items(self):
        return [self.WARMUP_HORIZON]

    def next_round(self):
        return [self.horizon]

    def run(self, horizon):
        rz = lz.reach(self.system, horizon, "zonotope")
        rx = lz.reach(self.system, horizon, "explicit")
        return rz, rx, lz.check_containment(rz, rx)

    def check(self, horizon, result):
        size = result[1].steps[-1].size
        if size != ref.INTERSECTION_FINAL_SIZE:
            return f"explicit final size {size}, expected {ref.INTERSECTION_FINAL_SIZE}"
        return _check_reach(result, self.digests[str(horizon)])


class RandomSystems:
    """Parse one random system, then `reach --backend both` at horizon 30."""

    name = "random-systems"

    def __init__(self, seed: int, small: bool = False):
        stored = ref.load_digests()
        sources = [src for src, _ in ref.random_pool()]
        if ref.pool_fingerprint(sources) != stored["pool_fingerprint"]:
            raise RuntimeError("random-system pool does not match digests.json")
        self.sources = sources
        self.digests = stored["random"]
        self.horizon = stored["random_horizon"]
        self.indices = list(range(3 if small else len(sources)))
        self.rng = random.Random(seed)

    def warmup_items(self):
        return [0]

    def next_round(self):
        order = list(self.indices)
        self.rng.shuffle(order)
        return order

    def run(self, i):
        system = lz.parse_system(self.sources[i])
        rz = lz.reach(system, self.horizon, "zonotope")
        rx = lz.reach(system, self.horizon, "explicit")
        return rz, rx, lz.check_containment(rz, rx)

    def check(self, i, result):
        return _check_reach(result, self.digests[i])


@dataclass(frozen=True)
class _Cipher:
    message: tuple
    cipher: tuple
    instance: object


class LfsrKeysearch:
    """`key_search` on the paper's 60-bit LFSR with a 240-bit message."""

    name = "lfsr-keysearch"
    LENGTH, FEEDBACK, OUTPUT = 60, (60, 59, 58, 14), (60, 59)
    MESSAGE_BITS = 240
    WARMUP_SEED = 60
    # key_search enumerates the first two key bits; a round holds one key
    # for each of their four values, so every round does the same search work.
    LEADS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self, seed: int, small: bool = False):
        self.spec = lz.LfsrSpec(self.LENGTH, self.FEEDBACK, self.OUTPUT)
        self.rng = random.Random(seed)
        self.leads = self.LEADS[:1] if small else self.LEADS
        self.combs = self.pruned = 0

    def _cipher(self, rng, lead) -> _Cipher:
        key = list(lead) + [rng.getrandbits(1) for _ in range(self.LENGTH - len(lead))]
        message = tuple(rng.getrandbits(1) for _ in range(self.MESSAGE_BITS))
        cipher = ref.lfsr_encrypt(self.LENGTH, self.FEEDBACK, self.OUTPUT, key, message)
        return _Cipher(message, cipher, lz.CipherInstance(message, cipher))

    def warmup_items(self):
        return [self._cipher(random.Random(self.WARMUP_SEED), self.LEADS[0])]

    def next_round(self):
        leads = list(self.leads)
        self.rng.shuffle(leads)
        return [self._cipher(self.rng, lead) for lead in leads]

    def _on_comb(self, seed_bits, pruned):
        self.combs += 1
        self.pruned += pruned

    def run(self, item):
        return lz.key_search(self.spec, item.instance, on_comb=self._on_comb)

    def check(self, item, key):
        if len(key) != self.LENGTH or any(b not in (0, 1) for b in key):
            return f"key is not {self.LENGTH} bits: {key!r}"
        if ref.lfsr_encrypt(self.LENGTH, self.FEEDBACK, self.OUTPUT, key,
                            item.message) != item.cipher:
            return "recovered key does not re-encrypt to the ciphertext"
        return None


@dataclass(frozen=True)
class _SetOp:
    op: str
    n: int
    a: object
    b: object
    a_points: frozenset
    b_points: frozenset
    probes: tuple          # BitVecs given to contains
    probe_words: tuple


@dataclass(frozen=True)
class _MatrixOp:
    a: object
    b: object
    a_points: frozenset
    b_points: frozenset


def _bits_of(m) -> tuple:
    """A BitMatrix as rows of 0/1 entries (column j sits at int bit j)."""
    return tuple(tuple(w >> j & 1 for j in range(m.cols)) for w in m.row_words)


class SetAlgebra:
    """Minkowski op, `reduce`, `evaluate`, `contains` on n-dim zonotopes.

    One in ten operations is a matrix-zonotope `mink_stp` plus
    `evaluate_matrix` instead.
    """

    name = "set-algebra"
    OPS = ("and", "or", "nand", "xor")
    DIMS = tuple(range(8, 17))
    GENS = (1, 2, 3)
    MATRIX_SIDES = (1, 2, 4)       # inner dims of the stp operands
    MATRIX_GENS = (1, 2)
    MEMBER_PROBES = UNIFORM_PROBES = 8
    WARMUP_SEED = 16
    MAX_RANK = 12
    MAX_DRAWS = 10_000

    def __init__(self, seed: int, small: bool = False):
        # A round visits every shape once, in seeded order, with seeded bits.
        self.shapes = [("set", op, n, g1, g2) for op in self.OPS for n in self.DIMS
                       for g1 in self.GENS for g2 in self.GENS]
        self.shapes += [("matrix", k, r, g1, g2) for k in self.MATRIX_SIDES
                        for r in self.MATRIX_SIDES for g1 in self.MATRIX_GENS
                        for g2 in self.MATRIX_GENS]
        if small:
            self.shapes = [("set", op, 8, 2, 2) for op in self.OPS] + [("matrix", 2, 4, 1, 1)]
        self.rng = random.Random(seed)

    @staticmethod
    def _zonotope(n, words):
        z = lz.LogicalZonotope(lz.BitVec(n, words[0]),
                               tuple(lz.BitVec(n, w) for w in words[1:]))
        return z, ref.span_points(words[0], words[1:])

    def _set_op(self, rng, op, n, g1, g2) -> _SetOp:
        # Redraw until the construction's generators have full rank, so the
        # result spans 2^min(gamma, n) points and a shape costs the same in
        # every round: the cost of reduce and evaluate is exponential in
        # that rank, and a free draw made round costs swing with the seed.
        for _ in range(self.MAX_DRAWS):
            a_words = [rng.getrandbits(n) for _ in range(g1 + 1)]
            b_words = [rng.getrandbits(n) for _ in range(g2 + 1)]
            gens = ref.minkowski_generators(op, n, a_words, b_words)
            if ref.gf2_rank(gens) == min(len(gens), n, self.MAX_RANK):
                break
        else:
            raise RuntimeError(f"no full-rank mink_{op} operands at n={n} in "
                               f"{self.MAX_DRAWS} draws")
        a, a_points = self._zonotope(n, a_words)
        b, b_points = self._zonotope(n, b_words)
        xs, ys = sorted(a_points), sorted(b_points)
        words = [ref.apply(op, n, rng.choice(xs), rng.choice(ys))
                 for _ in range(self.MEMBER_PROBES)]
        words += [rng.getrandbits(n) for _ in range(self.UNIFORM_PROBES)]
        return _SetOp(op, n, a, b, a_points, b_points,
                      tuple(lz.BitVec(n, w) for w in words), tuple(words))

    @staticmethod
    def _matrix(rng, rows, cols, gamma):
        mats = [lz.BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
                for _ in range(gamma + 1)]
        z = lz.LogicalMatrixZonotope(mats[0], tuple(mats[1:]))
        return z, ref.mat_span(_bits_of(mats[0]), [_bits_of(m) for m in mats[1:]])

    def _matrix_op(self, rng, inner_a, inner_b, g1, g2) -> _MatrixOp:
        a, a_points = self._matrix(rng, 2, inner_a, g1)
        b, b_points = self._matrix(rng, inner_b, 2, g2)
        return _MatrixOp(a, b, a_points, b_points)

    def warmup_items(self):
        rng = random.Random(self.WARMUP_SEED)
        return [self._set_op(rng, "and", 12, 3, 3), self._matrix_op(rng, 2, 4, 2, 2)]

    def next_round(self):
        shapes = list(self.shapes)
        self.rng.shuffle(shapes)
        return [(self._set_op if s[0] == "set" else self._matrix_op)(self.rng, *s[1:])
                for s in shapes]

    def run(self, item):
        if isinstance(item, _MatrixOp):
            r = lz.mink_stp(item.a, item.b)
            return r, lz.evaluate_matrix(r)
        r = getattr(lz, "mink_" + item.op)(item.a, item.b)
        reduced = lz.reduce(r)
        points = lz.evaluate(reduced)
        return r, reduced, points, [lz.contains(reduced, p) for p in item.probes]

    def check(self, item, result):
        if isinstance(item, _MatrixOp):
            r, matrices = result
            points = ref.mat_span(_bits_of(r.center), [_bits_of(g) for g in r.generators])
            if {_bits_of(m) for m in matrices} != points:
                return "evaluate_matrix differs from the generator span"
            truth = {ref.stp(x, y) for x in item.a_points for y in item.b_points}
            if not truth <= points:
                return "mink_stp misses a pointwise semi-tensor product"
            return None
        r, reduced, explicit, verdicts = result
        if r.dim != item.n:
            return f"result has dim {r.dim}, expected {item.n}"
        points = ref.span_points(r.center.word, [g.word for g in r.generators])
        truth = ref.pointwise(item.op, item.n, item.a_points, item.b_points)
        if not truth <= points:
            return f"mink_{item.op} misses pointwise results"
        if item.op == "xor" and truth != points:
            return "mink_xor is not exact"
        if ref.span_points(reduced.center.word, [g.word for g in reduced.generators]) != points:
            return "reduce changed the point set"
        if {p.word for p in explicit.points} != points:
            return "evaluate differs from the generator span"
        if list(verdicts) != [w in points for w in item.probe_words]:
            return "contains gave a wrong verdict"
        return None


WORKLOADS = {w.name: w for w in (IntersectionLong, RandomSystems, LfsrKeysearch, SetAlgebra)}
