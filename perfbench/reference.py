"""Reference results for the benchmark, computed from plain ints.

Nothing here imports logzono: every check the benchmark makes compares the
library's output with a value derived by the code in this file, so a bug in
the code being timed cannot also hide in its own reference.

Run as a script to rebuild `digests.json`, the stored exact reachable sets
of the fixed random-system pool and of the intersection system:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_FILE = os.path.join(HERE, "digests.json")

# ---------------------------------------------------------------- systems
#
# A system is (state_vars, input_vars, init_domains, input_domains, step)
# where step(state_bits, input_bits) -> next state bits, all plain lists of
# 0/1 in declaration order. Joint states are ints with bit i = state var i.

_BIN_OPS = ("^", "&", "|", "nand", "nor", "xnor")
_APPLY = {
    "^": lambda a, b: a ^ b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "nand": lambda a, b: 1 - (a & b),
    "nor": lambda a, b: 1 - (a | b),
    "xnor": lambda a, b: 1 - (a ^ b),
}


def _random_expr(rng: random.Random, names: list, depth: int):
    """(text, tree) with the same rng draws as tests_util_systems.random_expr."""
    if depth <= 0 or rng.random() < 0.2:
        leaf = rng.choice(names + ["0", "1"])
        return leaf, ("const", int(leaf)) if leaf in ("0", "1") else ("var", leaf)
    if rng.random() < 0.2:
        text, tree = _random_expr(rng, names, depth - 1)
        return f"!({text})", ("not", tree)
    op = rng.choice(_BIN_OPS)
    lt, ltree = _random_expr(rng, names, depth - 1)
    rt, rtree = _random_expr(rng, names, depth - 1)
    return f"({lt} {op} {rt})", (op, ltree, rtree)


def _eval_tree(tree, env: dict) -> int:
    kind = tree[0]
    if kind == "const":
        return tree[1]
    if kind == "var":
        return env[tree[1]]
    if kind == "not":
        return 1 - _eval_tree(tree[1], env)
    return _APPLY[kind](_eval_tree(tree[1], env), _eval_tree(tree[2], env))


def random_system(rng: random.Random, n_x: int, n_u: int, depth: int):
    """(DSL source, system) drawn like tests_util_systems.random_system_source.

    The source text is identical to that helper's for the same rng state;
    the system is built from the generated trees, not by parsing the text.
    """
    xs = [f"x{i}" for i in range(n_x)]
    us = [f"u{i}" for i in range(n_u)]
    lines = [f"state {', '.join(xs)};"]
    if us:
        lines.append(f"input {', '.join(us)};")
    trees = []
    for x in xs:
        text, tree = _random_expr(rng, xs + us, depth)
        trees.append(tree)
        lines.append(f"{x}' = {text};")
    domains = {}
    for v, kw in [(x, "init") for x in xs] + [(u, "in") for u in us]:
        dom = rng.choice(["0", "1", "{0,1}"])
        domains[v] = (0, 1) if dom == "{0,1}" else (int(dom),)
        lines.append(f"{kw} {v} = {dom};")

    def step(state, inputs):
        env = dict(zip(xs, state))
        env.update(zip(us, inputs))
        return [_eval_tree(t, env) for t in trees]

    system = (xs, us, [domains[x] for x in xs], [domains[u] for u in us], step)
    return "\n".join(lines) + "\n", system


def _intersection_step(state, inputs):
    # p_i' = up_i & !p_i & !c_i;  c_i' = !p_i' & (uc_i | (!p_i & p_i'))
    p, c = state[:4], state[4:]
    up, uc = inputs[:4], inputs[4:]
    p2 = [up[i] & (1 - p[i]) & (1 - c[i]) for i in range(4)]
    c2 = [(1 - p2[i]) & (uc[i] | ((1 - p[i]) & p2[i])) for i in range(4)]
    return p2 + c2


# Hand transcription of the four-vehicle intersection protocol of the paper.
INTERSECTION = (
    ["p1", "p2", "p3", "p4", "c1", "c2", "c3", "c4"],
    ["up1", "up2", "up3", "up4", "uc1", "uc2", "uc3", "uc4"],
    [(1,), (0, 1), (0,), (0, 1), (1,), (0, 1), (0,), (0, 1)],
    [(0, 1), (0,), (0, 1), (0,), (0, 1), (0, 1), (0, 1), (0, 1)],
    _intersection_step,
)

# Sum over the eight variables of the number of values each takes in the
# exact reachable set, once the reach has settled (36 joint states).
INTERSECTION_FINAL_SIZE = 14


def _product(domains):
    out = [[]]
    for dom in domains:
        out = [prefix + [b] for prefix in out for b in dom]
    return out


def _word(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def exact_reach(system, horizon: int) -> list:
    """R_0..R_horizon as frozensets of joint-state words."""
    xs, _, init_domains, input_domains, step = system
    inputs = _product(input_domains)
    succ = {}

    def successors(w):
        if w not in succ:
            bits = [w >> i & 1 for i in range(len(xs))]
            succ[w] = {_word(step(bits, u)) for u in inputs}
        return succ[w]

    sets = [frozenset(_word(s) for s in _product(init_domains))]
    while len(sets) <= horizon:
        nxt = frozenset().union(*(successors(w) for w in sets[-1]))
        if nxt == sets[-1]:
            # time-invariant system: every later step repeats this set
            sets.extend([nxt] * (horizon + 1 - len(sets)))
            break
        sets.append(nxt)
    return sets


def digest(sets) -> str:
    """Short hash of a sequence of joint-state sets (order of steps kept)."""
    h = hashlib.sha256()
    for s in sets:
        h.update(",".join(map(str, sorted(s))).encode())
        h.update(b";")
    return h.hexdigest()[:20]


# -------------------------------------------------------- random systems

POOL_SEED = 2210          # fixed: see README.md, "random-systems"
POOL_SIZE = 100
RANDOM_HORIZON = 30


def random_pool():
    """The fixed pool: list of (source, system), 8-14 states, 0-2 inputs."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        n_x, n_u = rng.randint(8, 14), rng.randint(0, 2)
        pool.append(random_system(rng, n_x, n_u, 2))
    return pool


def pool_fingerprint(sources) -> str:
    return hashlib.sha256("".join(sources).encode()).hexdigest()[:20]


# ------------------------------------------------------------------ LFSR

def lfsr_encrypt(length: int, feedback, output, key, message) -> tuple:
    """Cipher bits: message XOR keystream of a Fibonacci LFSR.

    Register 1 holds key[0]. Each clock first emits the XOR of the output
    taps, then shifts every register up by one and loads the XOR of the
    feedback taps (taken before the shift) into register 1. Taps are
    1-based register numbers.
    """
    reg = [None] + list(key)               # reg[t] is register t
    out = []
    for m in message:
        bit = 0
        for t in output:
            bit ^= reg[t]
        out.append(bit ^ m)
        fb = 0
        for t in feedback:
            fb ^= reg[t]
        reg = [None, fb] + reg[1:length]
    return tuple(out)


# ------------------------------------------------------------- zonotopes

def span_points(center: int, generators) -> frozenset:
    """All words center ^ (XOR of any subset of generators)."""
    pts = {center}
    for g in generators:
        if g:
            pts |= {p ^ g for p in pts}
    return frozenset(pts)


def apply(op: str, n: int, x: int, y: int) -> int:
    """x op y on n-bit words."""
    if op == "and":
        return x & y
    if op == "or":
        return x | y
    if op == "nand":
        return ~(x & y) & ((1 << n) - 1)
    if op == "xor":
        return x ^ y
    raise ValueError(f"unknown op {op!r}")


def pointwise(op: str, n: int, xs, ys) -> frozenset:
    """{x op y} over all pairs, on n-bit words."""
    return frozenset(apply(op, n, x, y) for x in xs for y in ys)


def minkowski_generators(op: str, n: int, a: list, b: list) -> list:
    """Generator words of the paper's Minkowski construction of a op b.

    `a` and `b` are [center, generators...]. AND (and NAND, its negation)
    takes [c1&g2j] ++ [c2&g1i] ++ [g1i&g2j]; OR is NOT(AND(NOT a, NOT b)),
    the same with both centers complemented; XOR is exact, [G1, G2]. Used
    only to draw inputs of a known rank, never to check a result.
    """
    (c1, *g1), (c2, *g2) = a, b
    if op == "xor":
        return g1 + g2
    if op == "or":
        mask = (1 << n) - 1
        c1, c2 = c1 ^ mask, c2 ^ mask
    return [c1 & y for y in g2] + [c2 & x for x in g1] + [x & y for x in g1 for y in g2]


def gf2_rank(words) -> int:
    """Rank over GF(2) of the words, as bit vectors."""
    basis = {}                     # leading bit -> word
    for w in words:
        while w:
            top = w.bit_length() - 1
            if top not in basis:
                basis[top] = w
                break
            w ^= basis[top]
    return len(basis)


# Matrices are tuples of rows, each row a tuple of 0/1 entries.

def mat_xor(a, b):
    return tuple(tuple(x ^ y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_span(center, generators) -> frozenset:
    pts = {center}
    for g in generators:
        if any(any(r) for r in g):
            pts |= {mat_xor(p, g) for p in pts}
    return frozenset(pts)


def _kron_identity(m, k):
    rows, cols = len(m), len(m[0])
    return tuple(
        tuple(m[i][j] if p == q else 0 for j in range(cols) for q in range(k))
        for i in range(rows) for p in range(k))


def _matmul(a, b):
    inner, cols = len(b), len(b[0])
    return tuple(
        tuple(sum(row[k] & b[k][j] for k in range(inner)) & 1 for j in range(cols))
        for row in a)


def _lcm(a: int, b: int) -> int:
    x, y = a, b
    while y:
        x, y = y, x % y
    return a * b // x


def stp(m, n):
    """Semi-tensor product (m kron I_{s/cols m}) (n kron I_{s/rows n})."""
    s = _lcm(len(m[0]), len(n))
    return _matmul(_kron_identity(m, s // len(m[0])), _kron_identity(n, s // len(n)))


# ----------------------------------------------------------------- files

def load_digests() -> dict:
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


def build_digests() -> dict:
    pool = random_pool()
    return {
        "pool_seed": POOL_SEED,
        "pool_fingerprint": pool_fingerprint([src for src, _ in pool]),
        "random_horizon": RANDOM_HORIZON,
        "random": [digest(exact_reach(system, RANDOM_HORIZON)) for _, system in pool],
        "intersection": {str(n): digest(exact_reach(INTERSECTION, n))
                         for n in (10, 1000)},
    }


if __name__ == "__main__":
    with open(DIGESTS_FILE, "w") as fh:
        json.dump(build_digests(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {DIGESTS_FILE}")
