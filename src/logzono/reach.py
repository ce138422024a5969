"""N-step reachability for parsed Boolean systems.

`reach` runs one step loop for both backends. Each backend supplies an
initial state, a one-step advance and a record builder. Both step on one
program, the spec's rules as `dsl.lower_rules` lowers them: the spec keeps
that result (`SystemSpec.lowered`), so the rules are lowered once however
many reach calls share the spec. Each
instruction is `(dst, table, a, b)`, and a step runs
`env[dst] = table[env[a] << 2 | env[b]]` over it. A unary op reads slot
"0" as b.

* "zonotope": the state is one scalar logical zonotope per state
  variable, held as its code, center | (has a generator) << 1. A
  normalized scalar zonotope is one of those four objects, and every
  Minkowski op's result code depends only on its operands' codes
  (`zonotope.scalar_normalize`). Initial and input sets are built with
  enclose_points and reduced, then coded. Each call looks up the current
  `zonotope.mink_<op>`s, `scalar_normalize`, `enclose_points` and `reduce`;
  every op's table is built in full through them (the op applied to the
  representative zonotopes, then normalized), and the tables and domain
  codes are kept while those functions stay the same objects. Every table
  depends on all the `mink_<op>`s, which call each other, so a patched or
  traced function gets a full set of tables built through it. Records map
  codes back to the four representatives (`_SCALARS`).
* "explicit": ground-truth enumeration of the joint reachable set,
  R_{k+1} = { f(x,u) : x in R_k, u in U }. The state is a set of words
  (state_vars[i] at bit i). The tables hold `eval_point`'s bit functions,
  built once at import, so the ground truth shares no code with the
  Minkowski ops it checks. The program runs once per distinct state word
  and input assignment; the successor sets are cached for the rest of the
  call. A record reads each variable's values off the OR and the AND of
  the words.

Input domains are the same at every step, so a step whose state equals
the previous one is a fixed point. The loop then stops computing: the
remaining steps share the last computed record's var_sets, zonos and
joint objects, the first of them keeps its measured time and the rest get
time_s 0.0.

Timing: step 0's time_s covers the backend's setup (lowering the rules on
a spec's first reach, the input codes or the budget check, and mapping the
program to the backend's tables) and the initial record; step
k's covers its advance, the fixed-point test and its record. total_time_s
covers the whole call.

The per-step "size" is this library's own convention: the total number of
points across the per-variable value sets. The joint count (cartesian
count for the zonotope backend, true joint cardinality for the explicit
backend) is recorded alongside it. Whether the paper's reference sizes
for the intersection study (16 and 14) count this sum or joint points is
not settled by anything in this repository.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Optional

from . import zonotope
from .dsl import _BIT_OPS, SystemSpec
from .errors import CapacityError, UsageError
from .explicit import ExplicitSet
from .gf2 import BitVec
from .zonotope import LogicalZonotope, contains, enclose_points, reduce

DEFAULT_STATE_BUDGET = 20          # max n_x for the explicit backend


@dataclass
class StepRecord:
    k: int
    var_sets: dict                 # var -> tuple of bits present
    size: int                      # sum of per-variable set sizes
    joint_count: int
    time_s: float
    zonos: Optional[dict] = None   # zonotope backend only
    joint: Optional[ExplicitSet] = None  # explicit backend only


@dataclass
class ReachResult:
    backend: str
    var_names: tuple
    horizon: int
    steps: list = field(default_factory=list)
    total_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "backend": self.backend,
            "horizon": self.horizon,
            "vars": list(self.var_names),
            "steps": [{
                "k": s.k,
                "var_sets": {v: list(bits) for v, bits in s.var_sets.items()},
                "size": s.size,
                "joint_count": s.joint_count,
                "time_s": s.time_s,
            } for s in self.steps],
            "total_time_s": self.total_time_s,
        }


@dataclass
class ContainmentReport:
    ok: bool
    violations: list               # (k, state bitstring, variable)
    surplus: list                  # per step: zonotope size - exact size

    @property
    def max_surplus(self):
        return max(self.surplus) if self.surplus else 0


def reach(sys: SystemSpec, n: int, backend: str = "zonotope", *,
          state_budget: int = DEFAULT_STATE_BUDGET) -> ReachResult:
    if n < 0:
        raise UsageError(f"horizon must be nonnegative, got {n}")
    t0 = time.perf_counter()
    if backend == "zonotope":
        state, advance, record = _zonotope_backend(sys)
    elif backend == "explicit":
        state, advance, record = _explicit_backend(sys, state_budget)
    else:
        raise UsageError(f"unknown backend {backend!r}")
    result = ReachResult(backend, sys.state_vars, n)
    steps = result.steps
    steps.append(record(0, state))
    steps[0].time_s = time.perf_counter() - t0

    for k in range(1, n + 1):
        tk = time.perf_counter()
        nxt = advance(state)
        if nxt == state:
            # fixed point: every later step repeats the last computed record
            last = steps[-1]
            dt = time.perf_counter() - tk
            steps.extend(
                StepRecord(j, last.var_sets, last.size, last.joint_count,
                           dt if j == k else 0.0, last.zonos, last.joint)
                for j in range(k, n + 1))
            break
        state = nxt
        steps.append(record(k, state))
        steps[-1].time_s = time.perf_counter() - tk

    result.total_time_s = time.perf_counter() - t0
    return result


# The four normalized scalar zonotopes, by code = center | (has a generator) << 1:
# {0}, {1}, and {0,1} with center 0 or 1.
_SCALARS = tuple(LogicalZonotope(BitVec(1, c & 1), (BitVec(1, 1),) if c & 2 else ())
                 for c in range(4))
_VALUES = ((0,), (1,), (0, 1), (0, 1))   # code -> the values `evaluate` gives
_PRESENT = ((), (0,), (1,), (0, 1))      # (0 present) | (1 present) << 1 -> values


def _table(f) -> tuple:
    """f's table: the result for operand values a, b (codes or bits) at
    a << 2 | b. A unary op reads slot "0" as b, which holds 0 in both
    backends."""
    return tuple(f(key >> 2, key & 3) for key in range(16))


_COPY = _table(lambda a, b: a)
# The explicit backend's tables: eval_point's bit functions, never the
# Minkowski ops it checks. Only entries with a, b in {0, 1} are read.
_BIT_TABLES = {"copy": _COPY, "not": _table(lambda a, b: 1 - a),
               **{op: _table(f) for op, f in _BIT_OPS.items()}}


@functools.lru_cache(maxsize=1)
def _scalar_tables(normalize, enclose, reduce_, mink_not, *minks):
    """(tables, domain code) for the zonotope backend: every op's table in
    full, its entries the normalized codes of mink_not and minks (the
    binary ops in _BIT_OPS order) on the representatives, and a function
    from an input domain to the code of its enclosure, reduced.

    lru_cache compares the functions by identity. Each table depends on
    all of them (mink_or is mink_nand of mink_nots), so a replaced or
    traced function gets a new set built through it, an undo rebuilds from
    the originals, and one set is kept at a time."""
    def code(z: LogicalZonotope) -> int:
        return _code(normalize(z))

    tables = {"copy": _COPY, "not": _table(lambda a, b: code(mink_not(_SCALARS[a]))),
              **{op: _table(lambda a, b, mink=mink: code(mink(_SCALARS[a], _SCALARS[b])))
                 for op, mink in zip(_BIT_OPS, minks)}}

    @functools.lru_cache(maxsize=None)
    def domain_code(domain: tuple) -> int:
        return _code(reduce_(enclose([BitVec(1, b) for b in domain])))

    return tables, domain_code


def _lowered(sys: SystemSpec, tables: dict):
    """(env, program): the slots of sys.lowered, with slot "1" holding 1
    (bit 1, or code 1 = {1}) and every other slot 0, and its code as
    (dst, tables[op], a, b)."""
    names, code = sys.lowered
    env = [0] * len(names)
    env[names.index("1")] = 1
    zero = names.index("0")
    return env, [(dst, tables[op], a, zero if b is None else b) for dst, op, a, b in code]


def _run(program, env: list) -> None:
    """One step of lowered code on env, in place."""
    for dst, table, a, b in program:
        env[dst] = table[env[a] << 2 | env[b]]


def _code(z: LogicalZonotope) -> int:
    return z.center.word | any(g.word for g in z.generators) << 1


def _zonotope_backend(sys: SystemSpec):
    """(initial state, advance, record) with tuples of scalar zonotope codes."""
    # looked up per call, not bound at import, so a tracer or a test that
    # replaces one of these functions gets tables built through it
    tables, domain_code = _scalar_tables(
        zonotope.scalar_normalize, enclose_points, reduce, zonotope.mink_not,
        *(getattr(zonotope, "mink_" + op) for op in _BIT_OPS))
    env, program = _lowered(sys, tables)
    names, n_x, first_next = sys.state_vars, sys.n_x, sys.n_x + sys.n_u
    for i, u in enumerate(sys.input_vars, n_x):
        env[i] = domain_code(tuple(sys.inputs[u]))

    def advance(state: tuple) -> tuple:
        env[:n_x] = state
        _run(program, env)
        return tuple(env[first_next:first_next + n_x])

    def record(k: int, state: tuple) -> StepRecord:
        free = state.count(2) + state.count(3)      # codes with a generator
        return StepRecord(k, dict(zip(names, map(_VALUES.__getitem__, state))),
                          n_x + free, 1 << free, 0.0,
                          zonos=dict(zip(names, map(_SCALARS.__getitem__, state))))

    state = tuple(domain_code(tuple(sys.init[v])) for v in sys.state_vars)
    return state, advance, record


def _explicit_backend(sys: SystemSpec, state_budget: int):
    """(initial state, advance, record) with sets of joint-state words."""
    if sys.n_x > state_budget:
        raise CapacityError(
            f"n_x={sys.n_x} exceeds explicit state budget {state_budget}")
    env, program = _lowered(sys, _BIT_TABLES)
    n_x, first_next = sys.n_x, sys.n_x + sys.n_u
    assignments = list(itertools.product(*(sys.inputs[u] for u in sys.input_vars)))
    succ_cache = {}                # state word -> its successor words

    def successors(word: int) -> set:
        env[:n_x] = [word >> i & 1 for i in range(n_x)]
        out = set()
        for values in assignments:
            env[n_x:first_next] = values
            _run(program, env)
            out.add(sum(bit << i for i, bit in enumerate(env[first_next:first_next + n_x])))
        return out

    def advance(words: set) -> set:
        nxt = set()
        for w in words:
            if w not in succ_cache:
                succ_cache[w] = successors(w)
            nxt |= succ_cache[w]
        return nxt

    def record(k: int, words: set) -> StepRecord:
        joint = ExplicitSet.from_words(sys.n_x, words)
        ones = functools.reduce(operator.or_, words, 0)       # bit i: some x_i = 1
        zeros = ~functools.reduce(operator.and_, words, -1)   # bit i: some x_i = 0
        var_sets = {v: _PRESENT[zeros >> i & 1 | (ones >> i & 1) << 1]
                    for i, v in enumerate(sys.state_vars)}
        size = sum(len(bits) for bits in var_sets.values())
        return StepRecord(k, var_sets, size, len(joint), 0.0, joint=joint)

    words = {0}
    for i, v in enumerate(sys.state_vars):
        words = {w | b << i for w in words for b in sys.init[v]}
    return words, advance, record


def exact_reach(sys: SystemSpec, n: int, *,
                state_budget: int = DEFAULT_STATE_BUDGET) -> list:
    """R_0..R_n as ExplicitSets over the joint state space."""
    return [s.joint for s in reach(sys, n, "explicit", state_budget=state_budget).steps]


# ----------------------------------------------------------- containment


def check_containment(r_zono: ReachResult, r_exact: ReachResult) -> ContainmentReport:
    """Every exact joint state must fall inside the per-variable zonotopes.

    The bits each distinct zonotope contains are computed once, and a step
    that shares its zonos and joint set with an earlier one (a fixed-point
    tail) reuses that step's verdict. The points of a step are walked only
    when some value a variable takes there (its explicit record's
    var_sets) is not contained, so violations come in point order, then
    variable order.
    """
    if r_zono.horizon != r_exact.horizon or r_zono.var_names != r_exact.var_names:
        raise UsageError("reach results compare different systems or horizons")
    if r_zono.backend != "zonotope" or r_exact.backend != "explicit":
        raise UsageError("expected a zonotope result and an explicit result")
    names = r_zono.var_names
    admitted = {}      # id(zonotope) -> the bits it contains; r_zono keeps each alive
    step_ok = {}       # (id(zonos), id(joint)) -> every value contained

    def bits_in(z) -> frozenset:
        bits = admitted.get(id(z))
        if bits is None:
            bits = admitted[id(z)] = frozenset(
                bit for bit in (0, 1) if contains(z, BitVec(1, bit)))
        return bits

    violations = []
    surplus = []
    for zs, es in zip(r_zono.steps, r_exact.steps):
        zonos = zs.zonos
        key = (id(zonos), id(es.joint))
        if key not in step_ok:
            step_ok[key] = all(bits_in(zonos[v]).issuperset(es.var_sets[v]) for v in names)
        if not step_ok[key]:
            for point in es.joint:
                for i, v in enumerate(names):
                    if (point.word >> i & 1) not in bits_in(zonos[v]):
                        violations.append((zs.k, point.to_text(), v))
        surplus.append(zs.size - es.size)
    return ContainmentReport(not violations, violations, surplus)
