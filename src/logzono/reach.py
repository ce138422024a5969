"""N-step reachability for parsed Boolean systems.

Two backends:

* "zonotope": one scalar logical zonotope per state variable. Initial and
  input sets are built with enclose_points and reduced, then the update
  rules are applied with Minkowski operations step by step.
  `dsl.eval_zonotope` normalizes the result of every binary op (a scalar
  point set is either {c} or {0,1}, so gamma stays 0 or 1), which keeps
  each step's cost linear in the size of the update rules. Input domains
  are the same at every step, so a step whose per-variable state equals
  the previous one is a fixed point: the remaining steps repeat its
  record (the same var_sets and zonos objects) with time_s 0.0.
* "explicit": ground-truth enumeration of the joint reachable set,
  R_{k+1} = { f(x,u) : x in R_k, u in U }, with the same fixed-point
  stop. States are ints (state_vars[i] at bit i). f is compiled once
  per call by `dsl.compile_successors` and applied once per distinct
  state word, to every input assignment at once; the successor sets are
  cached for the rest of the call.

The per-step "size" is this library's own convention: the total number of
points across the per-variable value sets. The joint count (cartesian
count for the zonotope backend, true joint cardinality for the explicit
backend) is recorded alongside it. Whether the paper's reference sizes
for the intersection study (16 and 14) count this sum or joint points is
not settled by anything in this repository.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .dsl import SystemSpec, compile_successors, eval_zonotope
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

    def sizes(self):
        return [s.size for s in self.steps]

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


def _domain_zonotope(domain) -> LogicalZonotope:
    pts = [BitVec(1, b) for b in domain]
    return reduce(enclose_points(pts))


def reach(sys: SystemSpec, n: int, backend: str = "zonotope", *,
          state_budget: int = DEFAULT_STATE_BUDGET) -> ReachResult:
    if n < 0:
        raise UsageError(f"horizon must be nonnegative, got {n}")
    if backend == "zonotope":
        return _reach_zonotope(sys, n)
    if backend == "explicit":
        return _reach_explicit(sys, n, state_budget)
    raise UsageError(f"unknown backend {backend!r}")


# ------------------------------------------------------------- zonotope


def _reach_zonotope(sys: SystemSpec, n: int) -> ReachResult:
    t0 = time.perf_counter()
    result = ReachResult("zonotope", sys.state_vars, n)

    state = {v: _domain_zonotope(sys.init[v]) for v in sys.state_vars}
    inputs = {u: _domain_zonotope(sys.inputs[u]) for u in sys.input_vars}
    result.steps.append(_zono_record(0, sys, state, time.perf_counter() - t0))

    for k in range(1, n + 1):
        tk = time.perf_counter()
        env = dict(state)
        env.update(inputs)
        for v in sys.updates:
            env[v + "'"] = eval_zonotope(sys.updates[v], env)
        nxt = {v: env[v + "'"] for v in sys.state_vars}
        if nxt == state:
            # fixed point: every later step repeats the previous record
            last = result.steps[-1]
            dt = time.perf_counter() - tk
            result.steps.extend(
                StepRecord(j, last.var_sets, last.size, last.joint_count,
                           dt if j == k else 0.0, zonos=last.zonos)
                for j in range(k, n + 1))
            break
        state = nxt
        result.steps.append(_zono_record(k, sys, state, time.perf_counter() - tk))

    result.total_time_s = time.perf_counter() - t0
    return result


def _scalar_values(z: LogicalZonotope) -> tuple:
    """The bits a 1-bit zonotope takes, in `evaluate` order, without
    enumerating: {0,1} if any generator is nonzero, else its center."""
    return (0, 1) if any(g.word for g in z.generators) else (z.center.word,)


def _zono_record(k, sys, state, dt) -> StepRecord:
    var_sets = {v: _scalar_values(state[v]) for v in sys.state_vars}
    size = sum(len(bits) for bits in var_sets.values())
    joint = math.prod(len(bits) for bits in var_sets.values())
    return StepRecord(k, var_sets, size, joint, dt, zonos=state)


# ------------------------------------------------------------- explicit


def exact_reach(sys: SystemSpec, n: int, *,
                state_budget: int = DEFAULT_STATE_BUDGET) -> list:
    """R_0..R_n as ExplicitSets over the joint state space."""
    return _exact_reach_timed(sys, n, state_budget)[0]


def _exact_reach_timed(sys: SystemSpec, n: int, state_budget: int):
    if sys.n_x > state_budget:
        raise CapacityError(
            f"n_x={sys.n_x} exceeds explicit state budget {state_budget}")
    t_prev = time.perf_counter()
    r = _init_words(sys)
    out = [ExplicitSet.from_words(sys.n_x, r)]
    times = [time.perf_counter() - t_prev]
    successors = compile_successors(sys)
    assignments = _input_assignments(sys)
    succ_cache = {}
    for k in range(n):
        t_prev = time.perf_counter()
        nxt = set()
        for w in r:
            if w not in succ_cache:
                succ_cache[w] = successors(w, assignments)
            nxt |= succ_cache[w]
        if nxt == r:
            # fixed point: every later step repeats this set
            fixed = ExplicitSet.from_words(sys.n_x, nxt)
            dt = time.perf_counter() - t_prev
            out.extend([fixed] * (n - k))
            times.extend([dt] + [0.0] * (n - k - 1))
            return out, times
        r = nxt
        out.append(ExplicitSet.from_words(sys.n_x, r))
        times.append(time.perf_counter() - t_prev)
    return out, times


def _init_words(sys: SystemSpec):
    words = [0]
    for i, v in enumerate(sys.state_vars):
        words = [w | (b << i) for w in words for b in sys.init[v]]
    return set(words)


def _input_assignments(sys: SystemSpec) -> list:
    """Every input assignment, as a tuple of bits in `input_vars` order."""
    return list(itertools.product(*(sys.inputs[u] for u in sys.input_vars)))


def _var_values(joint: ExplicitSet, var_names) -> dict:
    """var -> sorted tuple of the bits it takes across the joint set."""
    return {v: tuple(sorted({p.word >> i & 1 for p in joint.points}))
            for i, v in enumerate(var_names)}


def _reach_explicit(sys: SystemSpec, n: int, state_budget: int) -> ReachResult:
    t0 = time.perf_counter()
    sets, times = _exact_reach_timed(sys, n, state_budget)
    result = ReachResult("explicit", sys.state_vars, n)
    # id(set) -> (var_sets, size, joint count); the fixed-point tail repeats one set
    summaries = {}
    for k, (s, dt) in enumerate(zip(sets, times)):
        if id(s) not in summaries:
            var_sets = _var_values(s, sys.state_vars)
            summaries[id(s)] = var_sets, sum(len(bits) for bits in var_sets.values()), len(s)
        result.steps.append(StepRecord(k, *summaries[id(s)], dt, joint=s))
    result.total_time_s = time.perf_counter() - t0
    return result


# ----------------------------------------------------------- containment


def check_containment(r_zono: ReachResult, r_exact: ReachResult) -> ContainmentReport:
    """Every exact joint state must fall inside the per-variable zonotopes.

    Each (zonotope, bit) pair is tested once, and a step that shares its
    zonos and joint set with an earlier one (a fixed-point tail) reuses
    that step's verdict. The points of a step are walked only when some
    value a variable takes there is not contained, so violations come in
    point order, then variable order.
    """
    if r_zono.horizon != r_exact.horizon or r_zono.var_names != r_exact.var_names:
        raise UsageError("reach results compare different systems or horizons")
    if r_zono.backend != "zonotope" or r_exact.backend != "explicit":
        raise UsageError("expected a zonotope result and an explicit result")
    names = r_zono.var_names
    verdicts = {}      # (zonotope, bit) -> contains
    step_ok = {}       # (id(zonos), id(joint)) -> every value contained

    def holds(z, bit):
        if (z, bit) not in verdicts:
            verdicts[z, bit] = contains(z, BitVec(1, bit))
        return verdicts[z, bit]

    violations = []
    surplus = []
    for zs, es in zip(r_zono.steps, r_exact.steps):
        key = (id(zs.zonos), id(es.joint))
        if key not in step_ok:
            values = _var_values(es.joint, names)
            step_ok[key] = all(holds(zs.zonos[v], bit)
                               for v in names for bit in values[v])
        if not step_ok[key]:
            for point in es.joint:
                for i, v in enumerate(names):
                    if not holds(zs.zonos[v], point.word >> i & 1):
                        violations.append((zs.k, point.to_text(), v))
        surplus.append(zs.size - es.size)
    return ContainmentReport(not violations, violations, surplus)
