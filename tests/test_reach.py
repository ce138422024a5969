import importlib
import itertools
import os
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logzono import zonotope
from logzono.casestudies import intersection_system
from logzono.dsl import (And, Const, Nand, Nor, Not, Or, Var, Xnor, Xor,
                         SystemSpec, eval_point, eval_zonotope, parse_system)
from logzono.errors import CapacityError, EmptyInputError, UsageError
from logzono.gf2 import BitVec
from logzono.reach import (ReachResult, StepRecord, check_containment,
                           exact_reach, reach)
from logzono.zonotope import (LogicalZonotope, contains, enclose_points, evaluate,
                              full_set, mink_and, mink_nand, mink_nor,
                              mink_not, mink_or, mink_xnor, mink_xor, reduce,
                              singleton)
from tests_util_strategies import systems
from tests_util_systems import LFSR4_SOURCE, random_system_source

REACH = importlib.import_module("logzono.reach")   # the package exports reach() under that name
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def counter_system():
    # two-bit counter with carry chain: correlations matter here
    return parse_system("""
state b0, b1;
b0' = !b0;
b1' = b1 ^ b0;
init b0 = 0;
init b1 = 0;
horizon 6;
""")


def test_identity_dynamics_sets_stay_put():
    sys_ = parse_system("state x, y; x' = x; y' = y;"
                        "init x = {0,1}; init y = 1; horizon 5;")
    rz = reach(sys_, 5, "zonotope")
    re_ = reach(sys_, 5, "explicit")
    for k in range(6):
        assert rz.steps[k].var_sets == re_.steps[k].var_sets
        assert rz.steps[k].var_sets == {"x": (0, 1), "y": (1,)}


def test_constant_zero_update():
    sys_ = parse_system("state x; x' = x & !x; init x = {0,1};")
    out = exact_reach(sys_, 1)
    assert [p.to_text() for p in out[1]] == ["0"]


def test_horizon_zero_returns_processed_initial_sets():
    sys_ = parse_system("state x; x' = !x; init x = {0,1};")
    rz = reach(sys_, 0, "zonotope")
    assert len(rz.steps) == 1
    assert rz.steps[0].var_sets == {"x": (0, 1)}


def test_exact_reach_counts_steps():
    sys_ = counter_system()
    sets = exact_reach(sys_, 6)
    assert len(sets) == 7
    assert len(sets[0]) == 1
    # the deterministic counter cycles through 4 states one at a time
    assert all(len(s) == 1 for s in sets)


def test_exact_reach_monotone_in_initial_set():
    small = parse_system("state a, b; a' = a ^ b; b' = a & b;"
                         "init a = 0; init b = {0,1}; horizon 4;")
    big = parse_system("state a, b; a' = a ^ b; b' = a & b;"
                       "init a = {0,1}; init b = {0,1}; horizon 4;")
    rs, rb = exact_reach(small, 4), exact_reach(big, 4)
    for s, b in zip(rs, rb):
        assert s.issubset(b)


def test_state_budget():
    names = ", ".join(f"x{i}" for i in range(21))
    rules = "\n".join(f"x{i}' = x{i};" for i in range(21))
    inits = "\n".join(f"init x{i} = 0;" for i in range(21))
    sys_ = parse_system(f"state {names};\n{rules}\n{inits}")
    with pytest.raises(CapacityError, match="budget 20"):
        exact_reach(sys_, 1)


def test_zonotope_matches_explicit_on_xor_only_lfsr():
    """Pure-XOR dynamics stay exact end to end, per variable and jointly."""
    sys_ = parse_system(LFSR4_SOURCE)
    rz = reach(sys_, 20, "zonotope")
    re_ = reach(sys_, 20, "explicit")
    for k in range(21):
        assert rz.steps[k].var_sets == re_.steps[k].var_sets
        assert rz.steps[k].joint_count == re_.steps[k].joint_count == 16


def test_zonotope_overapproximates_on_correlated_and():
    # b1 and b0 are perfectly correlated by step 2; the per-variable
    # zonotopes cannot see that, so they may only ever be supersets
    sys_ = counter_system()
    rz = reach(sys_, 6, "zonotope")
    re_ = reach(sys_, 6, "explicit")
    rep = check_containment(rz, re_)
    assert rep.ok
    assert all(s >= 0 for s in rep.surplus)


def test_gamma_stays_bounded_over_long_horizons():
    sys_ = parse_system("state a, b; a' = (a & b) | (!a & !b); b' = a nand b;"
                        "init a = {0,1}; init b = {0,1};")
    rz = reach(sys_, 200, "zonotope")
    for step in rz.steps:
        for z in step.zonos.values():
            assert z.gamma <= 1
    assert rz.total_time_s < 10


def test_reach_is_deterministic():
    sys_ = counter_system()
    a = reach(sys_, 6, "zonotope")
    b = reach(sys_, 6, "zonotope")
    assert [s.var_sets for s in a.steps] == [s.var_sets for s in b.steps]
    assert [s.zonos for s in a.steps] == [s.zonos for s in b.steps]


def test_containment_fuzz_small_systems():
    from tests_util_systems import random_system_source
    rng = random.Random(51)
    for _ in range(40):
        src = random_system_source(rng, rng.randint(1, 3), rng.randint(0, 2), 3)
        sys_ = parse_system(src)
        n = rng.randint(0, 5)
        rep = check_containment(reach(sys_, n, "zonotope"),
                                reach(sys_, n, "explicit"))
        assert rep.ok, src


def test_containment_usage_errors():
    sys_ = counter_system()
    rz = reach(sys_, 3, "zonotope")
    re_ = reach(sys_, 4, "explicit")
    with pytest.raises(UsageError):
        check_containment(rz, re_)
    with pytest.raises(UsageError):
        check_containment(rz, rz)


def test_result_json_shape():
    sys_ = counter_system()
    d = reach(sys_, 2, "zonotope").to_json_dict()
    assert d["backend"] == "zonotope"
    assert d["horizon"] == 2
    assert len(d["steps"]) == 3
    assert set(d["steps"][0]) == {"k", "var_sets", "size", "joint_count", "time_s"}


def test_check_containment_lists_lost_states_in_order():
    """A hand-built unsound zonotope result: violations come per step, in
    the explicit set's point order, then in variable order."""
    sys_ = parse_system("state a, b; a' = !a; b' = a ^ b;"
                        "init a = {0,1}; init b = 0;")
    rx = reach(sys_, 2, "explicit")
    assert [[p.to_text() for p in s.joint] for s in rx.steps] == [
        ["00", "10"], ["01", "10"], ["01", "11"]]
    # steps 0 and 2 share one dict, as a fixed-point tail does; it holds
    # every state of step 0 but not those of step 2
    partial = {"a": full_set(1), "b": singleton(BitVec(1, 0))}
    bad = {"a": singleton(BitVec(1, 1)), "b": singleton(BitVec(1, 0))}
    rz = ReachResult("zonotope", ("a", "b"), 2, [
        StepRecord(0, {"a": (0, 1), "b": (0,)}, 3, 2, 0.0, zonos=partial),
        StepRecord(1, {"a": (1,), "b": (0,)}, 2, 1, 0.0, zonos=bad),
        StepRecord(2, {"a": (0, 1), "b": (0,)}, 3, 2, 0.0, zonos=partial),
    ])
    rep = check_containment(rz, rx)
    assert not rep.ok
    assert rep.violations == [(1, "01", "a"), (1, "01", "b"),
                              (2, "01", "b"), (2, "11", "b")]
    assert rep.surplus == [0, -2, 0]


_MINK = {Xor: mink_xor, And: mink_and, Or: mink_or, Nand: mink_nand,
         Nor: mink_nor, Xnor: mink_xnor}


def _raw_eval(e, env):
    """Minkowski evaluation without any per-op normalization."""
    match e:
        case Const(v):
            return singleton(BitVec(1, v))
        case Var(name, primed):
            return env[name + "'" if primed else name]
        case Not(a):
            return mink_not(_raw_eval(a, env))
    return _MINK[type(e)](_raw_eval(e.a, env), _raw_eval(e.b, env))


def _collapse(z):
    if any(g.word for g in z.generators):
        return LogicalZonotope(z.center, (BitVec(1, 1),))
    return LogicalZonotope(z.center, ())


def _plain_zonotope_reach(sys_, n, rule=_raw_eval):
    """Reference: `rule` evaluates each update (raw ops by default, or
    `eval_zonotope`), one normalize at the end of a step, every step
    computed (no fixed-point stop); (k, var_sets, size, joint, zonos)."""
    def domain(bits):
        return reduce(enclose_points([BitVec(1, b) for b in bits]))

    state = {v: domain(sys_.init[v]) for v in sys_.state_vars}
    out = []
    for k in range(n + 1):
        if k:
            env = dict(state)
            env.update((u, domain(d)) for u, d in sys_.inputs.items())
            for v, e in sys_.updates.items():
                env[v + "'"] = rule(e, env)
            state = {v: _collapse(env[v + "'"]) for v in sys_.state_vars}
        var_sets = {v: tuple(p.word for p in evaluate(state[v]))
                    for v in sys_.state_vars}
        sizes = [len(b) for b in var_sets.values()]
        joint = 1
        for size in sizes:
            joint *= size
        out.append((k, var_sets, sum(sizes), joint, dict(state)))
    return out


def _records(result):
    return [(s.k, s.var_sets, s.size, s.joint_count, s.zonos)
            for s in result.steps]


def test_zonotope_reach_matches_plain_step_loop():
    rng = random.Random(1202)
    stopped = 0
    for _ in range(120):
        src = random_system_source(rng, rng.randint(1, 6),
                                   rng.randint(0, 2), rng.randint(1, 3))
        sys_ = parse_system(src)
        n = rng.randint(0, 12)
        rz = reach(sys_, n, "zonotope")
        assert _records(rz) == _plain_zonotope_reach(sys_, n), src
        stopped += any(s.time_s == 0.0 for s in rz.steps[1:])
    assert stopped > 0          # the fixed-point stop was exercised


def test_zonotope_reach_matches_eval_zonotope_on_pool_sized_systems():
    # the benchmark's random-system pool: 8-14 states, 0-2 inputs, depth 2
    rng = random.Random(1230)
    for _ in range(25):
        src = random_system_source(rng, rng.randint(8, 14), rng.randint(0, 2), 2)
        sys_ = parse_system(src)
        assert _records(reach(sys_, 30, "zonotope")) == _plain_zonotope_reach(
            sys_, 30, eval_zonotope), src


@settings(max_examples=100, deadline=None)
@given(systems(), st.integers(0, 8))
def test_zonotope_reach_matches_eval_zonotope_generated_systems(sys_, n):
    assert _records(reach(sys_, n, "zonotope")) == _plain_zonotope_reach(sys_, n, eval_zonotope)


def test_zonotope_reach_fills_its_tables_from_mink_ops(monkeypatch):
    # x & u with x = 0 is {0}; a wrong mink_and that answers {1} must show
    # in the next call's records, so no table outlives the functions that
    # filled it
    sys_ = parse_system("state x; input u; x' = x & u; init x = 0; in u = {0,1};")
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (0,)}
    monkeypatch.setattr(zonotope, "mink_and", lambda a, b: singleton(BitVec(1, 1)))
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (1,)}
    monkeypatch.undo()
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (0,)}


def test_zonotope_reach_tables_outlive_the_call(monkeypatch):
    # a counting mink_and gets a fresh table; the second call needs the
    # same entries and finds them all filled
    fills = []

    def counting_and(a, b):
        fills.append((a, b))
        return mink_and(a, b)

    sys_ = parse_system("state x, y; input u; x' = x & u; y' = y & x;"
                        "init x = {0,1}; init y = 1; in u = {0,1};")
    monkeypatch.setattr(zonotope, "mink_and", counting_and)
    first = _records(reach(sys_, 5, "zonotope"))
    assert fills
    fills.clear()
    assert _records(reach(sys_, 5, "zonotope")) == first
    assert fills == []
    monkeypatch.undo()
    assert _records(reach(sys_, 5, "zonotope")) == first
    # one set of tables, however often the functions were replaced
    assert REACH._scalar_tables.cache_info().currsize == 1


def test_zonotope_reach_tables_follow_repeated_patches(monkeypatch):
    # each patch and each undo must show in the next call's records, and
    # only the tables of the current functions are kept
    sys_ = parse_system("state x, y; input u; x' = x & u; y' = !(y & x);"
                        "init x = 0; init y = 1; in u = {0,1};")
    right = _records(reach(sys_, 3, "zonotope"))
    assert right[1][1] == {"x": (0,), "y": (1,)}
    for _ in range(4):
        monkeypatch.setattr(zonotope, "mink_and", lambda a, b: singleton(BitVec(1, 1)))
        wrong = _records(reach(sys_, 3, "zonotope"))
        assert wrong[1][1] == {"x": (1,), "y": (0,)}
        assert REACH._scalar_tables.cache_info().currsize == 1
        monkeypatch.undo()
        assert _records(reach(sys_, 3, "zonotope")) == right
        assert REACH._scalar_tables.cache_info().currsize == 1


def test_zonotope_reach_empty_hand_built_domain_raises():
    sys_ = SystemSpec(("x",), ("u",), {"x": Var("x")}, {"x": (0,)}, {"u": ()})
    for _ in range(2):
        with pytest.raises(EmptyInputError):
            reach(sys_, 1, "zonotope")


def test_zonotope_reach_refills_after_scalar_normalize_changes(monkeypatch):
    # x ^ u with x = 0 and u = 1 is {1}; a normalize that widens every
    # scalar to {0,1} must show in the next call, and its undo must too
    sys_ = parse_system("state x; input u; x' = x ^ u; init x = 0; in u = 1;")
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (1,)}
    monkeypatch.setattr(zonotope, "scalar_normalize", lambda z: full_set(1))
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (0, 1)}
    monkeypatch.undo()
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (1,)}


def test_zonotope_reach_refills_ops_built_on_a_changed_op(monkeypatch):
    # mink_nand is mink_not of mink_and: with x = 0 the nand is {1}, and
    # a wrong mink_and that answers {1} makes it {0} from the next call on
    sys_ = parse_system("state x; input u; x' = x nand u; init x = 0; in u = {0,1};")
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (1,)}
    monkeypatch.setattr(zonotope, "mink_and", lambda a, b: singleton(BitVec(1, 1)))
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (0,)}
    monkeypatch.undo()
    assert reach(sys_, 1, "zonotope").steps[1].var_sets == {"x": (1,)}


@pytest.mark.parametrize("name", ["enclose_points", "reduce"])
def test_zonotope_reach_recodes_domains_after_their_functions_change(monkeypatch, name):
    sys_ = parse_system("state x; input u; x' = x | u; init x = 0; in u = 0;")
    assert [s.var_sets for s in reach(sys_, 1, "zonotope").steps] == [{"x": (0,)}] * 2
    monkeypatch.setattr(REACH, name, lambda arg: full_set(1))
    assert [s.var_sets for s in reach(sys_, 1, "zonotope").steps] == [{"x": (0, 1)}] * 2
    monkeypatch.undo()
    assert [s.var_sets for s in reach(sys_, 1, "zonotope").steps] == [{"x": (0,)}] * 2


def test_zonotope_reach_rule_deeper_than_recursion_limit():
    # both backends run the rules lowered without recursion; 899 and 1199
    # ones XOR to 1
    def chain_system(terms):
        chain = " ^ ".join(["u"] * (terms - 1) + ["x"])
        return parse_system(f"state x; input u; x' = {chain}; init x = 0; in u = 1;")

    assert sys.getrecursionlimit() < 1200
    for backend in ("zonotope", "explicit"):
        deep = _records(reach(chain_system(1200), 3, backend))
        assert deep == _records(reach(chain_system(900), 3, backend)), backend
        assert [r[1] for r in deep] == [{"x": (0,)}, {"x": (1,)}, {"x": (0,)}, {"x": (1,)}]


def test_zono_records_list_the_values_evaluate_gives():
    rng = random.Random(1214)
    for _ in range(150):
        src = random_system_source(rng, rng.randint(1, 6),
                                   rng.randint(0, 2), rng.randint(1, 3))
        sys_ = parse_system(src)
        for s in reach(sys_, rng.randint(0, 12), "zonotope").steps:
            assert s.var_sets == {v: tuple(p.word for p in evaluate(z))
                                  for v, z in s.zonos.items()}, src


def _plain_explicit_reach(sys_, n):
    """Reference: every step enumerated with eval_point, no fixed-point
    stop; (k, var_sets, size, joint count, joint words)."""
    names = sys_.state_vars
    inputs = [dict(zip(sys_.input_vars, bits)) for bits in
              itertools.product(*(sys_.inputs[u] for u in sys_.input_vars))]
    succ = {}                      # state tuple -> its successor tuples

    def successors(x):
        if x not in succ:
            succ[x] = set()
            for u in inputs:
                env = {**dict(zip(names, x)), **u}
                for v, e in sys_.updates.items():
                    env[v + "'"] = eval_point(e, env)
                succ[x].add(tuple(env[v + "'"] for v in names))
        return succ[x]

    states = set(itertools.product(*(sys_.init[v] for v in names)))
    out = []
    for k in range(n + 1):
        if k:
            states = set().union(*map(successors, states))
        var_sets = {v: tuple(sorted({x[i] for x in states})) for i, v in enumerate(names)}
        words = frozenset(sum(b << i for i, b in enumerate(x)) for x in states)
        out.append((k, var_sets, sum(len(b) for b in var_sets.values()),
                    len(words), words))
    return out


def _explicit_records(result):
    return [(s.k, s.var_sets, s.size, s.joint_count, s.joint.words())
            for s in result.steps]


def _word_var_sets(result):
    """Each step's values per variable, read off its joint words one by one."""
    return [{v: tuple(sorted({w >> i & 1 for w in s.joint.words()}))
             for i, v in enumerate(result.var_names)} for s in result.steps]


def test_explicit_var_sets_match_joint_words_on_pool(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference
    for src, _ in reference.random_pool():
        rx = reach(parse_system(src), 30, "explicit")
        assert [s.var_sets for s in rx.steps] == _word_var_sets(rx), src


@settings(max_examples=100, deadline=None)
@given(systems(), st.integers(0, 8))
def test_explicit_var_sets_match_joint_words_generated_systems(sys_, n):
    rx = reach(sys_, n, "explicit")
    assert [s.var_sets for s in rx.steps] == _word_var_sets(rx)


def test_explicit_var_sets_of_no_words_are_empty():
    # only a hand-built spec has an empty domain; step 1 then has no words
    sys_ = SystemSpec(("x", "y"), ("u",), {"x": Var("u"), "y": Var("y")},
                      {"x": (0, 1), "y": (1,)}, {"u": ()})
    rx = reach(sys_, 2, "explicit")
    assert [s.var_sets for s in rx.steps] == [{"x": (0, 1), "y": (1,)},
                                              {"x": (), "y": ()}, {"x": (), "y": ()}]


def _assert_fixed_point_tail(r):
    """Intersection at N=50: step 3 repeats step 2, the last one computed.
    Step 3 keeps the time of finding the fixed point, later steps are not
    computed, and the whole tail shares step 2's objects."""
    assert [s.k for s in r.steps] == list(range(51))
    assert r.steps[3].time_s > 0.0
    assert [s.time_s == 0.0 for s in r.steps[4:]] == [True] * 47
    tail = r.steps[2:]
    assert all(s.zonos is tail[0].zonos and s.var_sets is tail[0].var_sets
               and s.joint is tail[0].joint for s in tail)


def test_intersection_zonotope_reach_stops_at_fixed_point():
    sys_ = intersection_system()
    rz = reach(sys_, 50, "zonotope")
    assert _records(rz) == _plain_zonotope_reach(sys_, 50)
    _assert_fixed_point_tail(rz)


def test_intersection_explicit_reach_stops_at_fixed_point():
    sys_ = intersection_system()
    rx = reach(sys_, 50, "explicit")
    assert _explicit_records(rx) == _plain_explicit_reach(sys_, 50)
    _assert_fixed_point_tail(rx)


def test_reach_lowers_each_spec_once(monkeypatch):
    dsl = importlib.import_module("logzono.dsl")
    calls = []
    real = dsl.lower_rules
    monkeypatch.setattr(dsl, "lower_rules", lambda spec: calls.append(spec) or real(spec))
    sys_ = intersection_system()
    rz, rx = reach(sys_, 5, "zonotope"), reach(sys_, 5, "explicit")
    assert calls == [sys_]
    assert check_containment(rz, rx).ok
    copy = replace(sys_)
    assert _records(reach(copy, 5, "zonotope")) == _records(rz)
    assert len(calls) == 2 and calls[1] is copy


def _plain_check_containment(r_zono, r_exact):
    """Every point of every step against every variable's zonotope."""
    violations = []
    for zs, es in zip(r_zono.steps, r_exact.steps):
        for point in es.joint:
            for i, v in enumerate(r_zono.var_names):
                if not contains(zs.zonos[v], BitVec(1, point.word >> i & 1)):
                    violations.append((zs.k, point.to_text(), v))
    surplus = [zs.size - es.size for zs, es in zip(r_zono.steps, r_exact.steps)]
    return not violations, violations, surplus


def _corrupt(rng, rz):
    """A copy of rz whose zonotopes drop values at some steps. Steps that
    shared a zonos dict share its corrupted copy, so a fixed-point tail
    stays one object; the stand-ins are 1-bit zonotopes with and without a
    zero generator, so they are not the backend's own four."""
    stand_ins = [singleton(BitVec(1, 0)), singleton(BitVec(1, 1)),
                 LogicalZonotope(BitVec(1, 1), (BitVec(1, 0),)), full_set(1)]
    copies = {}
    steps = []
    for s in rz.steps:
        if id(s.zonos) not in copies:
            zonos = dict(s.zonos)
            if rng.random() < 0.4:
                for v in rng.sample(rz.var_names, rng.randint(1, len(rz.var_names))):
                    zonos[v] = rng.choice(stand_ins)
            copies[id(s.zonos)] = zonos
        steps.append(replace(s, zonos=copies[id(s.zonos)]))
    return replace(rz, steps=steps)


def test_check_containment_reports_match_plain_check_on_corrupted_results(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference
    rng = random.Random(2024)
    specs = [parse_system(src) for src, _ in reference.random_pool()[:15]]
    unsound = 0
    for sys_ in [*specs, intersection_system()]:
        for n in (0, 1, 30):
            rz, rx = reach(sys_, n, "zonotope"), reach(sys_, n, "explicit")
            for bad in (rz, _corrupt(rng, rz), _corrupt(rng, rz)):
                rep = check_containment(bad, rx)
                assert (rep.ok, rep.violations, rep.surplus) == _plain_check_containment(bad, rx)
                unsound += not rep.ok
    assert unsound > 20
