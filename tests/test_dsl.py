import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings

from logzono.dsl import (_BIT_OPS, And, Const, Nand, Nor, Not, Or,
                         SystemSpec, Var, Xnor, Xor, eval_point,
                         eval_zonotope, lower_rules, parse_system, print_expr,
                         print_system)
from logzono.errors import (CyclicReferenceError, DslSyntaxError,
                            DuplicateRuleError, EvalError,
                            UnknownIdentifierError)
from logzono.explicit import ExplicitSet, oracle_not, oracle_op
from logzono.gf2 import BitVec
from logzono.reach import reach
from logzono.zonotope import (LogicalZonotope, evaluate, mink_and, mink_nand,
                              mink_nor, mink_or, mink_xnor, mink_xor,
                              singleton)
from tests_util_strategies import systems
from tests_util_systems import random_system_source

MINI = """\
state p1, c1;
input up1, uc1;
p1' = up1 & !p1 & !c1;
c1' = !p1' & (uc1 | (!p1 & p1'));
init p1 = 1;
init c1 = {0,1};
in up1 = {0,1};
in uc1 = {0,1};
horizon 10;
"""


def test_parse_rule_ast_shape():
    spec = parse_system(MINI)
    assert spec.updates["p1"] == And(And(Var("up1"), Not(Var("p1"))), Not(Var("c1")))


def test_parse_primed_reference():
    spec = parse_system(MINI)
    c1 = spec.updates["c1"]
    assert c1 == And(Not(Var("p1", primed=True)),
                     Or(Var("uc1"), And(Not(Var("p1")), Var("p1", primed=True))))


def test_parse_identity_rule_and_defaults():
    spec = parse_system("state x; x' = x; init x = 0;")
    assert spec.updates["x"] == Var("x")
    assert spec.horizon == 0
    assert spec.input_vars == ()


def test_parse_domains_and_horizon():
    spec = parse_system(MINI)
    assert spec.init == {"p1": (1,), "c1": (0, 1)}
    assert spec.inputs == {"up1": (0, 1), "uc1": (0, 1)}
    assert spec.horizon == 10


def test_precedence_not_and_xor_or():
    spec = parse_system("state a, b, c; a' = !a & b ^ c | a; b' = b; c' = c;"
                        "init a = 0; init b = 0; init c = 0;")
    assert spec.updates["a"] == Or(Xor(And(Not(Var("a")), Var("b")), Var("c")), Var("a"))


def test_keyword_operators():
    spec = parse_system("state a, b; a' = a nand b; b' = (a nor b) xnor a;"
                        "init a = 0; init b = 1;")
    assert spec.updates["a"] == Nand(Var("a"), Var("b"))
    assert spec.updates["b"] == Xnor(Nor(Var("a"), Var("b")), Var("a"))


def test_comments_ignored():
    spec = parse_system("# heading\nstate x; # trailing\nx' = !x;\ninit x = 1;\n")
    assert spec.updates["x"] == Not(Var("x"))


def test_syntax_error_location():
    with pytest.raises(DslSyntaxError) as e:
        parse_system("state x;\nx' = & x;\ninit x = 0;")
    assert e.value.line == 2
    assert e.value.col == 6


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as e:
        parse_system("state x;\nx' = y;\ninit x = 0;")
    assert e.value.line == 2


def test_duplicate_rule():
    with pytest.raises(DuplicateRuleError):
        parse_system("state x;\nx' = x;\nx' = !x;\ninit x = 0;")


def test_cyclic_next_step_reference():
    with pytest.raises(CyclicReferenceError):
        parse_system("state x;\nx' = x';\ninit x = 0;")
    with pytest.raises(CyclicReferenceError):
        parse_system("state a, b;\na' = b';\nb' = a;\ninit a = 0; init b = 0;")


def test_forward_primed_reference_is_fine():
    spec = parse_system("state a, b;\na' = b;\nb' = a';\ninit a = 0; init b = 0;")
    assert spec.updates["b"] == Var("a", primed=True)


def test_missing_rule_and_missing_domain():
    with pytest.raises(DslSyntaxError, match="no update rule"):
        parse_system("state x; init x = 0;")
    with pytest.raises(DslSyntaxError, match="no init domain"):
        parse_system("state x; x' = x;")
    with pytest.raises(DslSyntaxError, match="no domain"):
        parse_system("state x; input u; x' = x; init x = 0;")


def test_eval_point_protocol_rule():
    e = parse_system(MINI).updates["p1"]
    assert eval_point(e, {"up1": 1, "p1": 0, "c1": 0}) == 1
    for up1, c1 in itertools.product((0, 1), repeat=2):
        assert eval_point(e, {"up1": up1, "p1": 1, "c1": c1}) == 0


def test_eval_point_xor_self():
    e = Xor(Var("a"), Var("a"))
    assert eval_point(e, {"a": 0}) == 0
    assert eval_point(e, {"a": 1}) == 0


@pytest.mark.parametrize("node", [Xor, And, Or, Nand, Nor, Xnor])
def test_eval_point_binary_truth_table(node):
    """Every row of each operator, against the explicit oracle on 1-bit
    sets, which also pins the op names to the oracle's."""
    for a, b in itertools.product((0, 1), repeat=2):
        want = oracle_op(node.op, ExplicitSet.from_words(1, [a]),
                         ExplicitSet.from_words(1, [b]))
        got = eval_point(node(Var("a"), Var("b")), {"a": a, "b": b})
        assert want.words() == {got}, (node.op, a, b)


def test_eval_point_not_truth_table():
    for a in (0, 1):
        want = oracle_not(ExplicitSet.from_words(1, [a]))
        assert want.words() == {eval_point(Not(Var("a")), {"a": a})}


def test_eval_point_unbound():
    with pytest.raises(EvalError):
        eval_point(Var("zz"), {"a": 1})


def bit(v):
    return singleton(BitVec(1, v))


FULL = LogicalZonotope(BitVec(1, 0), (BitVec(1, 1),))


def test_eval_zonotope_singletons_match_pointwise():
    e = parse_system(MINI).updates["p1"]
    rng = random.Random(41)
    for _ in range(30):
        env_bits = {v: rng.getrandbits(1) for v in ("up1", "p1", "c1")}
        env = {k: bit(v) for k, v in env_bits.items()}
        out = evaluate(eval_zonotope(e, env))
        assert out == ExplicitSet.from_iterable(1, [BitVec(1, eval_point(e, env_bits))])


def test_eval_zonotope_annihilation():
    e = parse_system(MINI).updates["p1"]
    env = {"up1": FULL, "p1": bit(1), "c1": bit(1)}
    assert evaluate(eval_zonotope(e, env)).words() == {0}


def test_eval_zonotope_keeps_ndim_generators():
    """Per-op normalization applies to 1-bit results only."""
    a = LogicalZonotope(BitVec.from_text("10"),
                        (BitVec.from_text("01"), BitVec.from_text("00"),
                         BitVec.from_text("11")))
    b = LogicalZonotope(BitVec.from_text("11"),
                        (BitVec.from_text("10"), BitVec.from_text("10")))
    env = {"a": a, "b": b}
    ops = {Xor: mink_xor, Xnor: mink_xnor, And: mink_and, Nand: mink_nand,
           Or: mink_or, Nor: mink_nor}
    for ctor, op in ops.items():
        assert eval_zonotope(ctor(Var("a"), Var("b")), env) == op(a, b)
    assert eval_zonotope(Not(And(Var("a"), Var("b"))), env).gamma == 3 + 2 + 3 * 2


def test_eval_zonotope_normalizes_scalar_results():
    a = LogicalZonotope(BitVec(1, 1), (BitVec(1, 0), BitVec(1, 1)))
    b = LogicalZonotope(BitVec(1, 0), (BitVec(1, 1), BitVec(1, 1)))
    out = eval_zonotope(And(Var("a"), Var("b")), {"a": a, "b": b})
    assert out == LogicalZonotope(BitVec(1, 0), (BitVec(1, 1),))
    assert evaluate(out) == evaluate(mink_and(a, b))


def rand_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.15:
            return Const(rng.getrandbits(1))
        return Var(rng.choice(names))
    ctor = rng.choice([Not, Xor, And, Or, Nand, Nor, Xnor])
    if ctor is Not:
        return Not(rand_expr(rng, names, depth - 1))
    return ctor(rand_expr(rng, names, depth - 1), rand_expr(rng, names, depth - 1))


def rand_scalar_zono(rng, g_max=2):
    gamma = rng.randint(0, g_max)
    return LogicalZonotope(BitVec(1, rng.getrandbits(1)),
                           tuple(BitVec(1, rng.getrandbits(1)) for _ in range(gamma)))


def test_zonotope_semantics_cover_pointwise_products():
    """Expression-level soundness: the zonotope result covers every
    combination of points drawn from the variable sets.

    Nested ANDs can push gamma far past the default enumeration cap, so
    evaluation here runs with an explicit large cap (scalar evaluation
    cost is linear in gamma, not exponential).
    """
    rng = random.Random(42)
    names = ["a", "b", "c", "d"]
    for _ in range(150):
        e = rand_expr(rng, names, rng.randint(1, 4))
        env = {v: rand_scalar_zono(rng) for v in names}
        covered = evaluate(eval_zonotope(e, env), cap=10 ** 6).words()
        var_points = {v: [p.word for p in evaluate(env[v])] for v in names}
        for combo in itertools.product(*(var_points[v] for v in names)):
            point_env = dict(zip(names, combo))
            assert eval_point(e, point_env) in covered


def rand_linear_xor_expr(rng, pool):
    """XOR/XNOR/NOT tree where every variable is used at most once."""
    if len(pool) == 1 or rng.random() < 0.2:
        leaf = Var(pool.pop())
        return Not(leaf) if rng.random() < 0.3 else leaf
    split = rng.randint(1, len(pool) - 1)
    rng.shuffle(pool)
    left, right = pool[:split], pool[split:]
    ctor = rng.choice([Xor, Xnor])
    e = ctor(rand_linear_xor_expr(rng, left), rand_linear_xor_expr(rng, right))
    return Not(e) if rng.random() < 0.2 else e


def test_zonotope_semantics_exact_on_xor_only():
    """With each variable appearing once, XOR/XNOR/NOT evaluation is exact.

    (Repeating a variable breaks equality by design: the Minkowski product
    treats the two occurrences as independent choices, e.g. a ^ a over
    a = {0,1} is {0,1}, not {0}.)
    """
    rng = random.Random(43)
    for _ in range(150):
        names = ["a", "b", "c", "d"][:rng.randint(1, 4)]
        e = rand_linear_xor_expr(rng, list(names))
        env = {v: rand_scalar_zono(rng) for v in names}
        got = evaluate(eval_zonotope(e, env)).words()
        var_points = {v: [p.word for p in evaluate(env[v])] for v in names}
        want = set()
        for combo in itertools.product(*(var_points[v] for v in names)):
            want.add(eval_point(e, dict(zip(names, combo))))
        assert got == want


def test_print_parse_fixpoint_on_samples():
    for src in (MINI, "state x; x' = x; init x = {0,1}; horizon 3;"):
        spec = parse_system(src)
        printed = print_system(spec)
        again = parse_system(printed)
        assert again == spec
        assert print_system(again) == printed


def test_print_parse_fixpoint_random_exprs():
    rng = random.Random(44)
    names = ["a", "b"]
    for _ in range(200):
        e = rand_expr(rng, names, 4)
        spec = SystemSpec(("a", "b"), (), {"a": e, "b": Var("b")},
                          {"a": (0,), "b": (0, 1)}, {}, 5)
        assert parse_system(print_system(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(systems())
def test_print_parse_round_trip_generated_systems(spec):
    printed = print_system(spec)
    again = parse_system(printed)
    assert again == spec
    assert list(again.updates) == list(spec.updates)
    assert print_system(again) == printed


def test_printer_minimal_parens():
    e = Or(Xor(And(Not(Var("a")), Var("b")), Var("c")), Var("a"))
    assert print_expr(e) == "!a & b ^ c | a"


# ------------------------------------------- explicit reach successors


def _oracle_successors(spec, word, assignments):
    """Successor words by eval_point, rule by rule in declaration order."""
    out = set()
    for values in assignments:
        env = {v: word >> i & 1 for i, v in enumerate(spec.state_vars)}
        env.update(zip(spec.input_vars, values))
        for v, e in spec.updates.items():
            env[v + "'"] = eval_point(e, env)
        out.add(sum(env[v + "'"] << i for i, v in enumerate(spec.state_vars)))
    return out


def _explicit_successors(spec, word, input_domains):
    """Successor words from one step of reach(..., "explicit"), started
    from the one state `word` with these input domains."""
    init = {v: (word >> i & 1,) for i, v in enumerate(spec.state_vars)}
    one = replace(spec, init=init, inputs=dict(zip(spec.input_vars, input_domains)))
    return reach(one, 1, "explicit").steps[1].joint.words()


def _assert_compiled_matches_oracle(spec):
    """Every state word x every input assignment, one at a time and all
    together."""
    assignments = list(itertools.product((0, 1), repeat=spec.n_u))
    for word in range(1 << spec.n_x):
        for a in assignments:
            assert (_explicit_successors(spec, word, [(bit,) for bit in a])
                    == _oracle_successors(spec, word, [a])), (word, a)
        assert (_explicit_successors(spec, word, [(0, 1)] * spec.n_u)
                == _oracle_successors(spec, word, assignments))


def test_compiled_successors_match_eval_point_on_random_systems():
    rng = random.Random(61)
    for _ in range(300):
        src = random_system_source(rng, rng.randint(1, 4), rng.randint(0, 3),
                                   rng.randint(1, 4))
        _assert_compiled_matches_oracle(parse_system(src))


def test_compiled_successors_python_keyword_and_builtin_names():
    spec = parse_system("""
state if, for, set, None;
input out, x, _;
if' = for & !set | out nand x;
for' = if' ^ _ xnor None;
set' = (set nor None) & if' | x;
None' = !(for' nor out) ^ set';
init if = {0,1}; init for = {0,1}; init set = {0,1}; init None = {0,1};
in out = {0,1}; in x = {0,1}; in _ = {0,1};
""")
    _assert_compiled_matches_oracle(spec)


def test_compiled_successors_250_term_chain():
    # a rule nested 250 deep, past CPython's limit of 200 nested
    # parentheses in one expression
    chain = " & ".join(["u"] * 249 + ["x"])
    spec = parse_system(f"state x, y; input u; x' = {chain}; y' = !x' ^ {chain};"
                        "init x = {0,1}; init y = 0; in u = {0,1};")
    _assert_compiled_matches_oracle(spec)


def test_compiled_successors_without_inputs():
    spec = parse_system("state a, b, c; a' = !c; b' = a' ^ b; c' = a nand b';"
                        "init a = 0; init b = 0; init c = {0,1};")
    assert spec.n_u == 0
    _assert_compiled_matches_oracle(spec)
    assert _explicit_successors(spec, 0, []) == {0b111}


# primed references in any position, and systems without state variables,
# which random_system_source never draws
@settings(max_examples=100, deadline=None)
@given(systems())
def test_compiled_successors_match_eval_point_generated_systems(spec):
    _assert_compiled_matches_oracle(spec)


# ----------------------------------------------------------------- lowering


def test_lower_rules_layout():
    spec = parse_system("state a, b; input u; a' = !a & u; b' = a' nor 1;"
                        "init a = 0; init b = 0; in u = {0,1};")
    names, code = lower_rules(spec)
    assert names == ("a", "b", "u", "a'", "b'", "0", "1", "%0", "%1", "%3")
    assert code == ((7, "not", 0, None), (8, "and", 7, 2), (3, "copy", 8, None),
                    (9, "nor", 3, 6), (4, "copy", 9, None))


def test_lower_rules_unbound_names():
    # specs built by hand skip the parser's checks: names eval_point would
    # find unbound, and a state variable without a rule
    for updates in ({"a": Var("zz"), "b": Var("a")}, {"a": Var("b", True), "b": Var("a")},
                    {"a": Not(Var("a", True)), "b": Var("a")}, {"a": Var("b")}):
        spec = SystemSpec(("a", "b"), (), updates, {"a": (0,), "b": (0,)}, {})
        with pytest.raises(EvalError):
            lower_rules(spec)


def _lowered_successors(spec, word, assignments):
    """Successor words from lower_rules' code, run on bits with the bit
    functions that eval_point uses."""
    names, code = lower_rules(spec)
    ops = {"copy": lambda a, b: a, "not": lambda a, b: 1 - a, **_BIT_OPS}
    n_x, first_next = spec.n_x, spec.n_x + spec.n_u
    out = set()
    for values in assignments:
        env = [word >> i & 1 for i in range(n_x)] + list(values) + [0] * (len(names) - first_next)
        env[names.index("1")] = 1
        for dst, op, a, b in code:
            env[dst] = ops[op](env[a], None if b is None else env[b])
        out.add(sum(bit << i for i, bit in enumerate(env[first_next:first_next + n_x])))
    return out


def _assert_lowered_matches_oracle(spec):
    assignments = list(itertools.product((0, 1), repeat=spec.n_u))
    for word in range(1 << spec.n_x):
        for a in assignments:
            assert _lowered_successors(spec, word, [a]) == _oracle_successors(spec, word, [a])


def test_lowered_rules_match_eval_point_on_random_systems():
    rng = random.Random(67)
    for _ in range(200):
        src = random_system_source(rng, rng.randint(1, 4), rng.randint(0, 3),
                                   rng.randint(1, 4))
        _assert_lowered_matches_oracle(parse_system(src))


def test_lower_rules_chain_deeper_than_recursion_limit():
    # u ^ u ^ ... ^ x with an odd number of u's is u ^ x, which eval_point
    # can evaluate where the chain itself is too deep for it
    def spec(chain):
        return parse_system(f"state x, y; input u; x' = {chain}; y' = x' & !({chain});"
                            "init x = {0,1}; init y = 0; in u = {0,1};")

    deep = spec(" ^ ".join(["u"] * 1999 + ["x"]))
    assert len(lower_rules(deep)[1]) == 1999 + 1 + 1999 + 2 + 1
    for word in range(4):
        for u in (0, 1):
            assert (_lowered_successors(deep, word, [(u,)])
                    == _oracle_successors(spec("u ^ x"), word, [(u,)]))


@settings(max_examples=100, deadline=None)
@given(systems())
def test_lowered_rules_match_eval_point_generated_systems(spec):
    _assert_lowered_matches_oracle(spec)
