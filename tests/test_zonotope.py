import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logzono.errors import (CapacityError, DimensionError, EmptyInputError,
                            UsageError)
from logzono.explicit import ExplicitSet, oracle_not, oracle_op
from logzono.gf2 import BitMatrix, BitVec, ones, zeros
from logzono.zonotope import (LogicalZonotope, contains, effective_cap,
                              enclose_points, evaluate, full_set, mink_and,
                              mink_nand, mink_nor, mink_not, mink_or,
                              mink_xnor, mink_xor, reduce, scalar_normalize,
                              singleton)


def Z(center, *gens):
    return LogicalZonotope(BitVec.from_text(center),
                           tuple(BitVec.from_text(g) for g in gens))


def pts(*texts):
    return ExplicitSet.from_iterable(len(texts[0]), [BitVec.from_text(t) for t in texts])


EXAMPLE1 = Z("01", "10", "11")


def rand_zono(rng, n_max=4, g_max=3):
    n = rng.randint(1, n_max)
    gamma = rng.randint(0, g_max)
    return LogicalZonotope(
        BitVec(n, rng.getrandbits(n)),
        tuple(BitVec(n, rng.getrandbits(n)) for _ in range(gamma)))


@st.composite
def zonotopes(draw, n_max=4, g_max=3):
    n = draw(st.integers(1, n_max))
    gamma = draw(st.integers(0, g_max))
    center = BitVec(n, draw(st.integers(0, (1 << n) - 1)))
    gens = tuple(BitVec(n, draw(st.integers(0, (1 << n) - 1))) for _ in range(gamma))
    return LogicalZonotope(center, gens)


def zono_pairs(draw_from=zonotopes):
    @st.composite
    def pair(draw):
        n = draw(st.integers(1, 4))
        def one():
            gamma = draw(st.integers(0, 3))
            return LogicalZonotope(
                BitVec(n, draw(st.integers(0, (1 << n) - 1))),
                tuple(BitVec(n, draw(st.integers(0, (1 << n) - 1)))
                      for _ in range(gamma)))
        return one(), one()
    return pair()


def test_evaluate_four_point_example():
    assert evaluate(EXAMPLE1) == pts("01", "10", "11", "00")


def test_evaluate_singleton_and_duplicates():
    assert evaluate(Z("10")) == pts("10")
    assert evaluate(Z("0", "1", "1")) == pts("0", "1")


def test_evaluate_cap():
    big = LogicalZonotope(zeros(2), tuple(BitVec(2, 1) for _ in range(21)))
    with pytest.raises(CapacityError, match="cap 20"):
        evaluate(big)
    evaluate(big, cap=25)


def test_gamma_cap_env_override(monkeypatch):
    monkeypatch.setenv("LOGZONO_GAMMA_CAP", "2")
    with pytest.raises(CapacityError, match="cap 2"):
        evaluate(Z("0", "1", "1", "1"))


@pytest.mark.parametrize("raw", ["abc", "2.5", "", "0", "-3"])
def test_gamma_cap_env_must_be_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("LOGZONO_GAMMA_CAP", raw)
    with pytest.raises(UsageError, match="LOGZONO_GAMMA_CAP"):
        effective_cap()
    with pytest.raises(UsageError, match="LOGZONO_GAMMA_CAP"):
        evaluate(Z("0", "1"))
    assert effective_cap(3) == 3


def test_scalar_normalize():
    rng = random.Random(23)
    for _ in range(100):
        l = LogicalZonotope(BitVec(1, rng.getrandbits(1)),
                            tuple(BitVec(1, rng.getrandbits(1))
                                  for _ in range(rng.randint(0, 4))))
        out = scalar_normalize(l)
        assert out.gamma <= 1 and evaluate(out) == evaluate(l)
        assert scalar_normalize(out) == out
    wide = Z("10", "01", "00", "01")
    assert scalar_normalize(wide) is wide


def test_point_count_bound():
    rng = random.Random(21)
    for _ in range(100):
        l = rand_zono(rng)
        assert len(evaluate(l)) <= 2 ** l.gamma


def test_xor_example_and_identity():
    out = mink_xor(Z("01", "10"), Z("11"))
    assert out.center == BitVec.from_text("10")
    assert evaluate(out) == pts("10", "00")
    l = EXAMPLE1
    assert evaluate(mink_xor(l, Z("00"))) == evaluate(l)


def test_not_is_involution_and_flips_center():
    l = EXAMPLE1
    assert mink_not(l).center == BitVec.from_text("10")
    assert mink_not(l).generators == l.generators
    assert mink_not(mink_not(l)) == l


def test_xnor_with_all_ones_is_identity():
    l = EXAMPLE1
    assert evaluate(mink_xnor(l, singleton(ones(2)))) == evaluate(l)


def test_and_hand_example():
    out = mink_and(Z("1", "1"), Z("1"))
    assert out == Z("1", "1")
    assert evaluate(out) == pts("1", "0")


def test_and_annihilator():
    out = mink_and(EXAMPLE1, singleton(zeros(2)))
    assert evaluate(out) == pts("00")


def test_nand_hand_example():
    assert evaluate(mink_nand(Z("1", "1"), Z("1"))) == pts("0", "1")


def test_or_identity_superset():
    l = EXAMPLE1
    assert evaluate(l).issubset(evaluate(mink_or(l, singleton(zeros(2)))))


def test_singleton_ops_are_pointwise():
    a, b = singleton(BitVec.from_text("0110")), singleton(BitVec.from_text("1010"))
    assert evaluate(mink_or(a, b)) == pts("1110")
    assert evaluate(mink_xnor(a, b)) == pts("0011")
    assert evaluate(mink_nand(a, b)) == pts("1101")


@settings(max_examples=200)
@given(zono_pairs())
def test_xor_not_xnor_exact(pair):
    """XOR, NOT and XNOR agree with the pointwise oracle exactly."""
    l1, l2 = pair
    s1, s2 = evaluate(l1), evaluate(l2)
    assert evaluate(mink_xor(l1, l2)) == oracle_op("xor", s1, s2)
    assert evaluate(mink_not(l1)) == oracle_not(s1)
    assert evaluate(mink_xnor(l1, l2)) == oracle_op("xnor", s1, s2)


@settings(max_examples=200)
@given(zono_pairs())
def test_and_family_superset_and_gamma(pair):
    """AND/NAND/OR/NOR cover the oracle set; gamma grows as g1+g2+g1*g2."""
    l1, l2 = pair
    s1, s2 = evaluate(l1), evaluate(l2)
    expect_gamma = l1.gamma + l2.gamma + l1.gamma * l2.gamma
    for op, fn in (("and", mink_and), ("nand", mink_nand),
                   ("or", mink_or), ("nor", mink_nor)):
        out = fn(l1, l2)
        assert out.gamma == expect_gamma
        assert oracle_op(op, s1, s2).issubset(evaluate(out))


def test_mink_xor_gamma_is_concatenation():
    l1, l2 = Z("01", "10"), Z("11", "01", "10")
    assert mink_xor(l1, l2).gamma == 3
    assert mink_xor(l1, l2).generators == l1.generators + l2.generators


def test_and_generator_order_matches_layout():
    l1 = Z("11", "10", "01")
    l2 = Z("01", "11")
    out = mink_and(l1, l2)
    expected = [l1.center & l2.generators[0],
                l2.center & l1.generators[0], l2.center & l1.generators[1],
                l1.generators[0] & l2.generators[0],
                l1.generators[1] & l2.generators[0]]
    assert list(out.generators) == expected


def test_contains_example1():
    assert contains(EXAMPLE1, BitVec.from_text("00"))
    assert contains(Z("10"), BitVec.from_text("10"))
    assert not contains(Z("10"), BitVec.from_text("01"))


@settings(max_examples=150)
@given(zonotopes(n_max=4, g_max=3), st.data())
def test_contains_matches_enumeration(l, data):
    x = BitVec(l.dim, data.draw(st.integers(0, (1 << l.dim) - 1)))
    assert contains(l, x) == (x in evaluate(l))


def test_contains_high_gamma_without_enumeration():
    gens = tuple(BitVec(4, 1 << (i % 4)) for i in range(40))
    l = LogicalZonotope(zeros(4), gens)
    assert contains(l, BitVec.from_text("1111"))


def test_enclose_points_examples():
    assert enclose_points([BitVec.from_text("01")]) == Z("01")
    assert evaluate(enclose_points([BitVec.from_text("0"), BitVec.from_text("1")])) == pts("0", "1")
    out = enclose_points([BitVec.from_text(t) for t in ("01", "10", "11")])
    assert out == Z("01", "11", "10")
    assert evaluate(out) == pts("00", "01", "10", "11")


def test_enclose_points_errors():
    with pytest.raises(EmptyInputError):
        enclose_points([])
    with pytest.raises(DimensionError):
        enclose_points([BitVec.from_text("0"), BitVec.from_text("01")])


@settings(max_examples=100)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=8))
def test_enclose_points_covers_inputs(words):
    points = [BitVec(4, w) for w in words]
    out = enclose_points(points)
    ev = evaluate(out)
    assert all(p in ev for p in points)


def test_reduce_examples():
    assert reduce(Z("0", "1", "1")) == Z("0", "1")
    assert reduce(Z("01")) == Z("01")
    assert reduce(Z("01", "00", "10")) == Z("01", "10")


def test_reduce_keeps_center():
    l = Z("11", "10", "01", "11")
    assert reduce(l).center == l.center


@settings(max_examples=200)
@given(zonotopes(n_max=4, g_max=6))
def test_reduce_preserves_set_and_is_idempotent(l):
    r = reduce(l)
    assert evaluate(r) == evaluate(l)
    assert r.gamma <= l.gamma
    assert reduce(r) == r


def test_full_set_covers_everything():
    assert len(evaluate(full_set(3))) == 8


def test_json_round_trip():
    d = EXAMPLE1.to_json_dict()
    assert d == {"dim": 2, "center": "01", "generators": ["10", "11"]}
    assert LogicalZonotope.from_json_dict(d) == EXAMPLE1


def test_dimension_error_on_mixed_dims():
    with pytest.raises(DimensionError):
        mink_xor(Z("01"), Z("1"))
    with pytest.raises(DimensionError):
        LogicalZonotope(zeros(2), (zeros(3),))


def _span_words(center, gens) -> frozenset:
    """Point words of <center; gens> by doubling a set over every generator."""
    words = {center.word}
    for g in gens:
        words |= {w ^ g.word for w in words}
    return frozenset(words)


def _greedy_reduce(l):
    """The former `reduce`: scan in index order, drop a generator whenever
    the point set without it (and without those already dropped) is equal."""
    target = _span_words(l.center, l.generators)
    kept = list(l.generators)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if _span_words(l.center, trial) == target:
            kept = trial
        else:
            i += 1
    return LogicalZonotope(l.center, tuple(kept))


def _rand_zono_with_repeats(rng, n, gamma):
    """Random generators, about a tenth zero and a third repeats of a few words."""
    pool = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
    words = []
    for _ in range(gamma):
        r = rng.random()
        words.append(0 if r < 0.1 else rng.choice(pool) if r < 0.4 else rng.getrandbits(n))
    return LogicalZonotope(BitVec(n, rng.getrandbits(n)),
                           tuple(BitVec(n, w) for w in words))


def test_reduce_matches_greedy_scan():
    rng = random.Random(31)
    for _ in range(5000):
        l = _rand_zono_with_repeats(rng, rng.randint(1, 8), rng.randint(0, 10))
        assert reduce(l) == _greedy_reduce(l)


def test_evaluate_lists_two_to_the_rank_points():
    rng = random.Random(32)
    for _ in range(500):
        l = _rand_zono_with_repeats(rng, rng.randint(1, 8), rng.randint(0, 10))
        ev = evaluate(l)
        assert len(ev) == 2 ** reduce(l).gamma
        assert ev.words() == _span_words(l.center, l.generators)


def test_contains_matches_evaluate_on_every_point():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 6)
        l = _rand_zono_with_repeats(rng, n, rng.randint(0, 8))
        members = evaluate(l).words()
        for w in range(1 << n):
            assert contains(l, BitVec(n, w)) == (w in members)


def test_reduce_and_contains_at_n64_gamma40():
    rng = random.Random(34)
    low = (1 << 63) - 1
    l = LogicalZonotope(BitVec(64, rng.getrandbits(63)),
                        tuple(BitVec(64, rng.getrandbits(64) & low) for _ in range(40)))
    r = reduce(l)
    assert r.center == l.center and r.gamma <= 40
    for _ in range(50):
        x = l.center
        for g in l.generators:
            if rng.getrandbits(1):
                x = x ^ g
        assert contains(l, x) and contains(r, x)
    # bit 64 is zero in the center and in every generator
    assert not contains(l, BitVec(64, 1 << 63))


def test_dim_zero_zonotope():
    eps = BitVec(0, 0)
    l = LogicalZonotope(eps, (eps,))
    assert contains(l, eps)
    assert evaluate(l) == ExplicitSet.from_iterable(0, [eps])
    assert reduce(l) == LogicalZonotope(eps, ())
    with pytest.raises(DimensionError):
        BitMatrix.from_rows([])


def test_explicit_set_order_is_text_order():
    rng = random.Random(35)
    for dim in range(1, 11):
        words = [rng.getrandbits(dim) for _ in range(rng.randint(1, 40))]
        s = ExplicitSet.from_words(dim, words)
        texts = sorted({BitVec(dim, w).to_text() for w in words})
        assert [p.to_text() for p in s] == texts
        assert ExplicitSet.from_iterable(dim, [BitVec(dim, w) for w in words]) == s
