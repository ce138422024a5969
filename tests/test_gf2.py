import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logzono.errors import DimensionError
from logzono.gf2 import (BitMatrix, BitVec, gf2_matmul, gf2_matvec,
                         gf2_solve, identity, kron, ones, solve_words, stp,
                         zeros)


def naive_matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Accumulate-by-XOR reference loop, the oracle for gf2_matmul."""
    out = []
    for i in range(1, a.rows + 1):
        row = []
        for j in range(1, b.cols + 1):
            acc = 0
            for k in range(1, a.cols + 1):
                acc ^= a.entry(i, k) & b.entry(k, j)
            row.append(acc)
        out.append(row)
    return BitMatrix.from_rows(out)


def rand_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def test_xor_truth_table():
    assert BitVec.from_text("01") ^ BitVec.from_text("11") == BitVec.from_text("10")
    assert BitVec.from_text("00") ^ BitVec.from_text("10") == BitVec.from_text("10")


def test_xor_self_inverse():
    v = BitVec.from_text("10110")
    assert v ^ v == zeros(5)


def test_elementwise_ops():
    a, b = BitVec.from_text("11"), BitVec.from_text("10")
    assert a & b == BitVec.from_text("10")
    assert ~BitVec.from_text("01") == BitVec.from_text("10")
    assert a | b == BitVec.from_text("11")
    assert ~(a & b) == BitVec.from_text("01")
    assert ~(a | b) == BitVec.from_text("00")
    assert ~(a ^ a) == ones(2)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        BitVec(2) ^ BitVec(3)


def test_text_round_trip():
    for s in ["0", "1", "0110", "10000000001"]:
        assert BitVec.from_text(s).to_text() == s
    m = BitMatrix.from_text("10;01;11")
    assert m.to_text() == "10;01;11"
    assert m.entry(3, 1) == 1 and m.entry(1, 2) == 0


def test_bit_indexing_is_one_based_leftmost_first():
    v = BitVec.from_text("100")
    assert v.bit(1) == 1 and v.bit(2) == 0 and v.bit(3) == 0


@settings(max_examples=60)
@given(st.integers(1, 64), st.data())
def test_xor_assoc_comm(n, data):
    a = BitVec(n, data.draw(st.integers(0, (1 << n) - 1)))
    b = BitVec(n, data.draw(st.integers(0, (1 << n) - 1)))
    c = BitVec(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert a ^ b == b ^ a
    assert (a ^ b) ^ c == a ^ (b ^ c)


def test_matmul_identity():
    b = BitMatrix.from_text("101;010")
    assert gf2_matmul(identity(2), b) == b


def test_matmul_xor_accumulates():
    assert gf2_matmul(BitMatrix.from_text("11"), BitMatrix.from_text("1;1")) == \
        BitMatrix.from_text("0")


def test_matmul_against_naive_oracle():
    rng = random.Random(11)
    for _ in range(200):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, m, k), rand_matrix(rng, k, n)
        assert gf2_matmul(a, b) == naive_matmul(a, b)


def test_matmul_distributes_over_xor():
    rng = random.Random(12)
    for _ in range(200):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, m, k)
        b, c = rand_matrix(rng, k, n), rand_matrix(rng, k, n)
        assert gf2_matmul(a, b ^ c) == gf2_matmul(a, b) ^ gf2_matmul(a, c)


def test_kron_identity_and_blocks():
    a = BitMatrix.from_text("10;01")
    assert kron(a, identity(1)) == a
    assert kron(BitMatrix.from_text("10"), identity(2)) == BitMatrix.from_text("1000;0100")


def test_kron_dimension_law():
    rng = random.Random(13)
    a, b = rand_matrix(rng, 2, 3), rand_matrix(rng, 4, 5)
    k = kron(a, b)
    assert (k.rows, k.cols) == (8, 15)
    # spot-check the block definition
    for i in range(1, 9):
        for j in range(1, 16):
            assert k.entry(i, j) == a.entry((i - 1) // 4 + 1, (j - 1) // 5 + 1) * \
                b.entry((i - 1) % 4 + 1, (j - 1) % 5 + 1)


def test_stp_degenerate_is_matmul():
    rng = random.Random(14)
    for _ in range(100):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = rand_matrix(rng, m, k), rand_matrix(rng, k, n)
        assert stp(a, b) == gf2_matmul(a, b)


def test_stp_hand_expanded_example():
    # M 1x2, N 4x1, s = 4: (M kron I_2) is 2x4 and multiplies N directly.
    m = BitMatrix.from_text("10")
    n = BitMatrix.from_text("1;0;0;0")
    assert stp(m, n) == BitMatrix.from_text("1;0")


def test_stp_one_hot_columns_stay_one_hot():
    for dn in (2, 4):
        for dm in (2, 4):
            for i in range(dm):
                for j in range(dn):
                    a = BitMatrix(dm, 1, tuple(1 if r == i else 0 for r in range(dm)))
                    b = BitMatrix(dn, 1, tuple(1 if r == j else 0 for r in range(dn)))
                    out = stp(a, b)
                    assert out.cols == 1
                    assert sum(out.entry(r, 1) for r in range(1, out.rows + 1)) == 1


def test_solve_identity_and_unsolvable():
    b = BitVec.from_text("101")
    assert gf2_solve(identity(3), b) == b
    assert gf2_solve(BitMatrix(2, 2, (0, 0)), BitVec.from_text("10")) is None


def test_solve_matches_enumeration():
    """gf2_solve finds a solution iff brute force over all 2^cols does."""
    rng = random.Random(15)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, rows, cols)
        b = BitVec(rows, rng.getrandbits(rows))
        found = any(gf2_matvec(a, BitVec(cols, w)) == b for w in range(1 << cols))
        got = gf2_solve(a, b)
        assert (got is not None) == found
        if got is not None:
            assert gf2_matvec(a, got) == b


def test_solve_wide_matrix():
    rng = random.Random(16)
    for _ in range(20):
        a = rand_matrix(rng, 4, 12)
        b = BitVec(4, rng.getrandbits(4))
        got = gf2_solve(a, b)
        brute = any(gf2_matvec(a, BitVec(12, w)) == b for w in range(1 << 12))
        assert (got is not None) == brute


def test_solve_is_deterministic():
    a = BitMatrix.from_text("11;00")
    b = BitVec.from_text("10")
    # two solutions exist ([1,0] and [0,1]); lowest-column pivoting picks x1
    assert gf2_solve(a, b) == BitVec.from_text("10")


def tuple_solve(a: BitMatrix, b: BitVec):
    """The former gf2_solve: Gauss-Jordan on (word, rhs) tuples, pivot at
    the lowest column, free variables 0. The oracle for the packed solve."""
    rows = [(a.row_words[i], b.word >> i & 1) for i in range(a.rows)]
    pivots = []
    r = 0
    for c in range(a.cols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][0] >> c & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pw, pb = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][0] >> c & 1:
                rows[i] = (rows[i][0] ^ pw, rows[i][1] ^ pb)
        pivots.append((r, c))
        r += 1
    for i in range(r, len(rows)):
        if rows[i][0] == 0 and rows[i][1]:
            return None
    x = 0
    for ri, ci in pivots:
        if rows[ri][1]:
            x |= 1 << ci
    return BitVec(a.cols, x)


def test_solve_matches_tuple_elimination():
    """Same witness (not only the same solvability) as the old elimination
    on tall, wide, 1x1 and rank-deficient systems with all-zero rows."""
    rng = random.Random(17)
    shapes = ([(1, 1)] * 500
              + [(rng.randint(5, 14), rng.randint(1, 5)) for _ in range(1500)]
              + [(rng.randint(1, 5), rng.randint(5, 14)) for _ in range(1500)]
              + [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(1500)])
    solvable = 0
    for rows, cols in shapes:
        words = [rng.getrandbits(cols) for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            words[i] = 0
        if rng.random() < 0.3:      # repeated rows lower the rank
            words = [rng.choice(words) for _ in words]
        a = BitMatrix(rows, cols, tuple(words))
        if rng.random() < 0.5:      # a consistent right-hand side
            b = gf2_matvec(a, BitVec(cols, rng.getrandbits(cols)))
        else:
            b = BitVec(rows, rng.getrandbits(rows))
        want = tuple_solve(a, b)
        assert gf2_solve(a, b) == want, (a, b)
        solvable += want is not None
    assert 0.3 * len(shapes) < solvable < 0.9 * len(shapes)


def test_solve_words_zero_dimensions():
    assert solve_words([], 0) == 0
    assert solve_words([], 5) == 0
    assert solve_words([0, 0], 0) == 0
    assert solve_words([0, 1], 0) is None           # 0 = 1
    assert solve_words([0b100], 2) is None          # 0.x = 1
    assert solve_words([0b111, 0b010], 2) == 0b01   # x1 ^ x2 = 1, x2 = 0
