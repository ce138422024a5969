import random

import pytest

from logzono.errors import CapacityError, DimensionError
from logzono.gf2 import BitMatrix, BitVec, identity, stp
from logzono.matrix_zonotope import (LogicalMatrixZonotope, evaluate_matrix,
                                     mink_stp)
from logzono.zonotope import LogicalZonotope, evaluate


def M(text):
    return BitMatrix.from_text(text)


def rand_mat(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def rand_mzono(rng, rows, cols, g_max=2):
    gamma = rng.randint(0, g_max)
    return LogicalMatrixZonotope(
        rand_mat(rng, rows, cols),
        tuple(rand_mat(rng, rows, cols) for _ in range(gamma)))


def pointwise_stp(l1, l2):
    return {stp(a, b) for a in evaluate_matrix(l1) for b in evaluate_matrix(l2)}


def test_evaluate_singleton():
    l = LogicalMatrixZonotope(M("10;01"))
    assert evaluate_matrix(l) == {M("10;01")}


def test_evaluate_zero_generator_collapses():
    l = LogicalMatrixZonotope(M("11"), (BitMatrix(1, 2, (0,)),))
    assert evaluate_matrix(l) == {M("11")}


def test_evaluate_two_generators():
    l = LogicalMatrixZonotope(M("00"), (M("10"), M("01")))
    assert evaluate_matrix(l) == {M("00"), M("10"), M("01"), M("11")}


def test_evaluate_cap():
    l = LogicalMatrixZonotope(M("1"), tuple(M("1") for _ in range(5)))
    with pytest.raises(CapacityError, match="cap 3"):
        evaluate_matrix(l, cap=3)


def test_evaluate_cap_messages_match_vector_evaluate(monkeypatch):
    # the matrix and vector enumerations share one cap check and its message
    monkeypatch.delenv("LOGZONO_GAMMA_CAP", raising=False)
    for cap in (None, 3):
        with pytest.raises(CapacityError) as matrix_err:
            evaluate_matrix(LogicalMatrixZonotope(M("1"), (M("1"),) * 25), cap)
        with pytest.raises(CapacityError) as vector_err:
            evaluate(LogicalZonotope(BitVec(1, 1), (BitVec(1, 1),) * 25), cap)
        expected = f"gamma=25 exceeds enumeration cap {cap or 20} (LOGZONO_GAMMA_CAP)"
        assert str(matrix_err.value) == str(vector_err.value) == expected


def test_singleton_stp_is_definition3():
    rng = random.Random(31)
    for _ in range(50):
        a = rand_mat(rng, rng.randint(1, 2), rng.randint(1, 2))
        b = rand_mat(rng, rng.randint(1, 2), 1)
        out = mink_stp(LogicalMatrixZonotope(a), LogicalMatrixZonotope(b))
        assert out.gamma == 0
        assert out.center == stp(a, b)


def test_identity_singleton_left():
    rng = random.Random(32)
    l2 = rand_mzono(rng, 2, 1)
    out = mink_stp(LogicalMatrixZonotope(identity(2)), l2)
    assert evaluate_matrix(out) == evaluate_matrix(l2)


def test_gamma_count():
    rng = random.Random(33)
    l1 = rand_mzono(rng, 2, 2, g_max=2)
    l2 = rand_mzono(rng, 2, 1, g_max=2)
    out = mink_stp(l1, l2)
    assert out.gamma == l1.gamma + l2.gamma + l1.gamma * l2.gamma


def test_soundness_random_pairs():
    """mink_stp covers the pointwise semi-tensor product set."""
    rng = random.Random(34)
    for _ in range(200):
        l1 = rand_mzono(rng, rng.randint(1, 2), rng.randint(1, 2))
        l2 = rand_mzono(rng, rng.randint(1, 2), 1)
        assert pointwise_stp(l1, l2) <= evaluate_matrix(mink_stp(l1, l2))


def test_soundness_nondegenerate_dims():
    # inner dims 2 and 4 force s=4, exercising both Kronecker liftings
    rng = random.Random(35)
    for _ in range(50):
        l1 = rand_mzono(rng, 1, 2)
        l2 = rand_mzono(rng, 4, 1)
        assert pointwise_stp(l1, l2) <= evaluate_matrix(mink_stp(l1, l2))


def test_json_round_trip():
    l = LogicalMatrixZonotope(M("10;01"), (M("11;00"),))
    d = l.to_json_dict()
    assert d["rows"] == 2 and d["cols"] == 2
    assert d["center"] == ["10", "01"]
    assert LogicalMatrixZonotope.from_json_dict(d) == l


def test_shape_mismatch():
    with pytest.raises(DimensionError):
        LogicalMatrixZonotope(M("10;01"), (M("1;0"),))
