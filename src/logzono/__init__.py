"""Logical zonotopes: set computations over binary vectors.

A logical zonotope is a center vector plus a list of generator vectors
over GF(2); it stands for every XOR-combination of the center with a
subset of the generators. XOR, NOT and XNOR distribute exactly over this
representation; AND, NAND, OR, NOR and the semi-tensor product come out
as over-approximations. On top of that sit a reachability engine for
Boolean dynamical systems (with a brute-force explicit backend as the
exactness oracle), a small text format for describing such systems, and
two worked case studies.
"""

from .errors import (CapacityError, CyclicReferenceError, DimensionError,
                     DslSyntaxError, DuplicateRuleError, EmptyInputError,
                     EvalError, LogzonoError, ParseError, SearchFailed,
                     UnknownIdentifierError, UsageError)
from .gf2 import (BitMatrix, BitVec, from_columns, gf2_matmul, gf2_matvec,
                  gf2_solve, identity, kron, ones, stp, zeros)
from .explicit import ExplicitSet, oracle_not, oracle_op
from .zonotope import (DEFAULT_GAMMA_CAP, LogicalZonotope, contains,
                       effective_cap, enclose_points, evaluate, full_set,
                       mink_and, mink_nand, mink_nor, mink_not, mink_or,
                       mink_xnor, mink_xor, reduce, singleton)
from .matrix_zonotope import LogicalMatrixZonotope, evaluate_matrix, mink_stp
from .dsl import (SystemSpec, eval_point, eval_zonotope, lower_rules,
                  parse_system, print_expr, print_system)
from .reach import (ContainmentReport, ReachResult, StepRecord,
                    check_containment, exact_reach, reach)
from .casestudies import (CipherInstance, LfsrSpec, encrypt,
                          intersection_system, key_search, lfsr_keystream,
                          make_instance, scaled_spec)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix", "BitVec", "CapacityError", "CipherInstance",
    "ContainmentReport", "CyclicReferenceError", "DEFAULT_GAMMA_CAP",
    "DimensionError", "DslSyntaxError", "DuplicateRuleError",
    "EmptyInputError", "EvalError", "ExplicitSet", "LfsrSpec",
    "LogicalMatrixZonotope", "LogicalZonotope", "LogzonoError",
    "ParseError", "ReachResult", "SearchFailed", "StepRecord",
    "SystemSpec", "UnknownIdentifierError", "UsageError",
    "check_containment", "contains", "effective_cap",
    "enclose_points", "encrypt", "eval_point", "eval_zonotope", "evaluate",
    "evaluate_matrix", "exact_reach", "from_columns",
    "full_set", "gf2_matmul", "gf2_matvec", "gf2_solve", "identity",
    "intersection_system", "key_search", "kron", "lfsr_keystream",
    "lower_rules", "make_instance", "mink_and", "mink_nand", "mink_nor", "mink_not",
    "mink_or", "mink_stp", "mink_xnor", "mink_xor", "ones", "oracle_not",
    "oracle_op", "parse_system", "print_expr", "print_system", "reach",
    "reduce", "scaled_spec", "singleton", "stp", "zeros",
]
