"""A small text format for Boolean dynamical systems.

Example:

    state p1, c1;
    input up1, uc1;
    p1' = up1 & !p1 & !c1;
    c1' = !p1' & (uc1 | (!p1 & p1'));
    init p1 = 1;
    init c1 = {0,1};
    in up1 = {0,1};
    in uc1 = {0,1};
    horizon 10;

A prime on the left-hand side marks the next-step value of a state
variable. Primed variables may also appear inside later rules (c1' above
uses p1'), which is resolved by evaluating rules in declaration order; a
primed reference to a rule that has not been defined yet is rejected.
Operator precedence, tightest first: ! then & (and nand) then ^ (and xnor)
then | (and nor); binary operators associate to the left. '#' starts a
line comment.

Each binary operator is defined once: a `Binary` subclass carrying its op
name ("xor", "and", "or", "nand", "nor", "xnor"), placed in `_PRECEDENCE`
under its token. The parser and printer read that table; `eval_point`
maps the op name to a bit function (`_BIT_OPS`) and `eval_zonotope` to
the zonotope module's `mink_<op>`.

The lexer is one `re.findall` pass that yields the tokens as plain
strings, with "" appended for the end of input; a token's kind follows
from its text. Tokens carry no position: a parse error knows the index
of the token it failed at, and only then is that token's line and column
recomputed from the source. The parser reads a rule by precedence
climbing with its own operand and operator stacks, and the printer walks
a rule with its own stack, so neither has a depth limit.

`lower_rules` turns a system's rules into straight-line instructions over
numbered slots, without recursion. Both reach backends run them: the
zonotope backend on scalar zonotope codes, the explicit backend on bits.
`eval_point` and `eval_zonotope` stay the references those backends are
tested against, and `eval_zonotope` is the evaluator for zonotopes of any
dimension.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

from . import zonotope as zn
from .errors import (CyclicReferenceError, DslSyntaxError, DuplicateRuleError,
                     EvalError, ParseError, UnknownIdentifierError)
from .gf2 import BitVec

# ---------------------------------------------------------------- AST nodes


@dataclass(frozen=True)
class Var:
    name: str
    primed: bool = False


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Not:
    e: "BoolExpr"


@dataclass(frozen=True)
class Binary:
    """A binary operator node; each subclass names its op in `op`."""

    a: "BoolExpr"
    b: "BoolExpr"


class Xor(Binary):
    op = "xor"


class And(Binary):
    op = "and"


class Or(Binary):
    op = "or"


class Nand(Binary):
    op = "nand"


class Nor(Binary):
    op = "nor"


class Xnor(Binary):
    op = "xnor"


BoolExpr = Union[Var, Const, Not, Binary]

# Binary operators by token, one dict per precedence level, loosest first.
_PRECEDENCE = ({"|": Or, "nor": Nor}, {"^": Xor, "xnor": Xnor}, {"&": And, "nand": Nand})


@dataclass(frozen=True)
class SystemSpec:
    """A parsed system: x(k+1) = f(x(k), u(k)) with set-valued x(0) and u."""

    state_vars: tuple
    input_vars: tuple
    updates: Mapping[str, BoolExpr]       # insertion order = staging order
    init: Mapping[str, tuple]             # var -> sorted domain, e.g. (0, 1)
    inputs: Mapping[str, tuple]
    horizon: int = 0

    @property
    def n_x(self):
        return len(self.state_vars)

    @property
    def n_u(self):
        return len(self.input_vars)

    @functools.cached_property
    def lowered(self):
        """`lower_rules(self)`, computed on first use and kept with the spec,
        so every reach on one spec shares it (a `dataclasses.replace` copy
        lowers again). Like the rest of a spec, its rules are not to be
        changed in place."""
        return lower_rules(self)


# ------------------------------------------------------------------- lexer

# A comment matches outside the group, so findall gives "" for it, and
# whitespace matches nothing, so findall skips it; the last alternative
# takes any other single character.
_TOKEN_RE = re.compile(r"#[^\n]*|([A-Za-z_][A-Za-z0-9_]*|\d+|[{}(),;=&|^!']|[^ \t\r\n])")
_BAD_CHAR = re.compile(r"[^A-Za-z_\d{}(),;=&|^!']")   # only the catch-all takes one

_KEYWORDS = {"state", "input", "init", "in", "horizon", "nand", "nor", "xnor"}


def _is_ident(t: str) -> bool:
    return t.isidentifier() and t not in _KEYWORDS


# ------------------------------------------------------------------ parser

# The operator stack's entries, (level, node): each binary operator at its
# _PRECEDENCE level, "!" tighter than all of them, and "(" below all, so
# no operator inside parentheses reduces past it.
_BINARY = {tok: (level, node) for level, ops in enumerate(_PRECEDENCE)
           for tok, node in ops.items()}
_BANG = (len(_PRECEDENCE), Not)
_OPEN = (-1, None)
_END = (0, None)        # any other token: reduce down to the innermost "("


class _Parser:
    """The tokens of one source, the index of the next one, and the system
    read so far."""

    def __init__(self, src: str):
        self.src = src
        self.toks = [*filter(None, _TOKEN_RE.findall(src)), ""]   # "": end of input
        self.i = 0
        self.state_vars, self.input_vars = [], []
        self.updates, self.init, self.inputs = {}, {}, {}
        self.horizon = None
        if _BAD_CHAR.search("".join(self.toks)):
            i = next(i for i, t in enumerate(self.toks) if _BAD_CHAR.match(t))
            raise self.error(DslSyntaxError, f"unexpected character {self.toks[i]!r}", i)

    def error(self, cls, message: str, i: int) -> ParseError:
        """cls(message) at the line and col (from 1) where token i starts,
        or at the end of the source for the final "" token."""
        src = self.src
        starts = (m.start() for m in _TOKEN_RE.finditer(src) if m.group(1) is not None)
        pos = next(itertools.islice(starts, i, None), len(src))
        return cls(message, src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos))

    def expect(self, want: str) -> str:
        """The next token, which must be `want`; "ident" and "int" stand
        for any identifier or integer."""
        t = self.toks[self.i]
        if not (_is_ident(t) if want == "ident" else t.isdecimal() if want == "int"
                else t == want):
            raise self.error(DslSyntaxError, f"expected {want!r}, got {t!r}", self.i)
        self.i += 1
        return t

    def system(self) -> SystemSpec:
        toks = self.toks
        while t := toks[self.i]:
            start = self.i
            self.i += 1
            if t == "state" or t == "input":
                names = [self.expect("ident")]
                while toks[self.i] == ",":
                    self.i += 1
                    names.append(self.expect("ident"))
                self.expect(";")
                dest = self.state_vars if t == "state" else self.input_vars
                for name in names:
                    if name in self.state_vars or name in self.input_vars:
                        raise self.error(DuplicateRuleError, f"variable {name!r} declared twice",
                                         start)
                    dest.append(name)
            elif t == "init" or t == "in":
                at = self.i
                name = self.expect("ident")
                self.expect("=")
                dom = self.domain()
                self.expect(";")
                pool = self.state_vars if t == "init" else self.input_vars
                dest = self.init if t == "init" else self.inputs
                if name not in pool:
                    kindname = "state" if t == "init" else "input"
                    raise self.error(UnknownIdentifierError,
                                     f"{name!r} is not a declared {kindname} variable", at)
                if name in dest:
                    raise self.error(DuplicateRuleError, f"domain for {name!r} given twice", at)
                dest[name] = dom
            elif t == "horizon":
                at = self.i
                n = self.expect("int")
                self.expect(";")
                if self.horizon is not None:
                    raise self.error(DuplicateRuleError, "horizon given twice", at)
                self.horizon = int(n)
            elif _is_ident(t):
                self.expect("'")
                self.expect("=")
                if t not in self.state_vars:
                    raise self.error(UnknownIdentifierError,
                                     f"rule for undeclared state variable {t!r}", start)
                if t in self.updates:
                    raise self.error(DuplicateRuleError, f"duplicate rule for {t!r}", start)
                expr = self.expr()
                self.expect(";")
                self.updates[t] = expr
            else:
                raise self.error(DslSyntaxError, f"unexpected {t!r}", start)

        for v in self.state_vars:
            if v not in self.updates:
                raise self.error(DslSyntaxError, f"state variable {v!r} has no update rule", self.i)
            if v not in self.init:
                raise self.error(DslSyntaxError, f"state variable {v!r} has no init domain", self.i)
        for v in self.input_vars:
            if v not in self.inputs:
                raise self.error(DslSyntaxError, f"input variable {v!r} has no domain", self.i)
        return SystemSpec(tuple(self.state_vars), tuple(self.input_vars), self.updates,
                          self.init, self.inputs, self.horizon or 0)

    def domain(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        if t == "0" or t == "1":
            return (int(t),)
        if t == "{":
            vals = []
            while True:
                v = self.expect("int")
                if v != "0" and v != "1":
                    raise self.error(DslSyntaxError, f"domain bits must be 0 or 1, got {v}",
                                     self.i - 1)
                vals.append(int(v))
                if self.toks[self.i] != ",":
                    break
                self.i += 1
            self.expect("}")
            return tuple(sorted(set(vals)))
        raise self.error(DslSyntaxError, f"expected 0, 1 or {{...}}, got {t!r}", self.i - 1)

    def expr(self) -> BoolExpr:
        """One expression by precedence climbing: each operand is pushed
        with the operator after it, and an operator first reduces every
        entry on the stack that binds at least as tightly (all binary
        operators associate to the left)."""
        toks, i = self.toks, self.i
        operands = []           # left operands of the pending binary operators
        pending = []            # the operator stack
        while True:
            t = toks[i]
            i += 1
            if t == "!":
                pending.append(_BANG)
                continue
            if t == "(":
                pending.append(_OPEN)
                continue
            if t == "0" or t == "1":
                e = Const(int(t))
            elif t.isidentifier() and t not in _KEYWORDS:
                primed = toks[i] == "'"
                if primed:
                    i += 1
                    if t not in self.state_vars:
                        raise self.error(UnknownIdentifierError,
                                         f"primed reference to non-state variable {t!r}", i - 2)
                    if t not in self.updates:
                        raise self.error(CyclicReferenceError,
                                         f"{t}' is used before its rule is defined", i - 2)
                elif t not in self.state_vars and t not in self.input_vars:
                    raise self.error(UnknownIdentifierError, f"unknown variable {t!r}", i - 1)
                e = Var(t, primed)
            elif t.isdecimal():
                raise self.error(DslSyntaxError, f"only 0 and 1 are constants, got {t}", i - 1)
            else:
                raise self.error(DslSyntaxError, f"expected an operand, got {t!r}", i - 1)
            # after an operand: reduce, close parentheses, or end
            while True:
                t = toks[i]
                level, node = entry = _BINARY.get(t, _END)
                while pending and pending[-1][0] >= level:
                    op = pending.pop()[1]
                    e = Not(e) if op is Not else op(operands.pop(), e)
                if node is not None:
                    i += 1
                    operands.append(e)
                    pending.append(entry)
                    break
                if not pending:
                    self.i = i
                    return e
                if t != ")":
                    raise self.error(DslSyntaxError, f"expected ')', got {t!r}", i)
                i += 1
                pending.pop()


def parse_system(text: str) -> SystemSpec:
    return _Parser(text).system()


# -------------------------------------------------------------- evaluation


_BIT_OPS = {
    "xor": operator.xor, "and": operator.and_, "or": operator.or_,
    "nand": lambda a, b: 1 - (a & b), "nor": lambda a, b: 1 - (a | b),
    "xnor": lambda a, b: 1 - (a ^ b),
}


def eval_point(e: BoolExpr, env: Mapping[str, int]) -> int:
    """Evaluate over plain bits; primed names are looked up as "name'"."""
    match e:
        case Const(v):
            return v
        case Var(name, primed):
            key = name + "'" if primed else name
            if key not in env:
                raise EvalError(f"unbound variable {key!r}")
            return env[key]
        case Not(a):
            return 1 - eval_point(a, env)
        case Binary(a, b):
            return _BIT_OPS[e.op](eval_point(a, env), eval_point(b, env))
    raise EvalError(f"not an expression node: {e!r}")


def eval_zonotope(e: BoolExpr, env: Mapping[str, "zn.LogicalZonotope"]) -> "zn.LogicalZonotope":
    """Evaluate with Minkowski operations over zonotope bindings.

    The result of every binary op goes through `zonotope.scalar_normalize`:
    a 1-bit result keeps gamma <= 1 (its point set is unchanged), so nested
    ANDs cannot multiply generators; results of any other dimension keep
    their generators as the Minkowski op made them.
    """
    match e:
        case Const(v):
            return zn.singleton(BitVec(1, v))
        case Var(name, primed):
            key = name + "'" if primed else name
            if key not in env:
                raise EvalError(f"unbound variable {key!r}")
            return env[key]
        case Not(a):
            return zn.mink_not(eval_zonotope(a, env))
        case Binary(a, b):
            # looked up on the module per call, not bound at import, so a
            # tracer that replaces zonotope's functions sees every call
            mink = getattr(zn, "mink_" + e.op)
            return zn.scalar_normalize(mink(eval_zonotope(a, env), eval_zonotope(b, env)))
    raise EvalError(f"not an expression node: {e!r}")


# ----------------------------------------------------------------- lowering


def lower_rules(spec: SystemSpec):
    """Lower spec's update rules once into straight-line code over slots.

    Returns the tuples `(names, code)`. Slot i is named `names[i]`: the state
    variables, the inputs, the next state ("x'"), the constants "0" and
    "1", then one slot "%j" per operator node, holding the value that
    instruction j computes. Each instruction is `(dst, op, a, b)`: `op` is
    "not" (b is None), one of the binary op names, or "copy" (b is None).
    Every rule's instructions come in declaration order, its operands
    before their operator, and end with a copy into its primed slot. The
    rules are walked with an explicit stack, so no rule is too deep to
    lower. A name that `eval_point` would find unbound at that point (an
    unknown variable, or a primed one whose rule comes later) raises
    EvalError, as does a state variable without a rule.
    """
    names = [*spec.state_vars, *spec.input_vars, *(v + "'" for v in spec.state_vars),
             "0", "1"]
    slots = {name: i for i, name in enumerate(names)}
    bound = {*spec.state_vars, *spec.input_vars}
    code = []
    for v, root in spec.updates.items():
        values = []                # slots of finished operands, last on top
        todo = [root]              # nodes to lower, and op names to emit
        while todo:
            e = todo.pop()
            match e:
                case Const(c):
                    values.append(slots[str(c)])
                case Var(name, primed):
                    key = name + "'" if primed else name
                    if key not in bound:
                        raise EvalError(f"unbound variable {key!r}")
                    values.append(slots[key])
                case Not(a):
                    todo += ["not", a]
                case Binary(a, b):
                    todo += [e.op, b, a]
                case str():
                    b = values.pop() if e != "not" else None
                    a = values.pop()
                    values.append(len(names))
                    code.append((len(names), e, a, b))
                    names.append(f"%{len(code) - 1}")
                case _:
                    raise EvalError(f"not an expression node: {e!r}")
        code.append((slots[v + "'"], "copy", values.pop(), None))
        bound.add(v + "'")
    for v in spec.state_vars:
        if v + "'" not in bound:
            raise EvalError(f"state variable {v!r} has no update rule")
    return tuple(names), tuple(code)


# ------------------------------------------------------------ pretty print

_LEVEL = {node: level for level, ops in enumerate(_PRECEDENCE, 1) for node in ops.values()}
_SYM = {node: tok for ops in _PRECEDENCE for tok, node in ops.items()}


def print_expr(e: BoolExpr, parent_level: int = 0) -> str:
    """e's source text with only the parentheses the parser needs; the
    result is wrapped in them too when e binds no tighter than
    parent_level. The tree is walked with an explicit stack, so no rule is
    too deep to print."""
    out = []
    todo = [(e, parent_level)]     # (node, its parent's level), or text to emit
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, parent = item
        match e:
            case Const(v):
                out.append(str(v))
            case Var(name, primed):
                out.append(name + "'" if primed else name)
            case Not(a):
                out.append("!")
                todo.append((a, len(_PRECEDENCE)))
            case _:
                lvl = _LEVEL[type(e)]
                if lvl <= parent:
                    out.append("(")
                    todo.append(")")
                # the left operand may sit at the same level (left
                # associativity), the right one must bind strictly tighter
                # to re-parse identically
                todo += [(e.b, lvl), f" {_SYM[type(e)]} ", (e.a, lvl - 1)]
    return "".join(out)


def _print_domain(dom: tuple) -> str:
    if len(dom) == 1:
        return str(dom[0])
    return "{" + ",".join(str(v) for v in dom) + "}"


def print_system(spec: SystemSpec) -> str:
    lines = []
    if spec.state_vars:
        lines.append("state " + ", ".join(spec.state_vars) + ";")
    if spec.input_vars:
        lines.append("input " + ", ".join(spec.input_vars) + ";")
    for v, e in spec.updates.items():
        lines.append(f"{v}' = {print_expr(e)};")
    for v in spec.state_vars:
        lines.append(f"init {v} = {_print_domain(spec.init[v])};")
    for v in spec.input_vars:
        lines.append(f"in {v} = {_print_domain(spec.inputs[v])};")
    lines.append(f"horizon {spec.horizon};")
    return "\n".join(lines) + "\n"
