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

`lower_rules` turns a system's rules into straight-line instructions over
numbered slots, without recursion. Both reach backends run them: the
zonotope backend on scalar zonotope codes, the explicit backend on bits.
`eval_point` and `eval_zonotope` stay the references those backends are
tested against, and `eval_zonotope` is the evaluator for zonotopes of any
dimension.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

from . import zonotope as zn
from .errors import (CyclicReferenceError, DslSyntaxError, DuplicateRuleError,
                     EvalError, UnknownIdentifierError)
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


# ------------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[{}(),;=&|^!'])
""", re.VERBOSE)

_KEYWORDS = {"state", "input", "init", "in", "horizon", "nand", "nor", "xnor"}


@dataclass
class _Tok:
    kind: str   # 'ident', 'int', 'punct', 'kw', 'eof'
    text: str
    line: int
    col: int


def _lex(src: str):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise DslSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "ident" and text in _KEYWORDS:
                kind = "kw"
            toks.append(_Tok(kind, text, line, col))
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


# ------------------------------------------------------------------ parser


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, text=None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise DslSyntaxError(f"expected {want!r}, got {t.text!r}", t.line, t.col)
        return self.next()

    # expression grammar, loosest to tightest: the _PRECEDENCE levels, then
    # ! and atoms; every binary operator is left associative
    def expr(self, ctx, level: int = 0) -> BoolExpr:
        if level == len(_PRECEDENCE):
            return self.unary(ctx)
        ops = _PRECEDENCE[level]
        e = self.expr(ctx, level + 1)
        while self.peek().text in ops:
            node = ops[self.next().text]
            e = node(e, self.expr(ctx, level + 1))
        return e

    def unary(self, ctx) -> BoolExpr:
        t = self.peek()
        if t.text == "!":
            self.next()
            return Not(self.unary(ctx))
        return self.atom(ctx)

    def atom(self, ctx) -> BoolExpr:
        t = self.next()
        if t.text == "(":
            e = self.expr(ctx)
            self.expect("punct", ")")
            return e
        if t.kind == "int":
            if t.text not in ("0", "1"):
                raise DslSyntaxError(f"only 0 and 1 are constants, got {t.text}", t.line, t.col)
            return Const(int(t.text))
        if t.kind == "ident":
            primed = False
            if self.peek().text == "'":
                self.next()
                primed = True
            ctx.check_var(t, primed)
            return Var(t.text, primed)
        raise DslSyntaxError(f"expected an operand, got {t.text!r}", t.line, t.col)


class _SystemBuilder:
    def __init__(self):
        self.state_vars = []
        self.input_vars = []
        self.updates = {}
        self.init = {}
        self.inputs = {}
        self.horizon = 0
        self.saw_horizon = False

    def check_var(self, tok: _Tok, primed: bool):
        name = tok.text
        if primed:
            if name not in self.state_vars:
                raise UnknownIdentifierError(
                    f"primed reference to non-state variable {name!r}", tok.line, tok.col)
            if name not in self.updates:
                raise CyclicReferenceError(
                    f"{name}' is used before its rule is defined", tok.line, tok.col)
        elif name not in self.state_vars and name not in self.input_vars:
            raise UnknownIdentifierError(f"unknown variable {name!r}", tok.line, tok.col)


def parse_system(text: str) -> SystemSpec:
    toks = _lex(text)
    p = _Parser(toks)
    b = _SystemBuilder()

    while p.peek().kind != "eof":
        t = p.peek()
        if t.kind == "kw" and t.text in ("state", "input"):
            p.next()
            names = [p.expect("ident").text]
            while p.peek().text == ",":
                p.next()
                names.append(p.expect("ident").text)
            p.expect("punct", ";")
            dest = b.state_vars if t.text == "state" else b.input_vars
            for nt in names:
                if nt in b.state_vars or nt in b.input_vars:
                    raise DuplicateRuleError(f"variable {nt!r} declared twice", t.line, t.col)
                dest.append(nt)
        elif t.kind == "kw" and t.text in ("init", "in"):
            p.next()
            name_tok = p.expect("ident")
            p.expect("punct", "=")
            dom = _parse_domain(p)
            p.expect("punct", ";")
            pool = b.state_vars if t.text == "init" else b.input_vars
            dest = b.init if t.text == "init" else b.inputs
            if name_tok.text not in pool:
                kindname = "state" if t.text == "init" else "input"
                raise UnknownIdentifierError(
                    f"{name_tok.text!r} is not a declared {kindname} variable",
                    name_tok.line, name_tok.col)
            if name_tok.text in dest:
                raise DuplicateRuleError(
                    f"domain for {name_tok.text!r} given twice", name_tok.line, name_tok.col)
            dest[name_tok.text] = dom
        elif t.kind == "kw" and t.text == "horizon":
            p.next()
            n_tok = p.expect("int")
            p.expect("punct", ";")
            if b.saw_horizon:
                raise DuplicateRuleError("horizon given twice", n_tok.line, n_tok.col)
            b.horizon = int(n_tok.text)
            b.saw_horizon = True
        elif t.kind == "ident":
            name_tok = p.next()
            p.expect("punct", "'")
            p.expect("punct", "=")
            if name_tok.text not in b.state_vars:
                raise UnknownIdentifierError(
                    f"rule for undeclared state variable {name_tok.text!r}",
                    name_tok.line, name_tok.col)
            if name_tok.text in b.updates:
                raise DuplicateRuleError(
                    f"duplicate rule for {name_tok.text!r}", name_tok.line, name_tok.col)
            expr = p.expr(b)
            p.expect("punct", ";")
            b.updates[name_tok.text] = expr
        else:
            raise DslSyntaxError(f"unexpected {t.text!r}", t.line, t.col)

    eof = p.peek()
    for v in b.state_vars:
        if v not in b.updates:
            raise DslSyntaxError(f"state variable {v!r} has no update rule", eof.line, eof.col)
        if v not in b.init:
            raise DslSyntaxError(f"state variable {v!r} has no init domain", eof.line, eof.col)
    for v in b.input_vars:
        if v not in b.inputs:
            raise DslSyntaxError(f"input variable {v!r} has no domain", eof.line, eof.col)

    return SystemSpec(tuple(b.state_vars), tuple(b.input_vars), dict(b.updates),
                      dict(b.init), dict(b.inputs), b.horizon)


def _parse_domain(p: _Parser) -> tuple:
    t = p.next()
    if t.kind == "int" and t.text in ("0", "1"):
        return (int(t.text),)
    if t.text == "{":
        vals = []
        while True:
            v = p.expect("int")
            if v.text not in ("0", "1"):
                raise DslSyntaxError(f"domain bits must be 0 or 1, got {v.text}", v.line, v.col)
            vals.append(int(v.text))
            if p.peek().text == ",":
                p.next()
                continue
            break
        p.expect("punct", "}")
        return tuple(sorted(set(vals)))
    raise DslSyntaxError(f"expected 0, 1 or {{...}}, got {t.text!r}", t.line, t.col)


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

    Returns `(names, code)`. Slot i is named `names[i]`: the state
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
    return tuple(names), code


# ------------------------------------------------------------ pretty print

_LEVEL = {node: level for level, ops in enumerate(_PRECEDENCE, 1) for node in ops.values()}
_SYM = {node: tok for ops in _PRECEDENCE for tok, node in ops.items()}


def print_expr(e: BoolExpr, parent_level: int = 0) -> str:
    match e:
        case Const(v):
            return str(v)
        case Var(name, primed):
            return name + ("'" if primed else "")
        case Not(a):
            return "!" + print_expr(a, len(_PRECEDENCE))
    lvl = _LEVEL[type(e)]
    # left operand may sit at the same level (left associativity), the right
    # operand needs strictly tighter binding to re-parse identically
    s = f"{print_expr(e.a, lvl - 1)} {_SYM[type(e)]} {print_expr(e.b, lvl)}"
    return f"({s})" if lvl <= parent_level else s


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
