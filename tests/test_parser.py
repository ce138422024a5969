"""The DSL parser against the recursive-descent parser it replaced.

`reference_parse_system` below is that parser, kept as it was (a
regex-per-token lexer with line and column on every token, and one
recursive call per precedence level and per nesting level). The tests
check that `parse_system` gives the same specs, and raises the same
errors at the same places, on the benchmark's pool, the intersection
system, generated systems and mutated sources; then that it, the
printer, `lower_rules` and both reach backends take rules nested far past
the recursion limit.
"""

import os
import random
import re
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from logzono.casestudies import INTERSECTION_SOURCE
from logzono.dsl import (_KEYWORDS, _PRECEDENCE, BoolExpr, Const, Not, SystemSpec, Var,
                         lower_rules, parse_system, print_system)
from logzono.errors import (CyclicReferenceError, DslSyntaxError, DuplicateRuleError,
                            ParseError, UnknownIdentifierError)
from logzono.reach import check_containment, reach
from tests_util_strategies import systems

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


# ------------------------------------------------------- reference parser

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[{}(),;=&|^!'])
""", re.VERBOSE)

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


def reference_parse_system(text: str) -> SystemSpec:
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


# ------------------------------------------------- same specs, same errors


def _outcome(parse, src):
    """The spec and its rule order, or the error's type, text and place."""
    try:
        spec = parse(src)
    except ParseError as e:
        return type(e), str(e), e.line, e.col
    return spec, list(spec.updates)


def _pool_sources():
    sys.path.insert(0, PERFBENCH)
    try:
        import reference
    finally:
        sys.path.remove(PERFBENCH)
    return [src for src, _ in reference.random_pool()]


def test_same_specs_on_pool_and_intersection():
    for src in [*_pool_sources(), INTERSECTION_SOURCE]:
        got = _outcome(parse_system, src)
        assert got == _outcome(reference_parse_system, src)
        assert isinstance(got[0], SystemSpec)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_same_specs_on_generated_systems(spec):
    src = print_system(spec)
    assert _outcome(parse_system, src) == _outcome(reference_parse_system, src)


# Tokens spliced into sources: unexpected characters, keywords, operators,
# punctuation, out-of-range and unknown names, whitespace and a comment.
_SPLICE = ["@", "$", "é", "\f", "state", "input", "init", "in", "horizon", "nand", "nor",
           "xnor", "(", ")", "&", "|", "^", "!", ";", "'", "=", ",", "{", "}", "2", "10",
           "x0", "x1'", "x99", "u0", "u9", "0", "1", "\t", "\n", "# note\n"]


def _mutate(rng, src):
    """src with one token replaced, deleted, or preceded by another, or
    cut off before a token."""
    starts = [m.span() for m in re.finditer(r"[A-Za-z_]\w*|\d+|\S", src)]
    a, b = rng.choice(starts)
    kind = rng.randrange(4)
    if kind == 0:
        return src[:a] + rng.choice(_SPLICE) + src[b:]
    if kind == 1:
        return src[:a] + src[b:]
    if kind == 2:
        return src[:a] + rng.choice(_SPLICE) + " " + src[a:]
    return src[:a]


def test_same_errors_on_mutated_sources():
    rng = random.Random(2020)
    pool = _pool_sources()
    messages = []
    for _ in range(3000):
        src = _mutate(rng, rng.choice(pool))
        got = _outcome(parse_system, src)
        assert got == _outcome(reference_parse_system, src), src
        if not isinstance(got[0], SystemSpec):
            messages.append(got[1])
    # the mutations reach every kind of failure the parser reports
    for pattern in [r"unexpected character", r"expected an operand, got '(nand|state|in)'",
                    r"expected '\)'", r"expected an operand, got ';'",
                    r"got ''", r"unknown variable", r"declared twice",
                    r"only 0 and 1 are constants", r"used before its rule"]:
        assert any(re.search(pattern, m) for m in messages), pattern


@pytest.mark.parametrize("src, error, line, col", [
    ("state x;\nx' = x & @;", DslSyntaxError, 2, 10),
    ("state x; x' = & x; # ok\n\t$", DslSyntaxError, 2, 2),
    ("state x;\n  x' = (x & !(x ^ x);\ninit x = 0;", DslSyntaxError, 2, 21),
    ("state x;\nx' = x nand;", DslSyntaxError, 2, 12),
    ("state x;\nx' = !", DslSyntaxError, 2, 7),
    ("state x;\nx' = ((x)", DslSyntaxError, 2, 10),
    ("state x;\nx' = x | (\n", DslSyntaxError, 3, 1),
    ("state x, nor;", DslSyntaxError, 1, 10),
    ("state x;\nx' = x & in;", DslSyntaxError, 2, 10),
    ("state x, x;", DuplicateRuleError, 1, 1),
    ("state a, b;\na' = b';", CyclicReferenceError, 2, 6),
    ("input u;\nstate x;\nx' = u';", UnknownIdentifierError, 3, 6),
])
def test_error_places(src, error, line, col):
    with pytest.raises(error) as e:
        parse_system(src)
    assert (e.value.line, e.value.col) == (line, col)
    assert _outcome(parse_system, src) == _outcome(reference_parse_system, src)


# ------------------------------------------------------ no depth limit

DEPTH = 10_000


def _deep_source(depth):
    """Rules nested `depth` deep that reduce to shallow ones: parentheses,
    "!"s with and without parentheses, a right-nested & chain, and a
    left-nested ^ chain of an even number of u's."""
    return (
        "state a, b, c, d, e;\ninput u;\n"
        f"a' = {'(' * depth}a{')' * depth};\n"
        f"b' = {'!' * depth}b;\n"
        f"c' = {'!(' * depth}c{')' * depth};\n"
        f"d' = {'(u & ' * depth}d{')' * depth};\n"
        f"e' = {'u ^ ' * depth}e;\n"
        "init a = {0,1}; init b = 0; init c = 1; init d = {0,1}; init e = {0,1};\n"
        "in u = {0,1};\n")


def test_printer_and_parser_take_deep_rules():
    spec = parse_system(_deep_source(DEPTH))
    printed = print_system(spec)
    again = parse_system(printed)
    assert print_system(again) == printed
    # dataclass == recurses through a deep AST, so compare lowered programs
    assert lower_rules(again) == lower_rules(spec)
    assert printed.count("(") == DEPTH - 1       # only d's chain needs them
    assert f"b' = {'!' * DEPTH}b;" in printed


def test_deep_rules_lower_and_reach_like_shallow_ones():
    deep, shallow = parse_system(_deep_source(DEPTH)), parse_system(_deep_source(2))
    for backend in ("zonotope", "explicit"):
        got, want = reach(deep, 4, backend), reach(shallow, 4, backend)
        assert [s.var_sets for s in got.steps] == [s.var_sets for s in want.steps]
        assert ([s.joint.words() for s in got.steps if s.joint is not None]
                == [s.joint.words() for s in want.steps if s.joint is not None])
    assert check_containment(reach(deep, 4, "zonotope"), reach(deep, 4, "explicit")).ok
