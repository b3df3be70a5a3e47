"""Recursive-descent parser for operator expressions.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor factor*                      juxtaposition = product
    factor := base ('^' INT)?
    base   := SCALAR | IDENT | '(' expr ')'
            | '[' expr ',' expr ']' '_n'?         tagged = deformed bracket
            | '{' expr ',' expr '}'
            | ('sumperm'|'sumcyc') '(' expr (',' expr)* ')'
    SCALAR := INT ('/' INT)? | 'q' ('^' '-'? INT)?

The generator alphabet is declared per call; identifiers outside it are
parse errors (catches typos in identity entry).
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ParseError
from ..laurent import LaurentScalar
from .expr import (DEFAULT_ALPHABET, AntiCommutator, Commutator, Expr, Gen,
                   Mul, NBracket, Pow, Scal, Add, Sub, SumCyc, SumPerm)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<tag>_n)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+^/(),\[\]{}])
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.pos})"


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tok_kind = m.group() if kind == "op" else kind
            tokens.append(_Token(tok_kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


_TERM_START = {"int", "ident", "(", "[", "{"}


class _Parser:
    def __init__(self, tokens, alphabet):
        self.tokens = tokens
        self.i = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.pos, {kind})
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in _TERM_START:
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "^":
            self.advance()
            k = int(self.expect("int").text)
            return Pow(base, k)
        return base

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("int")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
                return Scal(LaurentScalar.from_rational(Fraction(num, den)))
            return Scal(LaurentScalar.from_rational(num))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in ("sumperm", "sumcyc"):
                return self.parse_sum_node(name)
            if name == "q":
                # 'q', 'q^2', or 'q^-2' are scalars
                if self.peek().kind == "^":
                    save = self.i
                    self.advance()
                    sign = 1
                    if self.peek().kind == "-":
                        self.advance()
                        sign = -1
                    if self.peek().kind == "int":
                        k = int(self.advance().text)
                        return Scal(LaurentScalar.q_power(sign * k))
                    self.i = save  # '^' belongs to an outer power
                return Scal(LaurentScalar.q_power(1))
            if name not in self.alphabet:
                raise ParseError(f"unknown generator {name!r}", tok.pos,
                                 {"declared generator"})
            return Gen(name)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            if self.peek().kind == "tag":
                self.advance()
                return NBracket(left, right)
            return Commutator(left, right)
        if tok.kind == "{":
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("}")
            return AntiCommutator(left, right)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.pos, _TERM_START)

    def parse_sum_node(self, name) -> Expr:
        self.expect("(")
        operands = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            operands.append(self.parse_expr())
        self.expect(")")
        cls = SumPerm if name == "sumperm" else SumCyc
        return cls(tuple(operands))


def parse(text: str, alphabet=DEFAULT_ALPHABET) -> Expr:
    """Parse an operator expression over the declared generator alphabet."""
    parser = _Parser(_tokenize(text), frozenset(alphabet))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, {"eof"})
    return node
