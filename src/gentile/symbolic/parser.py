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

Identifiers outside :data:`DEFAULT_ALPHABET` are parse errors (catches
typos in identity entry).  Input nested or built
deeper than :data:`MAX_DEPTH` levels, an operator exponent above
:data:`MAX_POWER`, and a ``sumperm`` of more than :data:`MAX_PERM_OPERANDS`
operands are parse errors too.  A power of a scalar is folded into one
exact scalar, unless a coefficient of the power may have more than
``_MAX_DIGITS`` digits, which is a parse error at its ``^``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .._record import Record
from ..errors import ParseError
from ..laurent import LaurentScalar
from .expr import (DEFAULT_ALPHABET, AntiCommutator, Commutator, Expr, Gen,
                   Mul, NBracket, Pow, ProductSum, Scal, Add, Sub)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<tag>_n)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+^/(),\[\]{}])
""", re.VERBOSE)


# Python's default limit on the digits int() converts from a string, and
# the bits of 10^_MAX_DIGITS.
_MAX_DIGITS = 4300
_MAX_BITS = (10 ** _MAX_DIGITS).bit_length()


class _Token(Record):
    __slots__ = _fields = ("kind", "text", "pos")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "int" and m.end() - pos > _MAX_DIGITS:
            raise ParseError(f"integer longer than {_MAX_DIGITS} digits", pos)
        if kind != "ws":
            tok_kind = m.group() if kind == "op" else kind
            tokens.append(_Token(tok_kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


_TERM_START = {"int", "ident", "(", "[", "{"}

# Deepest bracket nesting and deepest syntax tree accepted.  The parser
# takes four frames per nesting level, and fold one to four per tree
# level, so every walk stays well inside Python's default recursion limit
# of 1000.
MAX_DEPTH = 100

# Largest operator exponent accepted.  u^K costs K products in every
# algebra the tree is folded over; the catalog and the benchmark
# expressions use at most 4.
MAX_POWER = 64

# Most operands accepted by sumperm.  A sumperm of k operands costs k!
# products in every algebra the tree is folded over; the catalog builds none.
MAX_PERM_OPERANDS = 6


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

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

    def deeper(self, tok, *depths) -> int:
        """Depth of a node over children of the given depths."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels",
                             tok.pos)
        return depth

    # Each parse_* method returns (node, depth of node).

    def parse_expr(self):
        # one nesting level per opening token, reported at that token
        self.nesting = self.deeper(self.tokens[self.i - 1], self.nesting)
        node, depth = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs, rhs_depth = self.parse_term()
            depth = self.deeper(op, depth, rhs_depth)
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        self.nesting -= 1
        return node, depth

    def parse_term(self):
        node, depth = self.parse_factor()
        while self.peek().kind in _TERM_START:
            tok = self.peek()
            rhs, rhs_depth = self.parse_factor()
            depth = self.deeper(tok, depth, rhs_depth)
            node = Mul(node, rhs)
        return node, depth

    def parse_factor(self):
        base, depth = self.parse_base()
        if self.peek().kind == "^":
            tok = self.advance()
            k_tok = self.expect("int")
            k = int(k_tok.text)
            if k > MAX_POWER:
                raise ParseError(f"exponent above {MAX_POWER}", k_tok.pos)
            if type(base) is Scal:
                # so that the matrix pipeline reads one q table entry
                # rather than raising a scalar matrix to the power; eval
                # could not print a longer coefficient anyway
                if k * base.value._power_bits() > _MAX_BITS:
                    raise ParseError("a power of a scalar may exceed "
                                     f"{_MAX_DIGITS} digits", tok.pos)
                return Scal(base.value ** k), depth
            return Pow(base, k), self.deeper(tok, depth)
        return base, depth

    def parse_base(self):
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
                num = Fraction(num, den)
            return Scal(LaurentScalar.from_rational(num)), 1
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in ("sumperm", "sumcyc"):
                return self.parse_sum_node(tok)
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
                        return Scal(LaurentScalar.q_power(sign * k)), 1
                    self.i = save  # '^' belongs to an outer power
                return Scal(LaurentScalar.q_power(1)), 1
            if name not in DEFAULT_ALPHABET:
                raise ParseError(f"unknown generator {name!r}", tok.pos,
                                 {"declared generator"})
            return Gen(name), 1
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind in ("[", "{"):
            self.advance()
            left, left_depth = self.parse_expr()
            self.expect(",")
            right, right_depth = self.parse_expr()
            self.expect("]" if tok.kind == "[" else "}")
            depth = self.deeper(tok, left_depth, right_depth)
            if tok.kind == "{":
                return AntiCommutator(left, right), depth
            if self.peek().kind == "tag":
                self.advance()
                return NBracket(left, right), depth
            return Commutator(left, right), depth
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.pos, _TERM_START)

    def parse_sum_node(self, tok):
        self.expect("(")
        operands = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            operands.append(self.parse_expr())
        self.expect(")")
        if tok.text == "sumperm" and len(operands) > MAX_PERM_OPERANDS:
            raise ParseError(
                f"sumperm of more than {MAX_PERM_OPERANDS} operands", tok.pos)
        nodes, depths = zip(*operands)
        return (ProductSum(nodes, tok.text == "sumcyc"),
                self.deeper(tok, *depths))


def parse(text: str) -> Expr:
    """Parse an operator expression over the generator alphabet."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, {"eof"})
    return node
