"""Text syntax for operators.

Grammar (whitespace insensitive):

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom ('^' uint)?
    atom    := number | symbol | '(' expr ')'
    symbol  := ('z'|'w'|'dz'|'dw') '[' uint ']' | 'hbar' | 'i'
    number  := decimal | int '/' uint        (exact rational conversion)
    complex := '(' signed_number ',' signed_number ')'

'*' composes (normal-ordered product), '^' binds tighter than '*', unary
minus is allowed before a factor, 'i' is (0,1) and 'hbar' expands to the
configured rational.  Decimal literals convert exactly to rationals (0.5 ->
1/2); the n/d form covers rationals with no finite decimal expansion so that
the printer's output always parses back to the same canonical operator.
Exponents above 64 raise ExponentOverflow.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    Flavor,
    MultiIndex,
    OperatorPolynomial,
    RationalComplex,
    Var,
    compose,
    var_name,
)

MAX_EXPONENT = 64


class SourceSpan(NamedTuple):
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: tuple[int, int], expected: tuple[str, ...]):
        if not expected:
            raise AssertionError("ParseError needs at least one expected token")
        super().__init__(f"{message} at {span[0]}..{span[1]} "
                         f"(expected {', '.join(expected)})")
        self.span = SourceSpan(int(span[0]), int(span[1]))
        self.expected = tuple(expected)


class ExponentOverflow(ParseError):
    pass


class _Token(NamedTuple):
    kind: str   # number | name | one of +-*^()[],/ | end
    text: str
    start: int
    end: int


_TOKEN = re.compile(r"(?P<number>[0-9]+(?:\.[0-9]+)?)|(?P<name>[A-Za-z]+)"
                    r"|[-+*^()\[\],/]|(?P<bad>\S)")


def _tokenize(text: str) -> list[_Token]:
    toks = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.span(),
                             ("number", "symbol", "operator"))
        toks.append(_Token(m.lastgroup or m[0], m[0], *m.span()))
    toks.append(_Token("end", "", len(text), len(text)))
    return toks


_ATOM_EXPECTED = ("number", "'z['", "'w['", "'dz['", "'dw['", "'hbar'", "'i'", "'('")


class _Parser:
    def __init__(self, tokens: list[_Token], hbar: Fraction):
        self.toks = tokens
        self.i = 0
        self.hbar = hbar

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {t.kind or 'input'} {t.text!r}",
                             (t.start, t.end), expected)
        return self.advance()

    # numbers ----------------------------------------------------------

    def uint(self, what: str) -> int:
        t = self.expect("number", (f"unsigned integer ({what})",))
        if "." in t.text:
            raise ParseError(f"{what} must be an integer, got {t.text!r}",
                             (t.start, t.end), (f"unsigned integer ({what})",))
        return int(t.text)

    def number(self) -> Fraction:
        t = self.expect("number", ("number",))
        value = Fraction(t.text)  # exact decimal-to-rational
        if self.peek().kind == "/":
            self.advance()
            d = self.expect("number", ("nonzero denominator",))
            dv = Fraction(d.text)
            if dv == 0:
                raise ParseError("zero denominator", (d.start, d.end),
                                 ("nonzero denominator",))
            value /= dv
        return value

    def signed_number(self) -> Fraction:
        sign = 1
        while self.peek().kind in ("+", "-"):
            if self.advance().kind == "-":
                sign = -sign
        return sign * self.number()

    # grammar ----------------------------------------------------------

    def expr(self) -> OperatorPolynomial:
        out = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> OperatorPolynomial:
        out = self.factor()
        while self.peek().kind == "*":
            self.advance()
            out = compose(out, self.factor())
        return out

    def factor(self) -> OperatorPolynomial:
        if self.peek().kind == "-":
            self.advance()
            return -self.factor()
        out = self.atom()
        if self.peek().kind == "^":
            self.advance()
            t = self.peek()
            e = self.uint("exponent")
            if e > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} exceeds {MAX_EXPONENT}",
                                       (t.start, t.end),
                                       (f"exponent <= {MAX_EXPONENT}",))
            out = _power(out, e)
        return out

    def atom(self) -> OperatorPolynomial:
        t = self.peek()
        if t.kind == "number":
            return OperatorPolynomial.identity(RationalComplex(self.number()))
        if t.kind == "name":
            return self.symbol()
        if t.kind == "(":
            self.advance()
            lit = self.try_complex_literal()
            if lit is not None:
                return OperatorPolynomial.identity(lit)
            inner = self.expr()
            self.expect(")", ("')'",))
            return inner
        raise ParseError(f"unexpected {t.kind or 'input'} {t.text!r}",
                         (t.start, t.end), _ATOM_EXPECTED)

    def try_complex_literal(self) -> RationalComplex | None:
        # After '(': attempt `signed_number ',' signed_number ')'`, else
        # backtrack and let the caller parse a parenthesized expression.
        save = self.i
        try:
            re = self.signed_number()
        except ParseError:
            self.i = save
            return None
        if self.peek().kind != ",":
            self.i = save
            return None
        self.advance()
        im = self.signed_number()
        self.expect(")", ("')'",))
        return RationalComplex(re, im)

    def symbol(self) -> OperatorPolynomial:
        t = self.advance()
        name = t.text
        if name == "hbar":
            return OperatorPolynomial.identity(RationalComplex(self.hbar))
        if name == "i":
            return OperatorPolynomial.identity(RationalComplex(0, 1))
        if name in ("z", "w", "dz", "dw"):
            self.expect("[", ("'['",))
            site = self.uint("site index")
            self.expect("]", ("']'",))
            flavor = Flavor.Z if name.endswith("z") else Flavor.W
            v = Var(site, flavor)
            mono = MultiIndex.single(v)
            if name.startswith("d"):
                return OperatorPolynomial({(MultiIndex(), mono): RationalComplex(1)})
            return OperatorPolynomial({(mono, MultiIndex()): RationalComplex(1)})
        raise ParseError(f"unknown symbol {name!r}", (t.start, t.end),
                         ("'z'", "'w'", "'dz'", "'dw'", "'hbar'", "'i'"))


def _power(A: OperatorPolynomial, e: int) -> OperatorPolynomial:
    out = OperatorPolynomial.identity()
    base = A
    while e:
        if e & 1:
            out = compose(out, base)
        base = compose(base, base) if e > 1 else base
        e >>= 1
    return out


def parse(text: str, hbar=1) -> OperatorPolynomial:
    """Parse an operator expression into canonical normal-ordered form."""
    p = _Parser(_tokenize(text), Fraction(hbar))
    out = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing {t.kind} {t.text!r}",
                         (t.start, t.end), ("'+'", "'-'", "'*'", "end of input"))
    return out


def _coeff_str(c: RationalComplex) -> str:
    return f"({c.re!s},{c.im!s})"


def format_monomial(m: MultiIndex) -> str:
    """Product text of a monomial label, e.g. "z[0]^2 * w[1]"; "1" if empty."""
    if not m:
        return "1"
    return " * ".join(var_name(v) + (f"^{e}" if e > 1 else "") for v, e in m.items())


def parse_monomial(text: str) -> MultiIndex:
    """Inverse of format_monomial: a multiplication-only product with unit
    coefficient."""
    A = parse(text)
    terms = A.terms()
    if len(terms) != 1 or terms[0].deriv or terms[0].coeff != RationalComplex(1):
        raise ParseError("expected a plain monomial (product of z[i]/w[i] powers)",
                         (0, len(text)), ("monomial",))
    return terms[0].mult


def format_operator(A: OperatorPolynomial) -> str:
    """Canonical text form: terms joined by ' + ', factors by ' * ',
    multiplications before derivatives, variables sorted by (site, z<w),
    unit exponents and a (1,0) coefficient elided; the zero operator is "0"."""
    if A.is_zero():
        return "0"
    parts = []
    one = RationalComplex(1)
    for t in A.terms():
        factors = [var_name(v) + (f"^{e}" if e > 1 else "") for v, e in t.mult.items()]
        factors += [var_name(v, derivative=True) + (f"^{e}" if e > 1 else "")
                    for v, e in t.deriv.items()]
        if t.coeff == one:
            parts.append(" * ".join(factors) if factors else "1")
        else:
            parts.append(" * ".join([_coeff_str(t.coeff)] + factors))
    return " + ".join(parts)
