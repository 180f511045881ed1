import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    RationalComplex,
    single_term,
    w_var,
    z_var,
)
from bargmann.angular import j_operator
from bargmann.dsl import (
    ExponentOverflow,
    ParseError,
    format_monomial,
    format_operator,
    parse,
    parse_monomial,
)

from conftest import operator_polys

Z0, W0 = z_var(0), w_var(0)


class TestParseBasics:
    def test_normal_ordering_of_product(self):
        got = parse("dz[0]*z[0]")
        assert got == single_term(1, {Z0: 1}, {Z0: 1}) + OperatorPolynomial.identity()

    def test_zero(self):
        assert parse("0") == OperatorPolynomial.zero()
        assert format_operator(parse("0")) == "0"

    def test_scaled_j1(self):
        got = parse("(0,0.5)*hbar*(z[0]*dw[0] + w[0]*dz[0])", hbar=1)
        assert got == j_operator(0, "x").scaled(RationalComplex(0, 1))

    def test_hbar_substitution(self):
        got = parse("hbar*z[0]", hbar=Fraction(2, 3))
        assert got == single_term(Fraction(2, 3), {Z0: 1}, {})

    def test_imaginary_literal(self):
        assert parse("i*i") == OperatorPolynomial.identity(-1)
        assert parse("i") == OperatorPolynomial.identity(RationalComplex(0, 1))

    def test_decimal_exact(self):
        got = parse("0.25*w[1]")
        assert got == single_term(Fraction(1, 4), {w_var(1): 1}, {})

    def test_rational_literal(self):
        assert parse("1/3") == OperatorPolynomial.identity(Fraction(1, 3))
        got = parse("(1/3,-2/5)*w[1]^2")
        assert got == single_term(RationalComplex(Fraction(1, 3), Fraction(-2, 5)),
                                  {w_var(1): 2}, {})

    def test_unary_minus(self):
        assert parse("-z[0]") == single_term(-1, {Z0: 1}, {})
        assert parse("-z[0]^2") == single_term(-1, {Z0: 2}, {})
        assert parse("1 - - 1") == OperatorPolynomial.identity(2)

    def test_parens_vs_complex_literal(self):
        assert parse("(1)") == OperatorPolynomial.identity()
        assert parse("(1,2)") == OperatorPolynomial.identity(RationalComplex(1, 2))
        assert parse("(1+2)") == OperatorPolynomial.identity(3)
        assert parse("(-1,-2)") == OperatorPolynomial.identity(RationalComplex(-1, -2))

    def test_precedence(self):
        # '^' binds tighter than '*', '*' tighter than '+'
        got = parse("z[0] + w[0]*dz[0]^2")
        want = single_term(1, {Z0: 1}, {}) + single_term(1, {W0: 1}, {Z0: 2})
        assert got == want

    def test_power_of_sum(self):
        got = parse("(z[0]+w[0])^2")
        want = single_term(1, {Z0: 2}, {}) + single_term(2, {Z0: 1, W0: 1}, {}) \
            + single_term(1, {W0: 2}, {})
        assert got == want

    def test_power_zero_is_identity(self):
        assert parse("z[3]^0") == OperatorPolynomial.identity()

    def test_whitespace_insensitive(self):
        assert parse(" z[0]\t*\ndw[0] ") == parse("z[0]*dw[0]")


class TestParseErrors:
    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse("z[0] @ w[0]")
        assert exc.value.span == (5, 6)
        assert exc.value.expected

    def test_unclosed_bracket(self):
        with pytest.raises(ParseError) as exc:
            parse("z[0")
        assert exc.value.expected == ("']'",)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse("z[0] z[1]")
        assert "'*'" in exc.value.expected

    def test_unknown_symbol(self):
        with pytest.raises(ParseError) as exc:
            parse("zz[0]")
        assert "'hbar'" in exc.value.expected

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0")

    def test_non_integer_site(self):
        with pytest.raises(ParseError):
            parse("z[1.5]")

    def test_exponent_overflow(self):
        assert parse("z[0]^64") == single_term(1, {Z0: 64}, {})
        with pytest.raises(ExponentOverflow) as exc:
            parse("z[0]^65")
        assert exc.value.span == (5, 7)

    def test_spans_inside_input(self):
        for text in ("", "(", "z[", "1+", "((1,2)", "z[0]^", "1/", "[", ")a"):
            with pytest.raises(ParseError) as exc:
                parse(text)
            start, end = exc.value.span
            assert 0 <= start <= end <= len(text)
            assert len(exc.value.expected) >= 1


class TestFormat:
    def test_zero(self):
        assert format_operator(OperatorPolynomial.zero()) == "0"

    def test_raising_operator(self):
        assert format_operator(j_operator(0, "+")) == "z[0] * dw[0]"

    def test_identity(self):
        assert format_operator(OperatorPolynomial.identity()) == "1"
        assert format_operator(OperatorPolynomial.identity(Fraction(-3, 2))) == "(-3/2,0)"

    def test_exponents_and_sorting(self):
        A = single_term(1, {w_var(1): 2, Z0: 1}, {z_var(1): 3})
        assert format_operator(A) == "z[0] * w[1]^2 * dz[1]^3"

    @given(operator_polys(max_terms=4, max_exponent=5, max_vars=4))
    @settings(max_examples=200)
    def test_roundtrip(self, A):
        assert parse(format_operator(A)) == A


class TestMonomialText:
    def test_roundtrip(self):
        m = MultiIndex({Z0: 2, w_var(1): 1})
        assert parse_monomial(format_monomial(m)) == m
        assert parse_monomial("1") == MultiIndex()

    def test_rejects_operators(self):
        with pytest.raises(ParseError):
            parse_monomial("z[0] + w[0]")
        with pytest.raises(ParseError):
            parse_monomial("dz[0]")
        with pytest.raises(ParseError):
            parse_monomial("2*z[0]")


class TestFuzzTotality:
    def test_random_bytes_never_crash(self):
        rng = random.Random(20260808)
        for _ in range(1000):
            n = rng.randrange(0, 64)
            text = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
            try:
                parse(text)
            except ParseError:
                pass

    def test_near_grammar_soup(self):
        rng = random.Random(7)
        atoms = ["z[0]", "w[1]", "dz[2]", "dw[0]", "hbar", "i", "3", "0.5",
                 "(", ")", "[", "]", "+", "-", "*", "^", ",", "/", " "]
        for _ in range(1000):
            text = "".join(rng.choice(atoms) for _ in range(rng.randrange(0, 12)))
            try:
                parse(text)
            except ParseError:
                pass
