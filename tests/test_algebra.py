import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bargmann.algebra import (
    EMPTY_INDEX,
    MultiIndex,
    OperatorPolynomial,
    OperatorTerm,
    PolynomialState,
    RationalComplex,
    adjoint,
    apply,
    apply_term,
    commutator,
    compose,
    inner_product,
    monomial_norm_sq,
    single_term,
    w_var,
    z_var,
)
from bargmann.angular import j_operator
from bargmann.errors import AmplitudeOverflow

from conftest import act_unnormalized, multiindices, operator_polys, operator_terms, states
from reference import sort_key

Z0, W0 = z_var(0), w_var(0)


def f_state(alpha, beta, amp=1.0):
    return PolynomialState.monomial({Z0: alpha, W0: beta}, amp)


class TestMultiIndex:
    def test_zeros_never_stored(self):
        m = MultiIndex({Z0: 2, W0: 0})
        assert m.get(W0) == 0
        assert m == MultiIndex({Z0: 2})
        assert len(m) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex({Z0: -1})

    def test_hash_and_order(self):
        a = MultiIndex({Z0: 1, w_var(1): 2})
        b = MultiIndex([(w_var(1), 2), (Z0, 1)])
        assert a == b and hash(a) == hash(b)
        # sorted (site, flavor): z before w on each site
        assert MultiIndex({W0: 1, Z0: 1}).variables() == (Z0, W0)


class TestCanonicalOrder:
    """Keys are sorted by the pairs a MultiIndex stores, in the order of the
    (site, flavor, exponent) reference key."""

    @given(st.lists(operator_terms(), max_size=8), st.lists(operator_terms(), max_size=3))
    @settings(max_examples=150)
    def test_polynomial_keys(self, a, b):
        for P in (OperatorPolynomial.from_terms(a + b),
                  compose(OperatorPolynomial.from_terms(a), OperatorPolynomial.from_terms(b))):
            keys = [key for key, _ in P.items()]
            assert keys == sorted(keys, key=lambda k: (sort_key(k[0]), sort_key(k[1])))

    @given(states(max_monomials=8))
    @settings(max_examples=150)
    def test_state_keys(self, s):
        ms = [m for m, _ in s.items()]
        assert ms == sorted(ms, key=sort_key)


class TestRationalComplex:
    def test_exact_float_conversion(self):
        c = RationalComplex.from_value(0.5)
        assert c.re == Fraction(1, 2) and c.im == 0

    def test_arithmetic(self):
        i = RationalComplex(0, 1)
        assert i * i == RationalComplex(-1)
        assert (i + i.conjugate()) == RationalComplex(0)


class TestMonomialNormSq:
    def test_vacuum(self):
        assert monomial_norm_sq(EMPTY_INDEX) == 1

    def test_single_mode(self):
        assert monomial_norm_sq(MultiIndex({Z0: 3})) == 6

    def test_product(self):
        assert monomial_norm_sq(MultiIndex({Z0: 2, W0: 1})) == 2


class TestInnerProduct:
    def test_orthonormal(self):
        assert inner_product(f_state(1, 0), f_state(1, 0)) == 1
        assert inner_product(f_state(1, 0), f_state(0, 1)) == 0

    def test_norm_of_superposition(self):
        s = f_state(1, 0, 0.6) + f_state(0, 1, 0.8j)
        assert inner_product(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_conjugate_linear_first_slot(self):
        a = f_state(1, 0, 1j)
        b = f_state(1, 0, 1.0)
        assert inner_product(a, b) == pytest.approx(-1j)

    def test_identity_on_degree_le_5(self):
        idxs = [MultiIndex({Z0: a, W0: b})
                for a in range(6) for b in range(6) if a + b <= 5]
        for ma, mb in itertools.product(idxs, idxs):
            expected = 1 if ma == mb else 0
            got = inner_product(PolynomialState.monomial(ma), PolynomialState.monomial(mb))
            assert got == expected


class TestApplyTerm:
    def test_number_operator(self):
        t = OperatorTerm(RationalComplex(1), MultiIndex({Z0: 1}), MultiIndex({Z0: 1}))
        for n in range(1, 9):
            m2, amp = apply_term(t, MultiIndex({Z0: n}))
            assert m2 == MultiIndex({Z0: n})
            assert amp == pytest.approx(n, rel=1e-15)

    def test_derivative_annihilates_vacuum(self):
        t = OperatorTerm(RationalComplex(1), EMPTY_INDEX, MultiIndex({Z0: 1}))
        assert apply_term(t, EMPTY_INDEX) is None

    def test_ladder_amplitude(self):
        t = OperatorTerm(RationalComplex(1), MultiIndex({Z0: 1}), MultiIndex({W0: 1}))
        m2, amp = apply_term(t, MultiIndex({Z0: 1, W0: 1}))
        assert m2 == MultiIndex({Z0: 2})
        assert amp == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_quotient_in_float_range_unchanged(self):
        # sqrt of the correctly rounded factorial quotient, bit for bit
        t = OperatorTerm(RationalComplex(1), MultiIndex({Z0: 3}), MultiIndex({Z0: 1}))
        for n in (1, 5, 40, 150):
            _, amp = apply_term(t, MultiIndex({Z0: n}))
            f = math.factorial
            assert amp == math.sqrt(f(n) * f(n + 2) / f(n - 1) ** 2)

    def test_factorial_quotient_beyond_float_range(self):
        # (128!/64!)**3 ~ 2.8e379 overflows a float; its root ~ 5.3e189 does not
        exps = {z_var(site): 64 for site in range(3)}
        t = OperatorTerm(RationalComplex(1), MultiIndex(exps), EMPTY_INDEX)
        m2, amp = apply_term(t, MultiIndex(exps))
        assert m2 == MultiIndex({v: 128 for v in exps})
        quotient = (math.factorial(128) // math.factorial(64)) ** 3
        assert amp.imag == 0.0
        assert amp.real == pytest.approx(math.isqrt(quotient << 400) / 2.0 ** 200, rel=1e-15)

    def test_amplitude_beyond_float_range_raises(self):
        t = OperatorTerm(RationalComplex(1), MultiIndex({Z0: 400}), EMPTY_INDEX)
        with pytest.raises(AmplitudeOverflow):
            apply_term(t, MultiIndex({Z0: 400}))
        # finite root, but the coefficient pushes the product past the range
        exps = {z_var(site): 64 for site in range(3)}
        t = OperatorTerm(RationalComplex(10 ** 300), MultiIndex(exps), EMPTY_INDEX)
        with pytest.raises(AmplitudeOverflow):
            apply_term(t, MultiIndex(exps))
        # the coefficient alone is beyond the range
        t = OperatorTerm(RationalComplex(10 ** 400), MultiIndex({Z0: 1}), EMPTY_INDEX)
        with pytest.raises(AmplitudeOverflow):
            apply_term(t, MultiIndex({Z0: 1}))


class TestApply:
    def test_j3_eigenstate(self):
        out = apply(j_operator(0, "z"), f_state(1, 0))
        assert out.get(MultiIndex({Z0: 1})) == pytest.approx(0.5, rel=1e-15)
        assert len(out) == 1

    def test_zero_operator(self):
        assert apply(OperatorPolynomial.zero(), f_state(2, 1)) == PolynomialState()

    def test_casimir_eigenstate(self):
        out = apply(j_operator(0, "squared"), f_state(1, 1))
        assert out.get(MultiIndex({Z0: 1, W0: 1})) == pytest.approx(2.0, rel=1e-14)
        assert len(out) == 1

    def test_drop_tolerance(self):
        # only exact zeros are dropped: a 1e-14 amplitude stays, an exact cancellation goes
        s = f_state(1, 0, 1.0) + f_state(0, 1, 1e-14)
        out = apply(OperatorPolynomial.identity(), s)
        assert len(out) == 2 and out.get(MultiIndex({W0: 1})) == 1e-14
        number_difference = single_term(1, {Z0: 1}, {Z0: 1}) - single_term(1, {W0: 1}, {W0: 1})
        assert apply(number_difference, f_state(1, 1) + f_state(2, 0, 1e-14)) == f_state(2, 0, 2e-14)


class TestNormalOrderProduct:
    def test_fundamental_commutation(self):
        dz = single_term(1, {}, {Z0: 1})
        z = single_term(1, {Z0: 1}, {})
        got = compose(dz, z)
        expected = single_term(1, {Z0: 1}, {Z0: 1}) + OperatorPolynomial.identity()
        assert got == expected

    def test_commuting_multiplications(self):
        z = single_term(1, {Z0: 1}, {})
        assert compose(z, z) == single_term(1, {Z0: 2}, {})

    def test_second_derivative_past_z(self):
        # d^2/dz^2 z = z d^2/dz^2 + 2 d/dz, checked by exact action on z^n
        dz2 = OperatorTerm(RationalComplex(1), EMPTY_INDEX, MultiIndex({Z0: 2}))
        z = OperatorTerm(RationalComplex(1), MultiIndex({Z0: 1}), EMPTY_INDEX)
        got = compose(OperatorPolynomial.from_terms([dz2]), OperatorPolynomial.from_terms([z]))
        assert got == single_term(1, {Z0: 1}, {Z0: 2}) + single_term(2, {}, {Z0: 1})
        for n in range(6):
            _assert_product_matches_sequential(dz2, z, {Z0: n})

    @given(operator_terms(), operator_terms(), multiindices(max_exponent=6))
    @settings(max_examples=150)
    def test_canonical_form_soundness(self, a, b, m):
        _assert_product_matches_sequential(a, b, dict(m.items()))


def _assert_product_matches_sequential(a, b, exps):
    """The normal-ordered product a*b (`compose`) acting on an unnormalized
    monomial must equal acting with b then a, in exact rational arithmetic."""
    inner = act_unnormalized(b, exps)
    expected = None
    if inner is not None:
        mid_exps, c1 = inner
        outer = act_unnormalized(a, mid_exps)
        if outer is not None:
            out_exps, c2 = outer
            c = c1 * c2
            expected = (MultiIndex(out_exps), c) if c else None

    got: dict[MultiIndex, RationalComplex] = {}
    for t in compose(OperatorPolynomial.from_terms([a]),
                     OperatorPolynomial.from_terms([b])).terms():
        r = act_unnormalized(t, exps)
        if r is None:
            continue
        out_exps, c = r
        key = MultiIndex(out_exps)
        got[key] = got.get(key, RationalComplex(0)) + c
    got = {k: v for k, v in got.items() if v}

    if expected is None:
        assert got == {}
    else:
        assert got == {expected[0]: expected[1]}


class TestSum:
    @given(st.lists(operator_polys(), max_size=5))
    @settings(max_examples=60)
    def test_equals_repeated_addition(self, polys):
        want = OperatorPolynomial.zero()
        for p in polys:
            want = want + p
        got = OperatorPolynomial.sum(polys)
        assert got == want
        assert list(got.items()) == list(want.items())

    def test_cancellation(self):
        a = single_term(Fraction(1, 3), {Z0: 1}, {W0: 1})
        assert OperatorPolynomial.sum([a, -a]).is_zero()
        assert OperatorPolynomial.sum([a, -a, a]) == a
        assert OperatorPolynomial.sum([]).is_zero()


class TestCompose:
    def test_identity(self):
        B = j_operator(0, "x") + single_term(RationalComplex(2, 3), {Z0: 2}, {W0: 1})
        assert compose(OperatorPolynomial.identity(), B) == B
        assert compose(B, OperatorPolynomial.identity()) == B

    def test_ladder_product_action(self):
        # J+ J- acting on every f_{ab}, a+b <= 4, vs sequential application
        jp, jm = j_operator(0, "+"), j_operator(0, "-")
        prod = compose(jp, jm)
        for a in range(5):
            for b in range(5 - a):
                ket = PolynomialState.monomial({Z0: a, W0: b})
                direct = apply(prod, ket)
                seq = apply(jp, apply(jm, ket))
                assert _states_close(direct, seq, 1e-12)

    def test_j3_squared_pattern(self):
        j3 = j_operator(0, "z")
        got = compose(j3, j3)
        quarter = Fraction(1, 4)
        expected = OperatorPolynomial.from_terms([
            (quarter, {Z0: 2}, {Z0: 2}),
            (quarter, {Z0: 1}, {Z0: 1}),
            (-2 * quarter, {Z0: 1, W0: 1}, {Z0: 1, W0: 1}),
            (quarter, {W0: 2}, {W0: 2}),
            (quarter, {W0: 1}, {W0: 1}),
        ])
        assert got == expected


def _states_close(a, b, tol):
    keys = set(dict(a.items())) | set(dict(b.items()))
    return all(abs(a.get(k) - b.get(k)) <= tol for k in keys)


class TestCommutator:
    def test_footnote(self):
        dz = single_term(1, {}, {Z0: 1})
        z = single_term(1, {Z0: 1}, {})
        assert commutator(dz, z) == OperatorPolynomial.identity()

    @given(operator_polys(max_terms=3))
    @settings(max_examples=50)
    def test_self_commutator_vanishes(self, A):
        assert commutator(A, A).is_zero()

    def test_su2(self):
        j1, j2, j3 = (j_operator(0, k) for k in "xyz")
        i = RationalComplex(0, 1)
        assert commutator(j1, j2) == j3.scaled(i)
        assert commutator(j2, j3) == j1.scaled(i)
        assert commutator(j3, j1) == j2.scaled(i)


class TestAdjoint:
    def test_multiplication_becomes_derivative(self):
        z = single_term(1, {Z0: 1}, {})
        assert adjoint(z) == single_term(1, {}, {Z0: 1})

    def test_scalar(self):
        c = RationalComplex(Fraction(2, 3), Fraction(-1, 5))
        assert adjoint(OperatorPolynomial.identity(c)) == \
            OperatorPolynomial.identity(c.conjugate())

    def test_j1_hermitian(self):
        j1 = j_operator(0, "x")
        assert adjoint(j1) == j1

    @given(operator_polys())
    @settings(max_examples=50)
    def test_involutive(self, A):
        assert adjoint(adjoint(A)) == A

    @given(operator_polys(max_terms=3, max_exponent=4, max_vars=3),
           states(max_exponent=6), states(max_exponent=6))
    @settings(max_examples=100)
    def test_duality(self, A, s, t):
        lhs = inner_product(apply(A, s), t)
        rhs = inner_product(s, apply(adjoint(A), t))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestMatrixElement:
    def test_ladder_closed_form(self):
        jp = j_operator(0, "+")
        for alpha in range(4):
            for beta in range(1, 4):
                bra = MultiIndex({Z0: alpha + 1, W0: beta - 1})
                ket = MultiIndex({Z0: alpha, W0: beta})
                got = apply(jp, PolynomialState.monomial(ket)).get(bra)
                assert got == pytest.approx(math.sqrt((alpha + 1) * beta), rel=1e-12)

    def test_diagonal_operator_off_diagonal_zero(self):
        out = apply(j_operator(0, "z"), PolynomialState.monomial({W0: 1}))
        assert out.get(MultiIndex({Z0: 1})) == 0

    def test_j1_element(self):
        out = apply(j_operator(0, "x"), PolynomialState.monomial({Z0: 1, W0: 1}))
        got = out.get(MultiIndex({Z0: 2}))
        assert got == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    @given(multiindices(max_exponent=4, max_vars=2),
           operator_polys(max_terms=3, max_exponent=3, max_vars=2),
           multiindices(max_exponent=4, max_vars=2))
    @settings(max_examples=100)
    def test_agrees_with_apply_inner_product(self, bra, A, ket):
        direct = apply(A, PolynomialState.monomial(ket)).get(bra)
        via_state = inner_product(PolynomialState.monomial(bra),
                                  apply(A, PolynomialState.monomial(ket)))
        scale = max(1.0, abs(direct), abs(via_state))
        assert abs(direct - via_state) <= 1e-12 * scale
