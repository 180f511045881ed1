import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    PolynomialState,
    RationalComplex,
    adjoint,
    apply,
    commutator,
    compose,
    matrix_element,
    single_term,
    w_var,
    z_var,
)
from bargmann.angular import JmLabel, j_operator, jm_label, multiplet_states, total_operator
from bargmann.chain import ChainSpec

from reference import reference_assemble

Z0, W0 = z_var(0), w_var(0)
I = RationalComplex(0, 1)


def test_kind_aliases():
    assert j_operator(0, "Plus") == j_operator(0, "+")
    assert j_operator(0, "MINUS") == j_operator(0, "-")
    assert j_operator(0, "Squared") == j_operator(0, "2")
    with pytest.raises(ValueError):
        j_operator(0, "q")


def test_z_on_spin_up():
    out = apply(j_operator(0, "z"), PolynomialState.monomial({Z0: 1}))
    assert out.get(MultiIndex({Z0: 1})) == pytest.approx(0.5)
    assert len(out) == 1


def test_plus_annihilates_highest_weight():
    for j2 in (1, 2, 3):  # alpha = 2j, beta = 0
        top = PolynomialState.monomial({Z0: j2})
        assert apply(j_operator(0, "+"), top) == PolynomialState()


def test_squared_on_j1_state():
    out = apply(j_operator(0, "squared"), PolynomialState.monomial({Z0: 2}))
    assert out.get(MultiIndex({Z0: 2})) == pytest.approx(2.0, rel=1e-14)
    assert len(out) == 1


@pytest.mark.parametrize("hbar", [1, Fraction(1, 2), Fraction(3, 7)])
def test_su2_commutators_exact(hbar):
    j1, j2, j3 = (j_operator(0, k, hbar) for k in "xyz")
    ih = RationalComplex(0, Fraction(hbar))
    assert commutator(j1, j2) == j3.scaled(ih)
    assert commutator(j2, j3) == j1.scaled(ih)
    assert commutator(j3, j1) == j2.scaled(ih)


def test_casimir_commutes_exactly():
    jsq = j_operator(0, "squared")
    for k in "xyz":
        assert commutator(j_operator(0, k), jsq).is_zero()


def test_casimir_number_operator_identity():
    # J^2 = (hbar^2 N / 2)(N/2 + 1) with N = z dz + w dw, as exact operators
    for hbar in (1, Fraction(2, 3)):
        n_op = single_term(1, {Z0: 1}, {Z0: 1}) + single_term(1, {W0: 1}, {W0: 1})
        h2 = Fraction(hbar) ** 2
        rhs = compose(n_op, n_op).scaled(h2 / 4) + n_op.scaled(h2 / 2)
        assert j_operator(0, "squared", hbar) == rhs


def test_plus_is_adjoint_of_minus():
    assert j_operator(0, "+") == adjoint(j_operator(0, "-"))
    assert j_operator(0, "+", Fraction(1, 3)) == adjoint(j_operator(0, "-", Fraction(1, 3)))


class TestClosedFormMatrixElements:
    """The five closed forms, exact to 1e-12 for all 0 <= alpha, beta <= 8."""

    def setup_method(self):
        self.pairs = [(a, b) for a in range(9) for b in range(9)]

    @staticmethod
    def _elem(op, ap, bp, a, b):
        return matrix_element(MultiIndex({Z0: ap, W0: bp}), op, MultiIndex({Z0: a, W0: b}))

    def test_j3_diagonal(self):
        op = j_operator(0, "z")
        for a, b in self.pairs:
            assert self._elem(op, a, b, a, b) == pytest.approx((a - b) / 2, abs=1e-12)

    def test_j_squared_diagonal(self):
        op = j_operator(0, "squared")
        for a, b in self.pairs:
            j = (a + b) / 2
            assert self._elem(op, a, b, a, b) == pytest.approx(j * (j + 1), rel=1e-12, abs=1e-12)

    def test_j_plus(self):
        op = j_operator(0, "+")
        for a, b in self.pairs:
            if b >= 1:
                want = math.sqrt((a + 1) * b)
                assert self._elem(op, a + 1, b - 1, a, b) == pytest.approx(want, rel=1e-12)

    def test_j_minus(self):
        op = j_operator(0, "-")
        for a, b in self.pairs:
            if a >= 1:
                want = math.sqrt(a * (b + 1))
                assert self._elem(op, a - 1, b + 1, a, b) == pytest.approx(want, rel=1e-12)

    def test_j1_j2_combinations(self):
        j1, j2 = j_operator(0, "x"), j_operator(0, "y")
        for a, b in self.pairs:
            if b >= 1:
                up = math.sqrt((a + 1) * b)
                assert self._elem(j1, a + 1, b - 1, a, b) == pytest.approx(up / 2, rel=1e-12)
                assert self._elem(j2, a + 1, b - 1, a, b) == pytest.approx(up / 2j, rel=1e-12)
            if a >= 1:
                dn = math.sqrt(a * (b + 1))
                assert self._elem(j1, a - 1, b + 1, a, b) == pytest.approx(dn / 2, rel=1e-12)
                assert self._elem(j2, a - 1, b + 1, a, b) == pytest.approx(-dn / 2j, rel=1e-12)


class TestTotalOperator:
    def test_single_site_reduces(self):
        assert total_operator("z", [0]) == j_operator(0, "z")

    def test_validation(self):
        with pytest.raises(ValueError):
            total_operator("z", [])
        with pytest.raises(ValueError):
            total_operator("z", [0, 0])

    def test_total_z_eigenvalue(self):
        op = total_operator("z", [0, 1, 2])
        m = MultiIndex({z_var(0): 2, w_var(0): 1, z_var(1): 1, w_var(2): 3})
        alpha, beta = 3, 4
        got = matrix_element(m, op, m)
        assert got == pytest.approx((alpha - beta) / 2, rel=1e-14)

    def test_total_commutators_exact(self):
        for n in (2, 3):
            sites = list(range(n))
            j1, j2, j3 = (total_operator(k, sites) for k in "xyz")
            assert commutator(j1, j2) == j3.scaled(I)
            jsq = total_operator("squared", sites)
            for c in (j1, j2, j3):
                assert commutator(c, jsq).is_zero()

    def test_two_spin_half_casimir_spectrum(self):
        # (S1+S2)^2 on the 4-dim sector: singlet 0, triplet 2 (hbar=1).
        spec = ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(0, 0, 0))
        M = reference_assemble(total_operator("squared", [0, 1]), spec).toarray()
        got = np.sort(np.linalg.eigvalsh(M))

        # independent oracle: Kronecker construction from spin-1/2 matrices
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        sy = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
        sz = np.array([[-0.5, 0], [0, 0.5]], dtype=complex)
        eye = np.eye(2)
        total = np.zeros((4, 4), dtype=complex)
        for s in (sx, sy, sz):
            tot = np.kron(s, eye) + np.kron(eye, s)
            total += tot @ tot
        want = np.sort(np.linalg.eigvalsh(total))
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(want, [0.0, 2.0, 2.0, 2.0], atol=1e-12)


class TestJmLabels:
    def test_examples(self):
        assert jm_label(1, 0) == JmLabel(Fraction(1, 2), Fraction(1, 2))
        assert jm_label(0, 0) == JmLabel(0, 0)
        assert jm_label(0, 2) == JmLabel(1, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            jm_label(-1, 0)
        with pytest.raises(ValueError):
            JmLabel(Fraction(1, 2), 1)
        with pytest.raises(ValueError):
            JmLabel(1, Fraction(1, 2))  # parity mismatch

    def test_multiplet_examples(self):
        assert multiplet_states(Fraction(1, 2)) == [MultiIndex({Z0: 1}), MultiIndex({W0: 1})]
        assert multiplet_states(0) == [MultiIndex()]
        assert multiplet_states(1) == [MultiIndex({Z0: 2}),
                                       MultiIndex({Z0: 1, W0: 1}),
                                       MultiIndex({W0: 2})]

    @given(st.integers(0, 8))
    def test_roundtrip(self, twoj):
        j = Fraction(twoj, 2)
        states = multiplet_states(j)
        assert len(states) == twoj + 1
        for k, m in enumerate(states):
            label = jm_label(m.get(Z0), m.get(W0))
            assert label.j == j
            assert label.m == j - k  # descending from j to -j
