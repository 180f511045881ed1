import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bargmann import cli
from bargmann.algebra import (
    MultiIndex,
    PolynomialState,
    RationalComplex,
    adjoint,
    apply,
    commutator,
    compose,
    single_term,
    w_var,
    z_var,
)
from bargmann.angular import j_operator, total_operator
from bargmann.chain import ChainSpec

from reference import reference_assemble

Z0, W0 = z_var(0), w_var(0)
I = RationalComplex(0, 1)


def test_kind_aliases():
    # exactly x, y, z, +, -, squared: no alias spellings, no case folding
    for kind in ("plus", "Squared", "2", "q"):
        with pytest.raises(ValueError, match="unknown operator kind"):
            j_operator(0, kind)
        with pytest.raises(ValueError, match="unknown operator kind"):
            total_operator(kind, [0, 1])


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
        out = apply(op, PolynomialState.monomial({Z0: a, W0: b}))
        return out.get(MultiIndex({Z0: ap, W0: bp}))

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
        got = apply(op, PolynomialState.monomial(m)).get(m)
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


def _basis_lines(tmp_path, capsys, spin, n_sites=1):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"n_sites": n_sites, "spin": spin, "jx": 1, "jy": 1, "jz": 1}))
    assert cli.main(["basis", "--spec", str(p)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out.splitlines()


class TestJmLabels:
    """The (j, m) labels, which `bargmann basis` lists: z^a w^(2j-a) is
    |j, m = a - j>, in ascending m."""

    def test_examples(self, tmp_path, capsys):
        assert _basis_lines(tmp_path, capsys, "1/2") == [
            "0: w[0] | (j=1/2, m=-1/2) | total_m = -1/2",
            "1: z[0] | (j=1/2, m=1/2) | total_m = 1/2",
        ]
        assert _basis_lines(tmp_path, capsys, "0") == ["0: 1 | (j=0, m=0) | total_m = 0"]
        assert _basis_lines(tmp_path, capsys, "1")[0] == "0: w[0]^2 | (j=1, m=-1) | total_m = -1"

    @pytest.mark.parametrize("spin", ["-1/2", "1/3", "0.3"])
    def test_validation(self, tmp_path, capsys, spin):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"n_sites": 1, "spin": spin, "jx": 1, "jy": 1, "jz": 1}))
        assert cli.main(["basis", "--spec", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_multiplet_examples(self, tmp_path, capsys):
        assert _basis_lines(tmp_path, capsys, "1/2", n_sites=2) == [
            "0: w[0] * w[1] | (j=1/2, m=-1/2) (j=1/2, m=-1/2) | total_m = -1",
            "1: w[0] * z[1] | (j=1/2, m=-1/2) (j=1/2, m=1/2) | total_m = 0",
            "2: z[0] * w[1] | (j=1/2, m=1/2) (j=1/2, m=-1/2) | total_m = 0",
            "3: z[0] * z[1] | (j=1/2, m=1/2) (j=1/2, m=1/2) | total_m = 1",
        ]

    def test_roundtrip(self, tmp_path, capsys):
        for twoj in range(9):
            j = Fraction(twoj, 2)
            lines = _basis_lines(tmp_path, capsys, str(j))
            assert len(lines) == twoj + 1
            for k, line in enumerate(lines):
                m = j - (twoj - k)  # ascending from -j to j
                z = {0: "", 1: "z[0]"}.get(k, f"z[0]^{k}")
                w = {0: "", 1: "w[0]"}.get(twoj - k, f"w[0]^{twoj - k}")
                monomial = " * ".join(f for f in (z, w) if f) or "1"
                assert line == f"{k}: {monomial} | (j={j}, m={m}) | total_m = {m}"
