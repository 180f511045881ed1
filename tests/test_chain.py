import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    adjoint,
    commutator,
    matrix_element,
    single_term,
    w_var,
    z_var,
)
from bargmann.angular import total_operator
from bargmann.chain import (
    COMPOSITIONAL,
    OPEN,
    PAPER_LITERAL,
    PERIODIC,
    ChainSpec,
    assemble_matrix,
    build_hamiltonian,
    mode_difference,
    sector_basis,
    solve,
    total_magnetization,
)
from bargmann.errors import DimensionTooLarge, SectorViolation
from bargmann.thermo import eigensolve

couplings_st = st.tuples(*[st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 4))] * 3)


def xxx_spec(n, s=Fraction(1, 2), j=1.0, boundary=OPEN, mode=COMPOSITIONAL):
    return ChainSpec(n_sites=n, spin=s, couplings=(j, j, j), boundary=boundary, mode=mode)


class TestChainSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainSpec(n_sites=0, spin=Fraction(1, 2), couplings=(1, 1, 1))
        with pytest.raises(ValueError):
            ChainSpec(n_sites=2, spin=Fraction(1, 3), couplings=(1, 1, 1))
        with pytest.raises(ValueError):
            ChainSpec(n_sites=1, spin=Fraction(1, 2), couplings=(1, 1, 1),
                      boundary=PERIODIC)
        with pytest.raises(ValueError):
            ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, float("inf"), 1))
        with pytest.raises(ValueError):
            ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, 1, 1), mode="exact")

    def test_n_sites_must_be_an_integer(self):
        for n in (2.7, True, "2", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="n_sites must be an integer"):
                ChainSpec(n_sites=n, spin=Fraction(1, 2), couplings=(1, 1, 1))
        spec = ChainSpec(n_sites=2.0, spin=Fraction(1, 2), couplings=(1, 1, 1))
        assert type(spec.n_sites) is int and spec.n_sites == 2

    def test_boolean_number_fields_rejected(self):
        base = {"n_sites": 2, "spin": "1/2", "jx": 1, "jy": 1, "jz": 1, "hbar": 1}
        for field in ("spin", "jx", "jy", "jz", "hbar"):
            with pytest.raises(ValueError, match=f"{field} must be a number, got True"):
                ChainSpec.from_json({**base, field: True})
        with pytest.raises(ValueError, match="jz must be a number, got False"):
            ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, 1, False))
        spec = ChainSpec.from_json({**base, "spin": 0.5, "jx": "1.5", "hbar": "1/2"})
        assert (spec.spin, spec.couplings[0], spec.hbar) == (Fraction(1, 2), 1.5, Fraction(1, 2))

    def test_bonds(self):
        assert xxx_spec(4).bonds() == [(0, 1), (1, 2), (2, 3)]
        assert xxx_spec(4, boundary=PERIODIC).bonds() == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_json_roundtrip(self):
        spec = ChainSpec(n_sites=3, spin=Fraction(3, 2), couplings=(1.0, 0.5, -0.25),
                         boundary=PERIODIC, hbar=Fraction(1, 2), mode=PAPER_LITERAL)
        assert ChainSpec.from_json(spec.to_json()) == spec
        assert spec.to_json()["spin"] == "3/2"

    def test_dimension(self):
        assert xxx_spec(3).dimension() == 8
        assert xxx_spec(2, s=Fraction(1)).dimension() == 9


class TestSectorBasis:
    def test_single_site_spin_half(self):
        basis = sector_basis(xxx_spec(1))
        assert list(basis.states) == [MultiIndex({w_var(0): 1}), MultiIndex({z_var(0): 1})]

    def test_single_site_spin_one(self):
        basis = sector_basis(xxx_spec(1, s=Fraction(1)))
        assert list(basis.states) == [
            MultiIndex({w_var(0): 2}),
            MultiIndex({z_var(0): 1, w_var(0): 1}),
            MultiIndex({z_var(0): 2}),
        ]

    def test_two_sites(self):
        basis = sector_basis(xxx_spec(2))
        z0, w0, z1, w1 = z_var(0), w_var(0), z_var(1), w_var(1)
        assert list(basis.states) == [
            MultiIndex({w0: 1, w1: 1}),
            MultiIndex({w0: 1, z1: 1}),
            MultiIndex({z0: 1, w1: 1}),
            MultiIndex({z0: 1, z1: 1}),
        ]

    def test_counts_and_per_site_constraint(self):
        for n, s in ((3, Fraction(1, 2)), (2, Fraction(1)), (2, Fraction(3, 2))):
            spec = xxx_spec(n, s=s)
            basis = sector_basis(spec)
            assert len(basis) == spec.dimension()
            twos = int(2 * s)
            for m in basis.states:
                for site in range(n):
                    assert m.get(z_var(site)) + m.get(w_var(site)) == twos

    def test_index_of(self):
        basis = sector_basis(xxx_spec(2))
        for i, m in enumerate(basis.states):
            assert basis.index_of(m) == i
        with pytest.raises(SectorViolation):
            basis.index_of(MultiIndex({z_var(0): 2}))


class TestBuildHamiltonian:
    @given(couplings_st)
    @settings(max_examples=25)
    def test_hermitian_exact(self, couplings):
        spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=couplings)
        H = build_hamiltonian(spec)
        assert adjoint(H) == H

    def test_literal_mode_hermitian_exact(self):
        spec = xxx_spec(3, mode=PAPER_LITERAL)
        H = build_hamiltonian(spec)
        assert adjoint(H) == H

    def test_anchor_spectrum(self):
        spec = xxx_spec(2)
        M = assemble_matrix(build_hamiltonian(spec), sector_basis(spec)).toarray()
        eigs = np.sort(np.linalg.eigvalsh(M))
        assert np.allclose(eigs, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_commutes_with_total_z_when_jx_eq_jy(self):
        spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=(1.0, 1.0, 0.37))
        H = build_hamiltonian(spec)
        jz_tot = total_operator("z", range(3))
        assert commutator(H, jz_tot).is_zero()

    def test_mode_difference_is_z_coupling_cross_terms(self):
        # per bond: (hbar^2 Jz/4) (z_i w_j dz_i dw_j - w_i z_j dw_i dz_j)
        spec = xxx_spec(2, j=1.0, mode=PAPER_LITERAL)
        diff = mode_difference(spec)
        z0, w0, z1, w1 = z_var(0), w_var(0), z_var(1), w_var(1)
        want = single_term(Fraction(1, 4), {z0: 1, w1: 1}, {z0: 1, w1: 1}) + \
            single_term(Fraction(-1, 4), {w0: 1, z1: 1}, {w0: 1, z1: 1})
        assert diff == want
        assert not diff.is_zero()

    def test_modes_agree_when_jz_zero(self):
        spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=(1.2, -0.8, 0.0))
        assert mode_difference(spec).is_zero()

    def test_no_bonds_no_terms(self):
        assert build_hamiltonian(xxx_spec(1)).is_zero()


class TestAssembleMatrix:
    def test_total_z_single_site(self):
        spec = xxx_spec(1)
        M = assemble_matrix(total_operator("z", [0]), sector_basis(spec)).toarray()
        assert np.allclose(M, np.diag([-0.5, 0.5]), atol=1e-15)

    def test_zero_operator(self):
        spec = xxx_spec(2)
        M = assemble_matrix(OperatorPolynomial.zero(), sector_basis(spec)).toarray()
        assert not M.any()

    def test_xxx_two_site_matrix(self):
        spec = xxx_spec(2)
        M = assemble_matrix(build_hamiltonian(spec), sector_basis(spec)).toarray()
        want = np.diag([0.25, -0.25, -0.25, 0.25]).astype(complex)
        want[1, 2] = want[2, 1] = 0.5
        assert np.abs(M - want).max() < 1e-14

    def test_entries_match_matrix_element(self):
        spec = ChainSpec(n_sites=2, spin=Fraction(1), couplings=(0.7, -.3, 1.1),
                         boundary=PERIODIC)
        basis = sector_basis(spec)
        H = build_hamiltonian(spec)
        M = assemble_matrix(H, basis).toarray()
        for r, c in itertools.product(range(len(basis)), repeat=2):
            want = matrix_element(basis.states[r], H, basis.states[c])
            assert abs(M[r, c] - want) <= 1e-13

    def test_hermitian_to_tolerance(self):
        spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=(0.9, 0.4, -1.3),
                         boundary=PERIODIC)
        M = assemble_matrix(build_hamiltonian(spec), sector_basis(spec)).toarray()
        assert np.abs(M - M.conj().T).max() < 1e-12

    def test_sector_violation(self):
        spec = xxx_spec(2)
        basis = sector_basis(spec)
        bare_z = single_term(1, {z_var(0): 1}, {})
        with pytest.raises(SectorViolation):
            assemble_matrix(bare_z, basis)


class TestMagnetizationBlocks:
    def test_two_sites(self):
        ms = Counter(total_magnetization(m, 2) for m in sector_basis(xxx_spec(2)).states)
        assert sorted(ms.items()) == [(Fraction(-1), 1), (Fraction(0), 2), (Fraction(1), 1)]

    def test_three_sites_binomial(self):
        ms = Counter(total_magnetization(m, 3) for m in sector_basis(xxx_spec(3)).states)
        assert [ms[m] for m in sorted(ms)] == [1, 3, 3, 1]

    def test_block_union_is_full_spectrum(self):
        spec = xxx_spec(4)
        basis = sector_basis(spec)
        M = assemble_matrix(build_hamiltonian(spec), basis).toarray()
        full = np.sort(np.linalg.eigvalsh(M))
        ms = [total_magnetization(m, spec.n_sites) for m in basis.states]
        pieces = []
        for m in sorted(set(ms)):
            ix = [i for i, mi in enumerate(ms) if mi == m]
            sub = M[np.ix_(ix, ix)]
            pieces.extend(np.linalg.eigvalsh(sub))
            # H conserves total magnetization, so off-block entries vanish
            rest = [i for i in range(len(basis)) if i not in ix]
            assert np.abs(M[np.ix_(ix, rest)]).max(initial=0.0) < 1e-14
        assert np.abs(np.sort(pieces) - full).max() < 1e-9

    def test_total_magnetization_values(self):
        basis = sector_basis(xxx_spec(2))
        ms = [total_magnetization(m, 2) for m in basis.states]
        assert ms == [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)]


class TestSolve:
    @pytest.mark.parametrize("spin,n", [(Fraction(1, 2), 4), (Fraction(1), 3),
                                        (Fraction(3, 2), 3), (Fraction(2), 2)])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    @pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
    def test_matches_hand_wired_pipeline(self, spin, n, boundary, mode):
        spec = ChainSpec(n_sites=n, spin=spin, couplings=(1.0, 0.7, 0.3),
                         boundary=boundary, mode=mode)
        M = assemble_matrix(build_hamiltonian(spec), sector_basis(spec))
        expected = eigensolve(M, compute_vectors=False)
        got = solve(spec)
        assert np.array_equal(got.eigenvalues, expected.eigenvalues)
        assert got.residual_bound == expected.residual_bound
        assert got.eigenvectors is None

    def test_cap_checked_before_building(self, monkeypatch):
        import bargmann.chain as chainmod

        def fail(*args):
            raise AssertionError("assemble_matrix called beyond the cap")

        monkeypatch.setattr(chainmod, "assemble_matrix", fail)
        with pytest.raises(DimensionTooLarge, match="dimension 16 exceeds cap 8"):
            solve(xxx_spec(4), max_dim=8)
        with pytest.raises(DimensionTooLarge):
            solve(xxx_spec(14))
