from fractions import Fraction

import numpy as np
import pytest

from bargmann.algebra import MultiIndex, w_var, z_var
from bargmann.chain import (
    OPEN,
    PERIODIC,
    ChainSpec,
    chain_matrix,
    solve,
)
from bargmann.errors import DimensionMismatch, DimensionTooLarge, SectorViolation
from bargmann.oracle import (
    basis_isomorphism,
    compare_spectra,
    oracle_hamiltonian,
    spin_matrices,
)
from bargmann.thermo import Spectrum, eigensolve

from reference import states


class TestSpinMatrices:
    def test_spin_half(self):
        m = spin_matrices(Fraction(1, 2))
        assert np.allclose(m.sz, np.diag([-0.5, 0.5]))
        assert np.allclose(m.sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(m.sy, [[0, 0.5j], [-0.5j, 0]])

    def test_spin_zero(self):
        m = spin_matrices(0)
        for a in (m.sx, m.sy, m.sz):
            assert a.shape == (1, 1) and not a.any()

    def test_spin_one_ladder(self):
        m = spin_matrices(1)
        assert np.allclose(np.abs(m.sx[0, 1]), 1 / np.sqrt(2))
        assert np.allclose(np.abs(m.sx[1, 2]), 1 / np.sqrt(2))

    @pytest.mark.parametrize("twos", range(7))  # s = 0 .. 3
    def test_su2_and_hermiticity(self, twos):
        s = Fraction(twos, 2)
        m = spin_matrices(s)
        assert np.abs(m.sx @ m.sy - m.sy @ m.sx - 1j * m.sz).max(initial=0) < 1e-12
        assert np.abs(m.sy @ m.sz - m.sz @ m.sy - 1j * m.sx).max(initial=0) < 1e-12
        assert np.abs(m.sz @ m.sx - m.sx @ m.sz - 1j * m.sy).max(initial=0) < 1e-12
        for a in (m.sx, m.sy, m.sz):
            assert np.abs(a - a.conj().T).max(initial=0) < 1e-15

    def test_hbar_scaling(self):
        assert np.allclose(spin_matrices(Fraction(1, 2), hbar=2.0).sz,
                           np.diag([-1.0, 1.0]))


class TestOracleHamiltonian:
    def test_zz_by_hand(self):
        spec = ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(0, 0, 1))
        H = oracle_hamiltonian(spec)
        assert np.allclose(H, np.diag([0.25, -0.25, -0.25, 0.25]))

    def test_all_zero_couplings(self):
        spec = ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(0, 0, 0))
        assert not oracle_hamiltonian(spec).any()

    def test_singlet_triplet(self):
        spec = ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, 1, 1))
        eigs = np.linalg.eigvalsh(oracle_hamiltonian(spec))
        assert np.allclose(np.sort(eigs), [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_dimension_cap(self, monkeypatch):
        spec = ChainSpec(n_sites=14, spin=Fraction(1, 2), couplings=(1, 1, 1))
        with pytest.raises(DimensionTooLarge):
            oracle_hamiltonian(spec)
        monkeypatch.setenv("BARGMANN_MAX_DIM", "4")
        oracle_hamiltonian(ChainSpec(n_sites=2, spin=Fraction(1, 2),
                                     couplings=(1, 1, 1)))

    @pytest.mark.parametrize("n,s", [(6, Fraction(1, 2)), (4, Fraction(1)),
                                     (4, Fraction(3, 2)), (3, Fraction(2))])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    def test_matches_per_axis_kron_reference(self, n, s, boundary):
        spec = ChainSpec(n_sites=n, spin=s, couplings=(1.1, -0.7, 0.4),
                         boundary=boundary, hbar=Fraction(3, 2))
        ref = _per_axis_kron_oracle(spec)
        H = oracle_hamiltonian(spec)
        assert isinstance(H, np.ndarray) and H.shape == ref.shape
        assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()


    @pytest.mark.parametrize("spec", [
        ChainSpec(n_sites=n, spin=s, couplings=couplings, boundary=boundary, hbar=hbar)
        for n, s in [(5, Fraction(1, 2)), (4, Fraction(1)), (3, Fraction(3, 2)),
                     (3, Fraction(2)), (2, Fraction(1, 2)), (2, Fraction(3, 2))]
        for boundary in (OPEN, PERIODIC)
        for couplings, hbar in [((1.1, -0.7, 0.4), Fraction(3, 2)),
                                ((0.3, 0.0, -2.5), Fraction(1)),
                                ((1.0, 1.0, 1.0), Fraction(1, 3))]
    ] + [ChainSpec(n_sites=1, spin=s, couplings=(1, 1, 1)) for s in (0, Fraction(1, 2), 2)]
      + [ChainSpec(n_sites=3, spin=0, couplings=(1, 2, 3), boundary=PERIODIC)],
        ids=repr)
    def test_equals_per_bond_kron_build(self, spec):
        H = oracle_hamiltonian(spec)
        ref = _per_bond_kron_oracle(spec)
        assert H.dtype == np.float64 and H.flags.c_contiguous
        assert not ref.imag.any()
        assert np.array_equal(H, ref)


def _per_bond_kron_oracle(spec):
    """Each bond's axis terms summed on sites a..b as J S (x) I_mid (x) S and
    embedded with dense np.kron between identities: the construction the
    strided per-bond update replaced."""
    mats = spin_matrices(spec.spin, float(spec.hbar))
    d = int(2 * spec.spin) + 1
    n = spec.n_sites
    H = np.zeros((spec.dimension(),) * 2, dtype=np.complex128)
    for (i, j) in spec.bonds():
        a, b = min(i, j), max(i, j)
        mid = np.eye(d ** (b - a - 1))
        h = np.zeros((d ** (b - a + 1),) * 2, dtype=np.complex128)
        for J, S in zip(spec.couplings, (mats.sx, mats.sy, mats.sz)):
            if J != 0.0:
                h += J * np.kron(np.kron(S, mid), S)
        H += np.kron(np.kron(np.eye(d ** a), h), np.eye(d ** (n - b - 1)))
    return H


def _per_axis_kron_oracle(spec):
    """One full-size np.kron chain per bond and axis: the construction the
    per-bond oracle build replaced."""
    mats = spin_matrices(spec.spin, float(spec.hbar))
    d = int(2 * spec.spin) + 1
    H = np.zeros((spec.dimension(),) * 2, dtype=np.complex128)
    for (i, j) in spec.bonds():
        for J, S in zip(spec.couplings, (mats.sx, mats.sy, mats.sz)):
            if J == 0.0:
                continue
            ops = [np.eye(d, dtype=np.complex128)] * spec.n_sites
            ops[i] = S
            ops[j] = S
            out = ops[0]
            for op in ops[1:]:
                out = np.kron(out, op)
            H += J * out
    return H


class TestBasisIsomorphism:
    def test_single_site_examples(self):
        assert basis_isomorphism(MultiIndex({w_var(0): 1}), Fraction(1, 2), 1) == 0
        assert basis_isomorphism(MultiIndex({z_var(0): 1}), Fraction(1, 2), 1) == 1
        zw = MultiIndex({z_var(0): 1, w_var(0): 1})
        assert basis_isomorphism(zw, 1, 1) == 1

    def test_two_site_example(self):
        m = MultiIndex({z_var(0): 1, w_var(1): 1})
        assert basis_isomorphism(m, Fraction(1, 2), 2) == 2

    @pytest.mark.parametrize("n,s", [(2, Fraction(1, 2)), (6, Fraction(1, 2)),
                                     (3, Fraction(1)), (2, Fraction(1))])
    def test_bijection_on_sector(self, n, s):
        spec = ChainSpec(n_sites=n, spin=s, couplings=(1, 1, 1))
        images = [basis_isomorphism(m, s, n) for m in states(spec)]
        assert images == list(range(spec.dimension()))

    def test_sector_violations(self):
        with pytest.raises(SectorViolation):
            basis_isomorphism(MultiIndex({z_var(0): 2}), Fraction(1, 2), 1)
        with pytest.raises(SectorViolation):
            basis_isomorphism(MultiIndex({z_var(0): 1, z_var(5): 1}), Fraction(1, 2), 1)


class TestCompareSpectra:
    def test_identical(self):
        s = Spectrum(np.array([0.0, 1.0, 2.0]))
        rep = compare_spectra(s, s, 1e-9)
        assert rep.passed and rep.max_abs_diff == 0.0

    def test_shifted_fails(self):
        a = Spectrum(np.array([0.0, 1.0]))
        b = Spectrum(np.array([1.0, 2.0]))
        rep = compare_spectra(a, b, 1e-9)
        assert not rep.passed
        assert rep.max_abs_diff == pytest.approx(1.0)
        assert "FAIL" in str(rep)

    def test_tolerance_is_relative_beyond_one(self):
        a = Spectrum(np.array([-3e8, 1.0, 2e8]))
        near = Spectrum(np.array([-3e8 + 0.25, 1.0, 2e8]))
        far = Spectrum(np.array([-3e8 + 0.5, 1.0, 2e8]))
        assert compare_spectra(a, near, 1e-9).passed       # 0.25 <= 1e-9 * 3e8
        assert not compare_spectra(a, far, 1e-9).passed
        rep = compare_spectra(a, far, 1e-9)
        assert rep.tol == 1e-9 and rep.bound == pytest.approx(0.3)
        assert "bound 3.000e-01 from tol 1.000e-09" in str(rep)

    def test_tolerance_is_absolute_within_one(self):
        a = Spectrum(np.array([-0.5, 1e-3]))
        assert compare_spectra(a, Spectrum(np.array([-0.5, 1e-3 + 9e-10])), 1e-9).passed
        assert not compare_spectra(a, Spectrum(np.array([-0.5, 1e-3 + 2e-9])), 1e-9).passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compare_spectra(Spectrum(np.array([0.0])), Spectrum(np.array([0.0, 1.0])), 1)


class TestEntryWiseAgreement:
    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    def test_two_sites(self, s, boundary):
        spec = ChainSpec(n_sites=2, spin=s, couplings=(1.1, -0.7, 0.4),
                         boundary=boundary)
        M = chain_matrix(spec).toarray()
        Ho = oracle_hamiltonian(spec)
        perm = [basis_isomorphism(m, s, 2) for m in states(spec)]
        P = np.zeros_like(Ho)
        for i, p in enumerate(perm):
            P[p, i] = 1.0
        transported = P @ M @ P.T
        assert np.abs(transported - Ho).max() <= 1e-10


class TestSpectrumEquivalenceQuick:
    @pytest.mark.parametrize("n,s", [(3, Fraction(1, 2)), (5, Fraction(1, 2)),
                                     (3, Fraction(1))])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    def test_random_xyz(self, n, s, boundary):
        rng = np.random.default_rng(hash((n, str(s), boundary)) % 2**32)
        couplings = tuple(np.round(rng.uniform(-2, 2, 3), 5))
        spec = ChainSpec(n_sites=n, spin=s, couplings=couplings, boundary=boundary)
        so = eigensolve(oracle_hamiltonian(spec), compute_vectors=False)
        rep = compare_spectra(solve(spec), so, 1e-9)
        assert rep.passed, str(rep)
