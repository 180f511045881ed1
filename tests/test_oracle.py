import json
import re
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from bargmann import cli
from bargmann.chain import (
    OPEN,
    PERIODIC,
    ChainSpec,
    chain_matrix,
    solve,
)
from bargmann.errors import DimensionMismatch, DimensionTooLarge
from bargmann.oracle import (
    compare_spectra,
    oracle_hamiltonian,
    oracle_matrix,
    spin_matrices,
)
from bargmann.thermo import SectorMatrix, Spectrum, _plans, eigensolve

from reference import einsum_oracle

# spin 0 to 2 and N = 1..6 up to dimension 729
CHAIN_SIZES = [(twos, n) for twos in range(5) for n in range(1, 7) if (twos + 1) ** n <= 729]
# normal couplings and exact zeros: below the normal range a rounding errs by a
# subnormal spacing, not by a share of its value
COUPLING_ST = st.one_of(st.sampled_from([0.0, 1e-8, -1e8, 1.0]),
                        st.floats(-3, 3).map(lambda x: round(x, 4)))


@st.composite
def oracle_specs(draw):
    twos, n = draw(st.sampled_from(CHAIN_SIZES))
    return ChainSpec(n_sites=n, spin=Fraction(twos, 2),
                     couplings=draw(st.tuples(COUPLING_ST, COUPLING_ST, COUPLING_ST)),
                     boundary=draw(st.sampled_from([OPEN, PERIODIC] if n > 1 else [OPEN])),
                     hbar=draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(1, 3)])))


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


class TestOracleMatrix:
    """`oracle_matrix`, the bond operator placed on a kept per-shape pattern,
    against `einsum_oracle`, the dense build it replaced, bit for bit."""

    @staticmethod
    def assert_pinned(spec):
        M = oracle_matrix(spec)
        assert isinstance(M, SectorMatrix) and M.n == spec.dimension()
        assert M.vals.dtype == np.float64
        want = einsum_oracle(spec)
        assert M.toarray().real.tobytes() == want.tobytes()
        assert oracle_hamiltonian(spec).tobytes() == want.tobytes()
        return M

    @given(oracle_specs())
    @example(ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1.1, -0.7, 0.4),
                       boundary=PERIODIC))
    @example(ChainSpec(n_sites=4, spin=Fraction(1), couplings=(0.0, 1.3, -0.4),
                       boundary=PERIODIC, hbar=Fraction(3, 2)))
    @example(ChainSpec(n_sites=3, spin=Fraction(3, 2), couplings=(0.0, 0.0, 0.0)))
    @settings(max_examples=80)
    def test_equals_einsum_build(self, spec):
        self.assert_pinned(spec)

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    def test_periodic_two_sites_doubles_the_bond(self, s):
        # both bonds of the ring N=2 join sites 0 and 1: each entry is h + h
        J, hbar = (1.1, -0.7, 0.4), Fraction(2, 3)
        ring = self.assert_pinned(ChainSpec(n_sites=2, spin=s, couplings=J,
                                            boundary=PERIODIC, hbar=hbar))
        bond = oracle_matrix(ChainSpec(n_sites=2, spin=s, couplings=J, hbar=hbar))
        assert ring.toarray().tobytes() == (2 * bond.toarray()).tobytes()

    def test_pattern_kept_per_shape(self):
        _plans.clear()
        xyz = ChainSpec(n_sites=5, spin=Fraction(1), couplings=(1.0, 0.7, 0.3), boundary=PERIODIC)
        first = self.assert_pinned(xyz)
        # other couplings and hbar on the same nonzero pattern of the bond operator
        for J, hbar in [((-0.4, 1.9, 2.5), Fraction(1)), ((1.0, 0.7, 0.3), Fraction(3, 2))]:
            again = self.assert_pinned(ChainSpec(n_sites=5, spin=Fraction(1), couplings=J,
                                                 boundary=PERIODIC, hbar=hbar))
            assert again.pattern is first.pattern
        assert len(_plans) == 1
        # a coupling newly zero drops entries of the bond operator: a shape of its own
        zero = self.assert_pinned(ChainSpec(n_sites=5, spin=Fraction(1), couplings=(1.0, 0.7, 0.0),
                                            boundary=PERIODIC))
        assert zero.pattern is not first.pattern and len(zero.rows) < len(first.rows)
        assert oracle_matrix(xyz).pattern is first.pattern and len(_plans) == 2
        for a in (first.rows, first.cols, first.pattern.at):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        _plans.clear()


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
    """The sector index that `bargmann basis` lists is the oracle's
    tensor-product index: line i's per-site m labels are the eigenvalues of
    each site's S^z = I x .. x sz x .. x I at diagonal entry i."""

    @staticmethod
    def _listing(tmp_path, capsys, n, s):
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"n_sites": n, "spin": str(s), "jx": 1, "jy": 1, "jz": 1}))
        assert cli.main(["basis", "--spec", str(p)]) == 0
        rows = []
        for i, line in enumerate(capsys.readouterr().out.splitlines()):
            index, monomial = line.split(" | ")[0].split(": ")
            assert int(index) == i
            rows.append((monomial, [Fraction(m) for m in re.findall(r"m=([-\d/]+)\)", line)]))
        return rows

    @staticmethod
    def _site_sz(s, n, site):
        sz = spin_matrices(s).sz
        d = sz.shape[0]
        return np.kron(np.kron(np.eye(d ** site), sz), np.eye(d ** (n - site - 1))).diagonal()

    def test_single_site_examples(self, tmp_path, capsys):
        sz = spin_matrices(Fraction(1, 2)).sz.diagonal()
        assert self._listing(tmp_path, capsys, 1, Fraction(1, 2)) == [
            ("w[0]", [sz[0]]), ("z[0]", [sz[1]])]
        assert self._listing(tmp_path, capsys, 1, 1)[1] == ("z[0] * w[0]", [0])
        assert spin_matrices(1).sz[1, 1] == 0

    def test_two_site_example(self, tmp_path, capsys):
        s = Fraction(1, 2)
        monomial, ms = self._listing(tmp_path, capsys, 2, s)[2]
        assert monomial == "z[0] * w[1]" and ms == [s, -s]
        assert [self._site_sz(s, 2, k)[2] for k in (0, 1)] == [0.5, -0.5]

    @pytest.mark.parametrize("n,s", [(2, Fraction(1, 2)), (6, Fraction(1, 2)),
                                     (3, Fraction(1)), (2, Fraction(1))])
    def test_bijection_on_sector(self, tmp_path, capsys, n, s):
        rows = self._listing(tmp_path, capsys, n, s)
        assert len(rows) == ChainSpec(n_sites=n, spin=s, couplings=(1, 1, 1)).dimension()
        assert len({monomial for monomial, _ in rows}) == len(rows)
        site_m = np.array([[float(m) for m in ms] for _, ms in rows])
        for site in range(n):
            assert np.array_equal(site_m[:, site], self._site_sz(s, n, site))
        # the zz-only oracle chain is diagonal in this index: sum of m_k m_(k+1)
        Ho = oracle_hamiltonian(ChainSpec(n_sites=n, spin=s, couplings=(0, 0, 1)))
        assert np.array_equal(Ho, np.diag(np.diag(Ho)))
        assert np.allclose(np.diag(Ho), (site_m[:, :-1] * site_m[:, 1:]).sum(axis=1),
                           atol=1e-14)


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

    def test_tolerance_is_relative_beyond_one(self):
        a = Spectrum(np.array([-3e8, 1.0, 2e8]))
        near = Spectrum(np.array([-3e8 + 0.25, 1.0, 2e8]))
        far = Spectrum(np.array([-3e8 + 0.5, 1.0, 2e8]))
        assert compare_spectra(a, near, 1e-9).passed       # 0.25 <= 1e-9 * 3e8
        assert not compare_spectra(a, far, 1e-9).passed
        rep = compare_spectra(a, far, 1e-9)
        assert rep.tol == 1e-9 and rep.bound == pytest.approx(0.3)

    def test_tolerance_is_absolute_within_one(self):
        a = Spectrum(np.array([-0.5, 1e-3]))
        assert compare_spectra(a, Spectrum(np.array([-0.5, 1e-3 + 9e-10])), 1e-9).passed
        assert not compare_spectra(a, Spectrum(np.array([-0.5, 1e-3 + 2e-9])), 1e-9).passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compare_spectra(Spectrum(np.array([0.0])), Spectrum(np.array([0.0, 1.0])), 1)


class TestEntryWiseAgreement:
    @given(oracle_specs())
    @settings(max_examples=80)
    def test_sector_matrix_is_the_oracle(self, spec):
        # the sector index is the tensor-product index, entry for entry
        M = chain_matrix(spec).toarray()
        assert np.abs(M - oracle_matrix(spec).toarray()).max() <= 1e-12 * np.abs(M).max()

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1)])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    def test_two_sites(self, s, boundary):
        spec = ChainSpec(n_sites=2, spin=s, couplings=(1.1, -0.7, 0.4),
                         boundary=boundary)
        # the sector index is the tensor-product index: digit a is m = a - s, site 0 slowest
        M = chain_matrix(spec).toarray()
        assert np.abs(M - oracle_hamiltonian(spec)).max() <= 1e-10


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
