import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    adjoint,
    commutator,
    compose,
    matrix_element,
    single_term,
    w_var,
    z_var,
)
from bargmann.angular import j_operator, total_operator
from bargmann.chain import (
    COMPOSITIONAL,
    OPEN,
    PAPER_LITERAL,
    PERIODIC,
    ChainSpec,
    _bond_tables,
    build_hamiltonian,
    chain_matrix,
    mode_difference,
    solve,
    symmetry_reduction,
)
from bargmann.errors import AmplitudeOverflow, DimensionTooLarge, SectorViolation
from bargmann.thermo import SectorMatrix, eigensolve

from reference import (
    as_sector_matrix,
    entry_deviation,
    index_of,
    reference_assemble,
    states,
    total_magnetization,
    whole_chain_matrix,
)

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

    def test_from_json(self):
        spec = ChainSpec.from_json({"n_sites": 3, "spin": "3/2", "jx": 1.0, "jy": 0.5,
                                    "jz": -0.25, "boundary": "periodic", "hbar": "2/3",
                                    "mode": "paper_literal"})
        assert spec == ChainSpec(n_sites=3, spin=Fraction(3, 2), couplings=(1.0, 0.5, -0.25),
                                 boundary=PERIODIC, hbar=Fraction(2, 3), mode=PAPER_LITERAL)

    def test_coupling_beyond_float_range(self):
        for field in ("jx", "jy", "jz"):
            obj = {"n_sites": 2, "spin": "1/2", "jx": 1, "jy": 1, "jz": 1, field: 10 ** 400}
            with pytest.raises(ValueError, match=f"^{field} must be a finite number, got one "
                                                 f"beyond the float range$"):
                ChainSpec.from_json(obj)
        with pytest.raises(ValueError, match="^jz must be a finite number"):
            ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, 1, Fraction(10 ** 400, 3)))

    def test_dimension(self):
        assert xxx_spec(3).dimension() == 8
        assert xxx_spec(2, s=Fraction(1)).dimension() == 9


class TestSectorBasis:
    def test_single_site_spin_half(self):
        assert list(states(xxx_spec(1))) == [MultiIndex({w_var(0): 1}),
                                             MultiIndex({z_var(0): 1})]

    def test_single_site_spin_one(self):
        assert list(states(xxx_spec(1, s=Fraction(1)))) == [
            MultiIndex({w_var(0): 2}),
            MultiIndex({z_var(0): 1, w_var(0): 1}),
            MultiIndex({z_var(0): 2}),
        ]

    def test_two_sites(self):
        z0, w0, z1, w1 = z_var(0), w_var(0), z_var(1), w_var(1)
        assert list(states(xxx_spec(2))) == [
            MultiIndex({w0: 1, w1: 1}),
            MultiIndex({w0: 1, z1: 1}),
            MultiIndex({z0: 1, w1: 1}),
            MultiIndex({z0: 1, z1: 1}),
        ]

    def test_counts_and_per_site_constraint(self):
        for n, s in ((3, Fraction(1, 2)), (2, Fraction(1)), (2, Fraction(3, 2))):
            spec = xxx_spec(n, s=s)
            assert len(states(spec)) == spec.dimension()
            twos = int(2 * s)
            for m in states(spec):
                for site in range(n):
                    assert m.get(z_var(site)) + m.get(w_var(site)) == twos

    def test_index_of(self):
        spec = xxx_spec(2)
        for i, m in enumerate(states(spec)):
            assert index_of(spec, m) == i
        with pytest.raises(SectorViolation):
            index_of(spec, MultiIndex({z_var(0): 2}))


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
        M = chain_matrix(spec).toarray()
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

    @pytest.mark.parametrize("couplings", [(1, 1, 0.5), (0.7, 0, -1.3), (1e-8, -1e-8, 1e8),
                                           (-2, -0.3, 0), (0, 0, 0)])
    @pytest.mark.parametrize("hbar", [Fraction(1), Fraction(2, 3)])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    def test_template_bond_matches_per_bond_reference(self, couplings, hbar, boundary):
        # periodic N=2 has the bond (0, 1) twice, as (0, 1) and (1, 0)
        for twos, n in itertools.product(range(5), range(1 if boundary == OPEN else 2, 7)):
            spec = ChainSpec(n_sites=n, spin=Fraction(twos, 2), couplings=couplings,
                             boundary=boundary, hbar=hbar)
            H, want = build_hamiltonian(spec), per_bond_hamiltonian(spec)
            assert H == want
            assert list(H.items()) == list(want.items())


def per_bond_hamiltonian(spec):
    """The compositional H composed bond by bond, as before the template bond."""
    h = spec.hbar
    return OperatorPolynomial.sum(
        compose(j_operator(i, axis, h), j_operator(j, axis, h)).scaled(Fraction(J))
        for (i, j) in spec.bonds()
        for J, axis in zip(spec.couplings, ("x", "y", "z"))
        if J != 0.0)


class TestSectorMatrix:
    def test_total_z_single_site(self):
        M = reference_assemble(total_operator("z", [0]), xxx_spec(1)).toarray()
        assert np.allclose(M, np.diag([-0.5, 0.5]), atol=1e-15)

    def test_zero_couplings(self):
        for boundary in (OPEN, PERIODIC):
            M = chain_matrix(xxx_spec(3, j=0.0, boundary=boundary))
            assert M.n == 8 and M.nnz == 0

    def test_xxx_two_site_matrix(self):
        M = chain_matrix(xxx_spec(2)).toarray()
        want = np.diag([0.25, -0.25, -0.25, 0.25]).astype(complex)
        want[1, 2] = want[2, 1] = 0.5
        assert np.abs(M - want).max() < 1e-14

    def test_entries_match_matrix_element(self):
        spec = ChainSpec(n_sites=2, spin=Fraction(1), couplings=(0.7, -.3, 1.1),
                         boundary=PERIODIC)
        H = build_hamiltonian(spec)
        M = chain_matrix(spec).toarray()
        for r, c in itertools.product(range(spec.dimension()), repeat=2):
            want = matrix_element(states(spec)[r], H, states(spec)[c])
            assert abs(M[r, c] - want) <= 1e-13

    def test_hermitian_to_tolerance(self):
        spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=(0.9, 0.4, -1.3),
                         boundary=PERIODIC)
        M = chain_matrix(spec).toarray()
        assert np.abs(M - M.conj().T).max() < 1e-12

    def test_sector_violation(self, monkeypatch, cold_bond_tables):
        import bargmann.chain as chainmod
        bare_z = single_term(1, {z_var(0): 1}, {})
        monkeypatch.setattr(chainmod, "_bond", lambda couplings, hbar, mode: bare_z)
        with pytest.raises(SectorViolation):
            chain_matrix(xxx_spec(2))


class TestMagnetizationBlocks:
    def test_two_sites(self):
        ms = Counter(total_magnetization(m, 2) for m in states(xxx_spec(2)))
        assert sorted(ms.items()) == [(Fraction(-1), 1), (Fraction(0), 2), (Fraction(1), 1)]

    def test_three_sites_binomial(self):
        ms = Counter(total_magnetization(m, 3) for m in states(xxx_spec(3)))
        assert [ms[m] for m in sorted(ms)] == [1, 3, 3, 1]

    def test_block_union_is_full_spectrum(self):
        spec = xxx_spec(4)
        M = chain_matrix(spec).toarray()
        full = np.sort(np.linalg.eigvalsh(M))
        ms = [total_magnetization(m, spec.n_sites) for m in states(spec)]
        pieces = []
        for m in sorted(set(ms)):
            ix = [i for i, mi in enumerate(ms) if mi == m]
            sub = M[np.ix_(ix, ix)]
            pieces.extend(np.linalg.eigvalsh(sub))
            # H conserves total magnetization, so off-block entries vanish
            rest = [i for i in range(spec.dimension()) if i not in ix]
            assert np.abs(M[np.ix_(ix, rest)]).max(initial=0.0) < 1e-14
        assert np.abs(np.sort(pieces) - full).max() < 1e-9

    def test_total_magnetization_values(self):
        ms = [total_magnetization(m, 2) for m in states(xxx_spec(2))]
        assert ms == [Fraction(-1), Fraction(0), Fraction(0), Fraction(1)]


class TestSolve:
    @pytest.mark.parametrize("spin,n", [(Fraction(1, 2), 4), (Fraction(1), 3),
                                        (Fraction(3, 2), 3), (Fraction(2), 2)])
    @pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
    @pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
    def test_matches_hand_wired_pipeline(self, spin, n, boundary, mode):
        spec = ChainSpec(n_sites=n, spin=spin, couplings=(1.0, 0.7, 0.3),
                         boundary=boundary, mode=mode)
        chain = chain_matrix(spec)
        expected = eigensolve(chain, compute_vectors=False, reduce=symmetry_reduction(spec))
        got = solve(spec)
        assert np.array_equal(got.eigenvalues, expected.eigenvalues)
        assert got.residual_bound == expected.residual_bound
        assert got.eigenvectors is None
        M = whole_chain_matrix(spec)
        assert entry_deviation(chain, M) <= 1e-15 * np.abs(M.vals).max()
        plain = eigensolve(M, compute_vectors=False).eigenvalues
        assert np.abs(got.eigenvalues - plain).max() <= 1e-12 * np.abs(plain).max()
        if boundary == OPEN and mode == PAPER_LITERAL:
            # the literal z line breaks reflection and flip, so nothing is reduced
            assert np.array_equal(got.eigenvalues,
                                  eigensolve(chain, compute_vectors=False).eigenvalues)

    def test_cap_checked_before_building(self, monkeypatch, cold_bond_tables):
        import bargmann.chain as chainmod

        def fail(*args):
            raise AssertionError("bond tables filled beyond the cap")

        monkeypatch.setattr(chainmod, "_bond_tables", fail)
        monkeypatch.setenv("BARGMANN_MAX_DIM", "8")
        with pytest.raises(DimensionTooLarge, match="dimension 16 exceeds cap 8"):
            solve(xxx_spec(4))
        monkeypatch.delenv("BARGMANN_MAX_DIM")
        with pytest.raises(DimensionTooLarge):
            solve(xxx_spec(14))


# spin and length up to dimension 729: spin 0 to 1 at N = 1..6, spin 3/2 and 2 at N = 1..4
CHAIN_SIZES = [(twos, n) for twos in range(5) for n in range(1, 7) if (twos + 1) ** n <= 729]
COUPLING_ST = st.one_of(st.sampled_from([0.0, 1e-8, -1e-8, 1e8, -1e8, 1.0, -1.0]),
                        st.floats(-3, 3, allow_nan=False))


@st.composite
def chain_specs(draw):
    twos, n = draw(st.sampled_from(CHAIN_SIZES))
    boundary = draw(st.sampled_from([OPEN, PERIODIC] if n > 1 else [OPEN]))
    return ChainSpec(n_sites=n, spin=Fraction(twos, 2),
                     couplings=draw(st.tuples(COUPLING_ST, COUPLING_ST, COUPLING_ST)),
                     boundary=boundary,
                     hbar=draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(3)])),
                     mode=draw(st.sampled_from([COMPOSITIONAL, PAPER_LITERAL])))


class TestChainMatrix:
    """The sector matrix of `solve`, from bond tables placed on every bond,
    against the whole-chain polynomial assembled state by state."""

    @given(chain_specs())
    @example(ChainSpec(n_sites=2, spin=Fraction(1), couplings=(0.0, 0.0, 1e-310)))
    @settings(max_examples=200)
    def test_matches_whole_chain_build(self, spec):
        H = build_hamiltonian(spec)
        got, want = chain_matrix(spec), as_sector_matrix(reference_assemble(H, spec))
        assert got.n == want.n == spec.dimension()
        # A rounding that underflows errs by up to half the subnormal spacing, not by
        # a share of its value.  The whole-chain build rounds each term's coefficient
        # and then scales it by a root of at most (2s)^2; the bond tables round each
        # J_a T_a once.  So below the normal range the two differ by a few spacings
        # per term (at J_z = 1e-310, spin 1: one spacing in a largest entry of 1e-310).
        underflow = len(H.terms()) * (int(2 * spec.spin) ** 2 + 1) * np.finfo(float).smallest_subnormal
        assert entry_deviation(got, want) <= 1e-15 * np.abs(want.vals).max(initial=0.0) + underflow

    def test_tables_cached_per_spin_hbar_and_mode(self, cold_bond_tables):
        # couplings, length and boundary are not in the key
        for n, couplings, boundary in [(3, (1.0, 0.7, 0.3), OPEN), (5, (0.0, -2.0, 1e8), PERIODIC),
                                       (2, (1.0, 1.0, 1.0), PERIODIC)]:
            solve(ChainSpec(n_sites=n, spin=Fraction(1, 2), couplings=couplings, boundary=boundary))
        assert (_bond_tables.cache_info().misses, _bond_tables.cache_info().hits) == (1, 2)
        for spin, hbar, mode in [(Fraction(1, 2), Fraction(2, 3), COMPOSITIONAL),
                                 (Fraction(1, 2), Fraction(1), PAPER_LITERAL),
                                 (Fraction(1), Fraction(1), COMPOSITIONAL)]:
            solve(ChainSpec(n_sites=3, spin=spin, couplings=(1, 1, 1), hbar=hbar, mode=mode))
        assert _bond_tables.cache_info().misses == 4
        tables = _bond_tables(1, Fraction(1), COMPOSITIONAL)
        assert len(tables) == 3
        for T in tables:
            assert isinstance(T, SectorMatrix) and T.n == 4
            for a in (T.rows, T.cols, T.vals):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0

    def test_one_site_fills_no_tables(self, monkeypatch, cold_bond_tables):
        import bargmann.chain as chainmod

        def fail(*args):
            raise AssertionError("bond tables filled for a chain without bonds")

        monkeypatch.setattr(chainmod, "_bond_tables", fail)
        for twos in range(4):
            spec = ChainSpec(n_sites=1, spin=Fraction(twos, 2), couplings=(1.0, 0.7, 0.3))
            assert np.array_equal(solve(spec).eigenvalues, np.zeros(twos + 1))

    @pytest.mark.parametrize("hbar", [Fraction(19, 10), Fraction(3)])
    def test_entry_beyond_float_range(self, hbar):
        # at 19/10 each S^z S^z entry J_z T_z is finite and the sum of three is not;
        # at 3 one entry is beyond the float range, and so is the whole-chain amplitude
        spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=(0, 0, 1.7e308),
                         boundary=PERIODIC, hbar=hbar)
        if hbar == 3:
            with pytest.raises(AmplitudeOverflow):
                whole_chain_matrix(spec)
        with pytest.raises(AmplitudeOverflow, match="summed matrix element"):
            chain_matrix(spec)
        with pytest.raises(AmplitudeOverflow, match="summed matrix element"):
            solve(spec)

    def test_spin_zero_at_any_length(self):
        # T and P are the identity at dimension 1; kept, they would make a group of
        # 2N elements with a 2N x 2N character table (hundreds of MB at N=2000)
        spec = ChainSpec(n_sites=2000, spin=Fraction(0), couplings=(1.0, 0.7, 0.3),
                         boundary=PERIODIC)
        tracemalloc.start()
        try:
            got = solve(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.eigenvalues.tolist() == [0.0]
        assert peak < 16 * 2 ** 20


class TestOneCap:
    """`solve`, `eigensolve` and `oracle_hamiltonian` obey BARGMANN_MAX_DIM,
    read on each call, and raise before building anything."""

    @pytest.fixture(autouse=True)
    def no_builders(self, monkeypatch, cold_bond_tables):
        import bargmann.chain as chainmod
        import bargmann.oracle as oraclemod

        def fail(*args, **kwargs):
            raise AssertionError("built beyond the cap")

        for module, name in [(chainmod, "build_hamiltonian"), (chainmod, "_bond"),
                             (chainmod, "_bond_tables"), (oraclemod, "spin_matrices"),
                             (ChainSpec, "dimension")]:
            monkeypatch.setattr(module, name, fail)

    def test_api_reads_the_variable(self, monkeypatch):
        from bargmann.oracle import oracle_hamiltonian
        for cap in ("3", "7"):
            monkeypatch.setenv("BARGMANN_MAX_DIM", cap)
            message = f"dimension 8 exceeds cap {cap}"
            with pytest.raises(DimensionTooLarge, match=message):
                solve(xxx_spec(3))
            with pytest.raises(DimensionTooLarge, match=message):
                oracle_hamiltonian(xxx_spec(3))
            with pytest.raises(DimensionTooLarge, match=message):
                eigensolve(np.eye(8))

    def test_bounds(self, monkeypatch):
        from bargmann.thermo import check_cap
        monkeypatch.setenv("BARGMANN_MAX_DIM", "0")
        check_cap(0)
        with pytest.raises(DimensionTooLarge, match="^dimension 1 exceeds cap 0$"):
            check_cap(1, 10 ** 9)
        monkeypatch.setenv("BARGMANN_MAX_DIM", "1")
        check_cap(1, 10 ** 9)
        monkeypatch.setenv("BARGMANN_MAX_DIM", str(2 ** 64))
        check_cap(2, 64)
        with pytest.raises(DimensionTooLarge, match=r"^dimension 3\*\*41 exceeds cap"):
            check_cap(3, 41)
        monkeypatch.setenv("BARGMANN_MAX_DIM", "")
        check_cap(2, 13)
        with pytest.raises(DimensionTooLarge,
                           match="^dimension 18446744073709551615 exceeds cap 8192$"):
            check_cap(2 ** 64 - 1)
        with pytest.raises(DimensionTooLarge, match=r"^dimension 2\*\*64 exceeds cap 8192$"):
            check_cap(2, 64)
        with pytest.raises(DimensionTooLarge, match=r"^dimension 5\*\*10000000000 exceeds"):
            check_cap(5, 10 ** 10)
