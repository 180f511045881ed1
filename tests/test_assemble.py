"""The local-block sector assembler against the per-state reference loop.

The reference applies every term to every basis state, as the assembler did
before it scattered local actions, and hands the amplitudes to scipy's CSR in
the same order; the assembler's triplets must equal the CSR's nonzero
entries exactly, not just closely.
"""

from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    OperatorTerm,
    apply_term,
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
    _check_sector_preserving,
    assemble_matrix,
    build_hamiltonian,
    sector_basis,
    solve,
)
from bargmann.errors import AmplitudeOverflow
from bargmann.thermo import eigensolve

from conftest import operator_terms

HALF = Fraction(1, 2)


def reference_assemble(H, basis):
    """Column-by-column, term-by-term loop over the enumerated basis states."""
    _check_sector_preserving(H)
    rows, cols, vals = [], [], []
    for col, ket in enumerate(basis.states):
        for t in H.terms():
            r = apply_term(t, ket)
            if r is None:
                continue
            m2, amp = r
            rows.append(basis.index_of(m2))
            cols.append(col)
            vals.append(amp)
    n = len(basis)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.complex128).tocsr()


def assert_same_triplets(H, spec):
    got = assemble_matrix(H, sector_basis(spec))
    want = reference_assemble(H, sector_basis(spec)).toarray()
    rows, cols = np.nonzero(want)
    assert got.shape == want.shape
    for name, b in (("rows", rows), ("cols", cols), ("vals", want[rows, cols])):
        a = getattr(got, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    return got


LADDER = [(HALF, 6), (Fraction(1), 4), (Fraction(3, 2), 3), (Fraction(2), 3)]


@pytest.mark.parametrize("spin,n", LADDER)
@pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_chain_ladder(spin, n, boundary, mode):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(0.7, -1.3, 0.45),
                     boundary=boundary, hbar=Fraction(2, 3), mode=mode)
    M = assert_same_triplets(build_hamiltonian(spec), spec)
    assert M.nnz > 0
    want = eigensolve(reference_assemble(build_hamiltonian(spec), sector_basis(spec)),
                      compute_vectors=False)
    got = solve(spec)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.residual_bound == want.residual_bound


def test_overflowing_sum_is_rejected():
    # each S^z S^z amplitude is finite, but the periodic N=3 diagonal sums three
    spec = ChainSpec(n_sites=3, spin=HALF, couplings=(0, 0, 1.7e308), boundary=PERIODIC,
                     hbar=Fraction(19, 10))
    with pytest.raises(AmplitudeOverflow, match="summed matrix element"):
        assemble_matrix(build_hamiltonian(spec), sector_basis(spec))


@st.composite
def preserving_terms(draw):
    """A conftest term whose multiplications are redrawn so that every site
    gets back as many bosons as the derivatives remove."""
    t = draw(operator_terms(max_exponent=3, max_vars=4))
    removed: dict[int, int] = {}
    for v, e in t.deriv.items():
        removed[v.site] = removed.get(v.site, 0) + e
    mult = {}
    for site, count in removed.items():
        a = draw(st.integers(0, count))
        mult[z_var(site)] = a
        mult[w_var(site)] = count - a
    return OperatorTerm(t.coeff, MultiIndex(mult), t.deriv)


@given(st.lists(preserving_terms(), max_size=4).map(OperatorPolynomial.from_terms),
       st.integers(0, 3), st.integers(1, 4))
@settings(max_examples=150)
def test_random_sector_preserving_operators(H, twos, n):
    # conftest sites run 0..3, so n < 4 also puts terms outside the chain
    assert_same_triplets(H, ChainSpec(n_sites=n, spin=Fraction(twos, 2), couplings=(1, 1, 1)))


EDGE_OPERATORS = {
    "zero": OperatorPolynomial.zero(),
    "constant": OperatorPolynomial.identity(Fraction(5, 3)),
    "casimir": total_operator("squared", range(3)),
    "off_chain": j_operator(7, "z"),
    "above_2s": single_term(Fraction(1, 2), {z_var(0): 3, w_var(1): 1},
                            {z_var(0): 3, w_var(1): 1}),
}


@pytest.mark.parametrize("name", sorted(EDGE_OPERATORS))
@pytest.mark.parametrize("twos", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_edge_operators(name, twos, n):
    H = EDGE_OPERATORS[name]
    assert_same_triplets(H, ChainSpec(n_sites=n, spin=Fraction(twos, 2), couplings=(1, 1, 1)))


def test_edge_operator_values():
    spec = ChainSpec(n_sites=2, spin=HALF, couplings=(1, 1, 1))
    basis = sector_basis(spec)
    assert assemble_matrix(EDGE_OPERATORS["zero"], basis).nnz == 0
    assert assemble_matrix(EDGE_OPERATORS["off_chain"], basis).nnz == 0
    assert assemble_matrix(EDGE_OPERATORS["above_2s"], basis).nnz == 0
    const = assemble_matrix(EDGE_OPERATORS["constant"], basis).toarray()
    assert np.array_equal(const, np.eye(4) * (5 / 3))


def test_assembly_leaves_states_unbuilt():
    spec = ChainSpec(n_sites=5, spin=Fraction(1), couplings=(1, 0.5, 2), boundary=PERIODIC)
    basis = sector_basis(spec)
    assemble_matrix(build_hamiltonian(spec), basis)
    assert "states" not in vars(basis)
    assert len(basis) == spec.dimension() == len(basis.states)


@pytest.mark.parametrize("spin,n", LADDER + [(Fraction(0), 4), (HALF, 1)])
def test_closed_form_length(spin, n):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(1, 1, 1))
    basis = sector_basis(spec)
    assert len(basis) == spec.dimension()
    assert "states" not in vars(basis)
    assert len(basis.states) == len(basis)
