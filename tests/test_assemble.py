"""The bond tables, the chain's sector matrix and `apply` on sector states
against the per-state reference loop.

The reference applies every term to every basis state and hands the
amplitudes to scipy's CSR in that order; the tables' triplets, and those of
`apply` on every basis monomial, must equal the CSR's nonzero entries
exactly, not just closely.
"""

import dataclasses
import itertools
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    OperatorTerm,
    PolynomialState,
    RationalComplex,
    apply,
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
    UNREDUCED_MAX_DIM,
    ChainSpec,
    _bond,
    _bond_tables,
    _plan,
    build_hamiltonian,
    chain_matrix,
    solve,
    symmetry_reduction,
)
from bargmann.thermo import SectorMatrix, eigensolve

from conftest import operator_terms
from reference import (as_sector_matrix, digit_table_plan, entry_deviation, index_of,
                       reference_assemble, states)

HALF = Fraction(1, 2)


def assert_same_triplets(got, want):
    """`got` (a SectorMatrix) has the nonzero entries of the scipy matrix
    `want`, with the same dtypes and bits."""
    want = want.toarray()
    rows, cols = np.nonzero(want)
    assert got.shape == want.shape
    for name, b in (("rows", rows), ("cols", cols), ("vals", want[rows, cols])):
        a = getattr(got, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("twos", range(5))
@pytest.mark.parametrize("hbar", [Fraction(1), Fraction(2, 3), Fraction(3)])
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_bond_tables_match_reference(twos, hbar, mode, cold_bond_tables):
    # the open two-site chain has the one bond (0, 1)
    pair = ChainSpec(n_sites=2, spin=Fraction(twos, 2), couplings=(1, 1, 1))
    tables = _bond_tables(twos, hbar, mode)
    for T, unit in zip(tables, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        assert_same_triplets(T, reference_assemble(_bond(unit, hbar, mode), pair))
        assert (T.nnz > 0) == (twos > 0)


LADDER = [(HALF, 6), (Fraction(1), 4), (Fraction(3, 2), 3), (Fraction(2), 3)]


@pytest.mark.parametrize("spin,n", LADDER)
@pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_chain_ladder(spin, n, boundary, mode):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(0.7, -1.3, 0.45),
                     boundary=boundary, hbar=Fraction(2, 3), mode=mode)
    # `solve` is the bond-table matrix's pipeline that the dimension selects,
    # bit for bit: symmetry blocks above UNREDUCED_MAX_DIM, unreduced up to it
    chain = chain_matrix(spec)
    assert chain.nnz > 0
    reduced = eigensolve(chain, compute_vectors=False, reduce=symmetry_reduction(spec))
    unreduced = eigensolve(chain, compute_vectors=False)
    want = reduced if chain.n > UNREDUCED_MAX_DIM else unreduced
    got = solve(spec)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.residual_bound == want.residual_bound
    scale = np.abs(unreduced.eigenvalues).max()
    assert np.abs(reduced.eigenvalues - unreduced.eigenvalues).max() <= 1e-12 * scale
    # which is the reference triplets' matrix up to rounding
    ref = as_sector_matrix(reference_assemble(build_hamiltonian(spec), spec))
    assert entry_deviation(chain, ref) <= 1e-15 * np.abs(ref.vals).max()
    plain = eigensolve(ref, compute_vectors=False).eigenvalues
    assert np.abs(got.eigenvalues - plain).max() <= 1e-12 * np.abs(plain).max()


@pytest.mark.parametrize("spin,n", LADDER + [(Fraction(0), 4), (HALF, 1)])
def test_closed_form_length(spin, n):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(1, 1, 1))
    assert spec.dimension() == len(states(spec)) == chain_matrix(spec).n


PATTERNS = {"XYZ": (1, 0.7, 0.3), "XXZ": (1, 1, 0.5), "XY": (1, 1, 0), "empty": (0, 0, 0)}


def bond_matrix(spec) -> SectorMatrix:
    """The bond matrix h of the chain: the matrix of the open two-site chain
    with its spin, couplings, hbar and mode, whose one bond (0, 1) is h."""
    return chain_matrix(dataclasses.replace(spec, n_sites=2, boundary=OPEN))


@pytest.mark.parametrize("twos", range(5))
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_plan_places_as_the_digit_table(twos, pattern):
    # the reshape lists each bond's placements in the digit table's order
    h = bond_matrix(ChainSpec(n_sites=2, spin=Fraction(twos, 2), couplings=PATTERNS[pattern]))
    keys = (h.rows.astype(np.int64) * h.n + h.cols).tobytes()
    for n, boundary in [(n, OPEN) for n in range(1, 8)] + [(n, PERIODIC) for n in range(2, 8)]:
        plan = _plan(twos, n, boundary, keys)
        for name, want in zip(("rows", "cols", "at"), digit_table_plan(twos, n, boundary, keys)):
            got = getattr(plan, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, boundary, name)


def dense_bond_sum(spec) -> np.ndarray:
    """The chain's matrix as the dense sum, in `spec.bonds()` order, of h
    (`bond_matrix`) on each bond (i, j): entry (r, c) of the bond is h's
    (a_i d + a_j, b_i d + b_j) when the digits a of r and b of c agree at
    every other site."""
    d = int(2 * spec.spin) + 1
    h = bond_matrix(spec)
    H = np.zeros((d * d, d * d), dtype=h.vals.dtype)
    H[h.rows, h.cols] = h.vals
    digits = list(itertools.product(range(d), repeat=spec.n_sites))
    M = np.zeros((len(digits), len(digits)), dtype=h.vals.dtype)
    for i, j in spec.bonds():
        for (r, a), (c, b) in itertools.product(enumerate(digits), repeat=2):
            if all(x == y for k, (x, y) in enumerate(zip(a, b)) if k not in (i, j)):
                M[r, c] += H[a[i] * d + a[j], b[i] * d + b[j]]
    return M


@pytest.mark.parametrize("spin,n", [(HALF, 5), (Fraction(1), 4), (Fraction(3, 2), 3)])
@pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_chain_matrix_is_the_dense_bond_sum(spin, n, boundary, mode):
    # bit for bit; the paper-literal h is not symmetric under swapping its sites
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(0.7, -1.3, 0.45),
                     boundary=boundary, hbar=Fraction(2, 3), mode=mode)
    M, dense = chain_matrix(spec), dense_bond_sum(spec)
    assert M.vals.dtype == dense.dtype
    assert M.vals.tobytes() == dense[M.rows, M.cols].tobytes()
    outside = np.ones(dense.shape, dtype=bool)
    outside[M.rows, M.cols] = False
    assert not dense[outside].any()


def applied_matrix(H, spec) -> SectorMatrix:
    """H on the sector of `spec` from `apply` on each basis monomial, as
    `_bond_tables` fills a bond's table: column c holds H applied to state c."""
    rows, cols, vals = [], [], []
    for col, ket in enumerate(states(spec)):
        for m, amp in apply(H, PolynomialState.monomial(ket)).items():
            rows.append(index_of(spec, m))
            cols.append(col)
            vals.append(amp)
    return SectorMatrix.from_triplets(len(states(spec)), np.array(rows, dtype=np.int64),
                                      np.array(cols, dtype=np.int64),
                                      np.array(vals, dtype=np.complex128))


def assert_applies_as_reference(H, spec):
    got = applied_matrix(H, spec)
    assert_same_triplets(got, reference_assemble(H, spec))
    return got


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
    assert_applies_as_reference(H, ChainSpec(n_sites=n, spin=Fraction(twos, 2),
                                             couplings=(1, 1, 1)))


EDGE_OPERATORS = {
    "zero": OperatorPolynomial.zero(),
    "constant": OperatorPolynomial.identity(Fraction(5, 3)),
    "casimir": total_operator("squared", range(3)),
    "off_chain": j_operator(7, "z"),
    "above_2s": single_term(Fraction(1, 2), {z_var(0): 3, w_var(1): 1},
                            {z_var(0): 3, w_var(1): 1}),
}


def hop(coeff, i, j):
    """coeff * z[i] w[j] dw[i] dz[j]: moves one boson at site i from w to z and
    one at site j from z to w."""
    return single_term(coeff, {z_var(i): 1, w_var(j): 1}, {w_var(i): 1, z_var(j): 1})


# One term shape on several site tuples, the same shape with another
# coefficient, and mirror images (the same variables with the two sites
# swapped) on the same and on other sites: each term must act with its own
# sites and coefficient.
SHAPE_OPERATORS = {
    "relabelled": OperatorPolynomial.sum([hop(Fraction(2, 3), 0, 1), hop(Fraction(2, 3), 1, 3),
                                          hop(Fraction(2, 3), 0, 2)]),
    "recoefficient": OperatorPolynomial.sum([hop(Fraction(2, 3), 0, 1), hop(Fraction(-1, 5), 2, 3),
                                             hop(RationalComplex(0, 1), 1, 2)]),
    "mirrored": OperatorPolynomial.sum([hop(1, 1, 0), hop(1, 0, 1), hop(1, 3, 2)]),
    "squared": OperatorPolynomial.sum([
        single_term(Fraction(1, 7), {z_var(0): 2, w_var(2): 2}, {w_var(0): 2, z_var(2): 2}),
        single_term(Fraction(1, 7), {z_var(1): 2, w_var(2): 2}, {w_var(1): 2, z_var(2): 2}),
        single_term(Fraction(1, 7), {w_var(1): 2, z_var(2): 2}, {z_var(1): 2, w_var(2): 2})]),
}


@pytest.mark.parametrize("name", sorted(SHAPE_OPERATORS))
@pytest.mark.parametrize("twos", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_shaped_operators(name, twos, n):
    H = SHAPE_OPERATORS[name]
    assert_applies_as_reference(H, ChainSpec(n_sites=n, spin=Fraction(twos, 2),
                                             couplings=(1, 1, 1)))


@pytest.mark.parametrize("name", sorted(EDGE_OPERATORS))
@pytest.mark.parametrize("twos", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_edge_operators(name, twos, n):
    H = EDGE_OPERATORS[name]
    assert_applies_as_reference(H, ChainSpec(n_sites=n, spin=Fraction(twos, 2),
                                             couplings=(1, 1, 1)))


def test_edge_operator_values():
    spec = ChainSpec(n_sites=2, spin=HALF, couplings=(1, 1, 1))
    for name in ("zero", "off_chain", "above_2s"):
        assert applied_matrix(EDGE_OPERATORS[name], spec).nnz == 0
    const = applied_matrix(EDGE_OPERATORS["constant"], spec).toarray()
    assert np.array_equal(const, np.eye(4) * (5 / 3))
