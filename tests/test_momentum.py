"""Symmetry blocks of chain sector matrices against dense references.

`symmetry_blocks` is checked entry by entry against symmetry-adapted states
built densely from the permutation matrices of translation T, reflection R
and flip P, its block sizes against the character-trace formula, its
multiplicities against the pairing rules, and the spectra of chains against
the unreduced eigensolve of the same sector matrix.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bargmann.angular import j_operator
from bargmann.chain import (
    COMPOSITIONAL,
    OPEN,
    PAPER_LITERAL,
    PERIODIC,
    ChainPlan,
    ChainSpec,
    SymmetryTables,
    build_hamiltonian,
    chain_matrix,
    solve,
    symmetry_blocks,
    symmetry_reduction,
)
from bargmann.errors import NotHermitian
from bargmann.thermo import SectorMatrix, _components, eigensolve

from reference import as_sector_matrix, reference_assemble, two_unique_blocks, whole_chain_matrix

HALF = Fraction(1, 2)


def digit_maps(d, n):
    """Index maps {T, R, P} from the digit tuples, basis index
    sum_i a_i d**(n-1-i): T moves the content of site i to site i+1 (mod n),
    R reverses the sites and P takes each digit a to d-1-a."""
    states = list(itertools.product(range(d), repeat=n))
    index = {a: i for i, a in enumerate(states)}
    return {"T": np.array([index[a[-1:] + a[:-1]] for a in states]),
            "R": np.array([index[a[::-1]] for a in states]),
            "P": np.array([index[tuple(d - 1 - x for x in a)] for a in states])}


def elements(generators):
    """(exponents, index map) of every g_1^l_1 ... g_k^l_k, first exponent slowest."""
    n = len(generators[0][0]) if generators else 1
    out = []
    for ls in itertools.product(*(range(o) for _, o in generators)):
        e = np.arange(n)
        for (g, _), l in zip(generators, ls):
            for _ in range(l):
                e = g[e]
        out.append((ls, e))
    return out


def character(m, ls, orders):
    return np.exp(2j * np.pi * sum(mj * lj / o for mj, lj, o in zip(m, ls, orders)))


def kept_characters(orders, real):
    """(character, multiplicity) in l order: for a real M, one of each
    conjugate pair with multiplicity 2, self-conjugate ones with 1."""
    out = []
    for m in itertools.product(*map(range, orders)):
        conj = tuple(-x % o for x, o in zip(m, orders))
        if not real:
            out.append((m, 1))
        elif conj >= m:
            out.append((m, 2 if conj > m else 1))
    return out


def adapted_states(generators, chars):
    """Columns |a(m)> ~ sum_e chi_m(e) e|a>, built from dense permutation
    matrices, over `chars` in order and, within each, the orbits (by their
    smallest index a) on which the sum is not zero."""
    orders = [o for _, o in generators]
    n = len(generators[0][0])
    dense = []
    for ls, e in elements(generators):
        E = np.zeros((n, n))
        E[e, np.arange(n)] = 1
        dense.append((ls, E))
    columns = []
    for m in chars:
        for a in range(n):
            if min(int(np.flatnonzero(E[:, a])[0]) for _, E in dense) != a:
                continue
            q = sum(character(m, ls, orders) * E[:, a] for ls, E in dense)
            norm = np.linalg.norm(q)
            if norm > 1e-9:
                columns.append(q / norm)
    return np.array(columns).T


def block_size(generators, m):
    """Dimension of the chi_m eigenspace: (1/|G|) sum_e chi_m(e) fix(e)."""
    orders = [o for _, o in generators]
    group = elements(generators)
    total = sum(character(m, ls, orders) * (e == np.arange(len(e))).sum() for ls, e in group)
    return round(total.real / len(group))


def invariant_complex(M, generators, seed=5):
    """M plus i times a real antisymmetric matrix averaged over the group:
    complex, Hermitian and invariant under every generator."""
    n = M.n
    C = np.random.default_rng(seed).normal(size=(n, n))
    A = sum(C[np.ix_(np.argsort(e), np.argsort(e))] for _, e in elements(generators))
    B = (A - A.T) * np.abs(M.vals).max() / np.abs(A - A.T).max()
    dense = M.toarray() + 0.3j * B
    rows, cols = np.nonzero(dense)
    return SectorMatrix.from_triplets(n, rows, cols, dense[rows, cols])


def assert_blocks_equal_projection(M, generators, real):
    K, mult = symmetry_blocks(M, SymmetryTables(M.pattern, generators))
    orders = [o for _, o in generators]
    kept = kept_characters(orders, real)
    Q = adapted_states(generators, [m for m, _ in kept])
    assert Q.shape == (M.n, K.n)
    assert np.abs(Q.conj().T @ Q - np.eye(K.n)).max() < 1e-12
    want = Q.conj().T @ M.toarray() @ Q
    A = K.toarray()
    assert np.abs(A - want).max() <= 1e-13 * np.abs(M.vals).max()
    assert np.array_equal(A, A.conj().T)
    sizes = [block_size(generators, m) for m, _ in kept]
    assert list(mult) == [k for (_, k), s in zip(kept, sizes) for _ in range(s)]
    assert mult.sum() == M.n
    return K, mult, sizes


SMALL = [(HALF, 2), (HALF, 3), (HALF, 4), (HALF, 6), (Fraction(1), 3), (Fraction(1), 4),
         (Fraction(3, 2), 3), (Fraction(2), 2)]


@pytest.mark.parametrize("spin,n", SMALL)
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_blocks_equal_dense_momentum_projection(spin, n, mode):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(0.9, -0.6, 0.35), boundary=PERIODIC,
                     hbar=Fraction(2, 3), mode=mode)
    M = chain_matrix(spec)
    generators = [(digit_maps(int(2 * spin) + 1, n)["T"], n)]
    assert_blocks_equal_projection(M, generators, real=True)
    # a complex translation-invariant M keeps k and -k apart
    K, mult, _ = assert_blocks_equal_projection(invariant_complex(M, generators), generators,
                                                real=False)
    assert K.n == M.n and (mult == 1).all()


@pytest.mark.parametrize("spin,n", SMALL)
@pytest.mark.parametrize("group", ["R", "P", "RP", "TP"])
def test_blocks_equal_dense_symmetry_projection(spin, n, group):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(0.9, -0.6, 0.35), hbar=Fraction(2, 3),
                     boundary=PERIODIC if "T" in group else OPEN)
    maps = digit_maps(int(2 * spin) + 1, n)
    generators = [(maps[g], n if g == "T" else 2) for g in group]
    M = chain_matrix(spec)
    assert_blocks_equal_projection(M, generators, real=True)
    # a complex M is not conjugate-paired: every character keeps its block
    K, mult, _ = assert_blocks_equal_projection(invariant_complex(M, generators), generators,
                                                real=False)
    assert K.n == M.n and (mult == 1).all()


@pytest.mark.parametrize("spin,n", SMALL + [(Fraction(0), 3), (HALF, 8), (Fraction(1), 5)])
def test_block_sizes_are_orbit_counts(spin, n):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(1.0, 0.7, 0.3), boundary=PERIODIC)
    d = int(2 * spin) + 1
    M = chain_matrix(spec)
    generators = [(digit_maps(d, n)["T"], n)]
    K, mult = symmetry_blocks(M, SymmetryTables(M.pattern, generators))
    kept = kept_characters([n], real=True)
    sizes = [block_size(generators, m) for m, _ in kept]
    assert sum(s * k for s, (_, k) in zip(sizes, kept)) == d ** n == M.n
    assert sum(sizes) == K.n
    edges = np.cumsum([0] + sizes)
    label = np.searchsorted(edges, np.arange(K.n), side="right") - 1
    assert np.array_equal(label[K.rows], label[K.cols])   # nothing between momenta
    A = K.toarray()
    per_block = [np.repeat(np.linalg.eigvalsh(A[lo:hi, lo:hi]), k)
                 for lo, hi, (_, k) in zip(edges, edges[1:], kept)]
    plain = eigensolve(M, compute_vectors=False).eigenvalues
    union = np.sort(np.concatenate(per_block))
    assert np.abs(union - plain).max(initial=0.0) <= 1e-12 * max(np.abs(plain).max(), 1.0)


LADDER = ([(Fraction(0), n) for n in (2, 3)] + [(HALF, n) for n in range(2, 11)]
          + [(Fraction(1), n) for n in range(2, 7)] + [(Fraction(3, 2), n) for n in range(2, 6)]
          + [(Fraction(2), n) for n in range(2, 5)])
COUPLINGS = [(1.0, 0.7, 0.3), (1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.7, -1.3, 0.45),
             (1.0, -1.0, 0.5), (1e-8, 2e-8, -3e-8), (1e8, 7e7, 3e7)]


@pytest.mark.parametrize("spin,n", LADDER)
@pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_spectrum_matches_unblocked(spin, n, boundary, mode):
    for k, couplings in enumerate(COUPLINGS):
        spec = ChainSpec(n_sites=n, spin=spin, couplings=couplings, boundary=boundary,
                         hbar=Fraction(2, 3) if k % 2 else 1, mode=mode)
        M = chain_matrix(spec)
        plain = eigensolve(M, compute_vectors=False)
        scale = np.abs(plain.eigenvalues).max()
        # `solve` reduces only above UNREDUCED_MAX_DIM; the reduction is checked at every size
        for got in (solve(spec),
                    eigensolve(M, compute_vectors=False, reduce=symmetry_reduction(spec))):
            assert len(got) == len(plain)
            assert np.abs(got.eigenvalues - plain.eigenvalues).max() <= 1e-12 * scale, couplings
            assert got.residual_bound <= 1e-8 * scale * len(got)


def assert_keyed_union(pattern, *maps):
    """int32, read-only index arrays, the pattern's in strictly increasing
    row-major keys."""
    for a in (pattern.rows, pattern.cols, *maps):
        assert a.dtype == np.int32 and not a.flags.writeable
    assert (np.diff(pattern.rows.astype(np.int64) * pattern.n + pattern.cols) > 0).all()


@pytest.mark.parametrize("spin,n", LADDER)
@pytest.mark.parametrize("boundary", [OPEN, PERIODIC])
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_blocks_equal_two_unique_gather_bit_for_bit(spin, n, boundary, mode):
    # K on one keyed union, averaged through its pattern's mirror, against the
    # gather that summed at the distinct keys and averaged onto a second union;
    # entries of 5e-324 tell a/2 + b/2 from (a + b)/2 and a -0.0 from a 0.0
    for couplings in COUPLINGS + [(1.0, 1e-310, 0.3), (3e-323, 2e-323, 1e-323)]:
        spec = ChainSpec(n_sites=n, spin=spin, couplings=couplings, boundary=boundary,
                         mode=mode)
        M = chain_matrix(spec)
        assert_keyed_union(M.pattern, M.pattern.at)
        plan = ChainPlan(M.n, M.rows, M.cols, shape=(int(2 * spin) + 1, n, boundary))
        K, mult = plan.reduce(M)
        (tables,) = plan.tables.values()
        rows, cols, vals, want_mult = two_unique_blocks(M, tables)
        assert np.array_equal(K.rows, rows) and np.array_equal(K.cols, cols)
        assert K.vals.dtype == vals.dtype and K.vals.tobytes() == vals.tobytes(), couplings
        assert np.array_equal(mult, want_mult)
        ((*_, at),) = tables._gathers.values()
        assert_keyed_union(K.pattern, at)
        assert at.base is None            # the entries of the mirror keys are not kept
        assert len(K.pattern.mirror[1]) == 0


# (n_sites, spin, couplings, boundary, mode): kept dimension, {multiplicity: kept
# indices}, number and largest size of the solved blocks
KEPT = [
    ((5, Fraction(3, 2), (1.0, 0.7, 0.3), OPEN, COMPOSITIONAL), 512, {2: 512}, 2, 272),
    ((7, HALF, (1.0, 0.7, 0.3), OPEN, COMPOSITIONAL), 64, {2: 64}, 2, 36),
    ((4, Fraction(1), (1.0, 0.7, 0.3), OPEN, COMPOSITIONAL), 81, {1: 81}, 8, 15),
    ((9, HALF, (1.0, 0.7, 0.3), PERIODIC, COMPOSITIONAL), 143, {2: 30, 4: 113}, 5, 30),
    ((6, Fraction(1), (0.8, 1.1, -0.6), PERIODIC, COMPOSITIONAL), 489, {1: 249, 2: 240}, 16, 37),
    ((10, HALF, (1.0, 1.0, 0.5), PERIODIC, COMPOSITIONAL), 616, {1: 208, 2: 408}, 68, 22),
    ((4, Fraction(2), (1.0, 1.0, 1.0), PERIODIC, COMPOSITIONAL), 475, {1: 325, 2: 150}, 54, 20),
    ((3, Fraction(1), (1.0, 0.7, 0.3), OPEN, PAPER_LITERAL), 27, {1: 27}, 2, 14),
    ((6, HALF, (1.0, 0.7, 0.3), PERIODIC, PAPER_LITERAL), 44, {1: 24, 2: 20}, 20, 4),
]


@pytest.mark.parametrize("chain,dim,mults,blocks,largest", KEPT)
def test_kept_blocks_and_multiplicities(chain, dim, mults, blocks, largest):
    n, spin, couplings, boundary, mode = chain
    spec = ChainSpec(n_sites=n, spin=spin, couplings=couplings, boundary=boundary, mode=mode)
    M = chain_matrix(spec)
    K, mult = symmetry_reduction(spec)(M)
    assert K.n == dim
    assert dict(Counter(mult.tolist())) == mults
    nonzero = K.vals != 0
    _, sizes = np.unique(_components(K.rows[nonzero], K.cols[nonzero], K.n),
                         return_counts=True)
    assert (len(sizes), sizes.max()) == (blocks, largest)


def test_open_paper_literal_solves_unreduced():
    # the literal z line breaks both reflection and flip
    spec = ChainSpec(n_sites=4, spin=Fraction(1), couplings=(1.0, 0.7, 0.3), mode=PAPER_LITERAL)
    M, chain = whole_chain_matrix(spec), chain_matrix(spec)
    for A in (M, chain):
        K, mult = symmetry_reduction(spec)(A)
        assert K.n == A.n and (mult == 1).all()
    got = solve(spec).eigenvalues
    assert np.array_equal(got, eigensolve(chain, compute_vectors=False).eigenvalues)
    plain = eigensolve(M, compute_vectors=False).eigenvalues
    assert np.abs(got - plain).max() <= 1e-12 * np.abs(plain).max()


def test_no_kramers_pairs_without_conserved_parity():
    # a transverse field keeps R and P but not the parity of S^z; 2s N is odd,
    # and the levels are not pairs
    spec = ChainSpec(n_sites=5, spin=HALF, couplings=(1.0, 0.7, 0.3))
    field = sum((j_operator(i, "x", 1).scaled(Fraction(37, 100)) for i in range(1, 5)),
                j_operator(0, "x", 1).scaled(Fraction(37, 100)))
    M = as_sector_matrix(reference_assemble(build_hamiltonian(spec) + field, spec))
    K, mult = symmetry_reduction(spec)(M)
    assert K.n == M.n and (mult == 1).all()
    plain = eigensolve(M, compute_vectors=False).eigenvalues
    assert np.min(np.diff(plain)) > 1e-6
    got = eigensolve(M, compute_vectors=False, reduce=symmetry_reduction(spec)).eigenvalues
    assert np.abs(got - plain).max() <= 1e-12 * np.abs(plain).max()


def test_large_couplings_pass_the_gates():
    # K summed from these entries misses exact Hermiticity by ~2e-8 on 1e8;
    # K is symmetrized instead of re-gated
    spec = ChainSpec(n_sites=8, spin=HALF, couplings=(1e8, 7e7, 3e7), boundary=PERIODIC)
    plain = eigensolve(chain_matrix(spec), compute_vectors=False).eigenvalues
    got = solve(spec).eigenvalues
    assert np.abs(got - plain).max() <= 1e-12 * np.abs(plain).max()


def perturbed(M, k, factor):
    """M with entry k and its mirror scaled by `factor`, so M stays Hermitian."""
    vals = M.vals.copy()
    r, c = M.rows[k], M.cols[k]
    mirror = np.flatnonzero((M.rows == c) & (M.cols == r))
    vals[[k, *mirror]] *= factor
    return SectorMatrix(M.n, M.rows, M.cols, vals)


def test_broken_translation_invariance_raises():
    spec = ChainSpec(n_sites=4, spin=HALF, couplings=(1.0, 0.7, 0.3), boundary=PERIODIC)
    M = chain_matrix(spec)
    k = int(np.flatnonzero(M.rows != M.cols)[0])
    with pytest.raises(RuntimeError, match="not translation invariant"):
        eigensolve(perturbed(M, k, 1 + 1e-9), compute_vectors=False,
                   reduce=symmetry_reduction(spec))
    # float noise far below 1e-12 max|M| is not a broken symmetry
    noisy = eigensolve(perturbed(M, k, 1 + 1e-15), compute_vectors=False,
                       reduce=symmetry_reduction(spec))
    assert np.allclose(noisy.eigenvalues, solve(spec).eigenvalues, rtol=0, atol=1e-12)


def test_broken_reflection_and_flip_are_dropped():
    spec = ChainSpec(n_sites=5, spin=HALF, couplings=(1.0, 0.7, 0.3))
    M = chain_matrix(spec)
    k = int(np.flatnonzero(M.rows != M.cols)[0])
    assert symmetry_reduction(spec)(perturbed(M, k, 1 + 1e-15))[0].n == 16
    broken = perturbed(M, k, 1 + 1e-9)
    K, mult = symmetry_reduction(spec)(broken)
    assert K.n == M.n and (mult == 1).all()
    plain = eigensolve(broken, compute_vectors=False).eigenvalues
    got = eigensolve(broken, compute_vectors=False, reduce=symmetry_reduction(spec)).eigenvalues
    assert np.abs(got - plain).max() <= 1e-12 * np.abs(plain).max()


def test_gates_read_the_sector_matrix_before_reducing():
    def fail(M):
        raise AssertionError("reduce called before the gates")

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        eigensolve(A, compute_vectors=False, reduce=fail)
    with pytest.raises(ValueError, match="finite"):
        eigensolve(np.array([[np.nan, 0.0], [0.0, 1.0]]), compute_vectors=False, reduce=fail)
    with pytest.raises(ValueError, match="eigenvectors"):
        eigensolve(np.eye(2), compute_vectors=True, reduce=fail)
