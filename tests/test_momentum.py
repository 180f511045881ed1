"""Lattice-momentum blocks of periodic chains against dense references.

`momentum_blocks` is checked entry by entry against the momentum states
built densely from a translation permutation, its block sizes against the
trace formula for the translation eigenspaces, and the spectra of periodic
chains against the unblocked eigensolve of the same sector matrix.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bargmann.chain import (
    COMPOSITIONAL,
    PAPER_LITERAL,
    PERIODIC,
    ChainSpec,
    assemble_matrix,
    build_hamiltonian,
    momentum_blocks,
    momentum_reduction,
    sector_basis,
    solve,
)
from bargmann.errors import NotHermitian
from bargmann.thermo import SectorMatrix, eigensolve

HALF = Fraction(1, 2)


def sector_matrix(spec):
    return assemble_matrix(build_hamiltonian(spec), sector_basis(spec))


def translation(d, n):
    """Dense T moving the content of site i to site i+1 (mod n); basis
    index sum_i a_i d**(n-1-i)."""
    index = {a: i for i, a in enumerate(itertools.product(range(d), repeat=n))}
    T = np.zeros((d ** n,) * 2)
    for a, i in index.items():
        T[index[a[-1:] + a[:-1]], i] = 1
    return T


def momentum_states(d, n):
    """Columns |a(k)> ~ sum_l e^{ikl} T^l |a>, k = 2 pi m / n, ordered by m and
    then by the orbit's smallest index a, over the orbits compatible with m."""
    T = translation(d, n)
    powers = [np.linalg.matrix_power(T, l) for l in range(n)]
    columns = []
    for m in range(n):
        phases = np.exp(2j * np.pi * m * np.arange(n) / n)
        for a in range(d ** n):
            orbit = [int(np.flatnonzero(P[:, a])[0]) for P in powers]
            if min(orbit) != a:
                continue
            q = sum(c * P[:, a] for c, P in zip(phases, powers))
            norm = np.linalg.norm(q)
            if norm > 1e-9:
                columns.append(q / norm)
    return np.array(columns).T


def block_sizes(d, n):
    """Multiplicity of each eigenvalue e^{-2 pi i m / n} of T, from the trace
    of the projector: (1/n) sum_l e^{2 pi i m l / n} d**gcd(l, n)."""
    return [round(sum(np.exp(2j * np.pi * m * l / n) * d ** math.gcd(l, n)
                      for l in range(n)).real / n) for m in range(n)]


SMALL = [(HALF, 2), (HALF, 3), (HALF, 4), (HALF, 6), (Fraction(1), 3), (Fraction(1), 4),
         (Fraction(3, 2), 3), (Fraction(2), 2)]


@pytest.mark.parametrize("spin,n", SMALL)
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_blocks_equal_dense_momentum_projection(spin, n, mode):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(0.9, -0.6, 0.35), boundary=PERIODIC,
                     hbar=Fraction(2, 3), mode=mode)
    d = int(2 * spin) + 1
    M = sector_matrix(spec)
    K = momentum_blocks(M, d, n).toarray()
    Q = momentum_states(d, n)
    assert Q.shape == K.shape
    assert np.abs(Q.conj().T @ Q - np.eye(len(Q))).max() < 1e-12
    want = Q.conj().T @ M.toarray() @ Q
    assert np.abs(K - want).max() <= 1e-13 * np.abs(M.vals).max()
    assert np.array_equal(K, K.conj().T)


@pytest.mark.parametrize("spin,n", SMALL + [(Fraction(0), 3), (HALF, 8), (Fraction(1), 5)])
def test_block_sizes_are_orbit_counts(spin, n):
    spec = ChainSpec(n_sites=n, spin=spin, couplings=(1.0, 0.7, 0.3), boundary=PERIODIC)
    d = int(2 * spin) + 1
    M = sector_matrix(spec)
    K = momentum_blocks(M, d, n)
    sizes = block_sizes(d, n)
    assert sum(sizes) == d ** n == K.n
    edges = np.cumsum([0] + sizes)
    label = np.searchsorted(edges, np.arange(K.n), side="right") - 1
    assert np.array_equal(label[K.rows], label[K.cols])   # nothing between momenta
    A = K.toarray()
    per_block = [np.linalg.eigvalsh(A[lo:hi, lo:hi]) for lo, hi in zip(edges, edges[1:])]
    assert [len(w) for w in per_block] == sizes
    plain = eigensolve(M, compute_vectors=False).eigenvalues
    union = np.sort(np.concatenate(per_block))
    assert np.abs(union - plain).max(initial=0.0) <= 1e-12 * max(np.abs(plain).max(), 1.0)


LADDER = ([(Fraction(0), n) for n in (2, 3)] + [(HALF, n) for n in range(2, 11)]
          + [(Fraction(1), n) for n in range(2, 7)] + [(Fraction(3, 2), n) for n in range(2, 6)]
          + [(Fraction(2), n) for n in range(2, 5)])
COUPLINGS = [(1.0, 0.7, 0.3), (1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.7, -1.3, 0.45),
             (1.0, -1.0, 0.5), (1e-8, 2e-8, -3e-8), (1e8, 7e7, 3e7)]


@pytest.mark.parametrize("spin,n", LADDER)
@pytest.mark.parametrize("mode", [COMPOSITIONAL, PAPER_LITERAL])
def test_spectrum_matches_unblocked(spin, n, mode):
    for k, couplings in enumerate(COUPLINGS):
        spec = ChainSpec(n_sites=n, spin=spin, couplings=couplings, boundary=PERIODIC,
                         hbar=Fraction(2, 3) if k % 2 else 1, mode=mode)
        plain = eigensolve(sector_matrix(spec), compute_vectors=False)
        got = solve(spec)
        scale = np.abs(plain.eigenvalues).max()
        assert len(got) == len(plain)
        assert np.abs(got.eigenvalues - plain.eigenvalues).max() <= 1e-12 * scale, couplings
        assert got.residual_bound <= 1e-8 * scale * len(got)


def test_large_couplings_pass_the_gates():
    # K summed from these entries misses exact Hermiticity by ~2e-8, far above
    # the absolute 1e-10 gate; K is symmetrized instead of re-gated
    spec = ChainSpec(n_sites=8, spin=HALF, couplings=(1e8, 7e7, 3e7), boundary=PERIODIC)
    plain = eigensolve(sector_matrix(spec), compute_vectors=False).eigenvalues
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
    M = sector_matrix(spec)
    k = int(np.flatnonzero(M.rows != M.cols)[0])
    with pytest.raises(RuntimeError, match="not translation invariant"):
        eigensolve(perturbed(M, k, 1 + 1e-9), compute_vectors=False,
                   reduce=momentum_reduction(spec))
    # float noise far below 1e-12 max|M| is not a broken symmetry
    noisy = eigensolve(perturbed(M, k, 1 + 1e-15), compute_vectors=False,
                       reduce=momentum_reduction(spec))
    assert np.allclose(noisy.eigenvalues, solve(spec).eigenvalues, rtol=0, atol=1e-12)


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
