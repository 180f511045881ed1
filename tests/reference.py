"""Reference-only code: the per-state paths that the package's fast paths
replaced, kept to check those paths against.

- `states` lists the sector monomials of a chain spec in index order, and
  `index_of` inverts it; the package forms no chain state, since the bond
  tables and the `basis` listing work from the mixed-radix digits of the index.
- `site_magnetization` and `total_magnetization` read m = (alpha - beta)/2
  off a monomial, where the `basis` listing reads it off the digits.
- `sort_key` is the (site, flavor, exponent) key of a `MultiIndex` that
  polynomial and state keys are ordered by; the package sorts by the
  (variable, exponent) pairs the `MultiIndex` stores.
- `as_sector_matrix` turns a scipy sparse matrix into the `SectorMatrix`
  that `eigensolve` reads, summing duplicates in storage order.
- `reference_assemble` is the sector matrix of any sector-preserving operator,
  applying every term to every enumerated state; `whole_chain_matrix` is that
  of the whole-chain polynomial, which `solve` assembled before it placed
  cached bond tables on the bonds, and `entry_deviation` compares two sector
  matrices entry by entry.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from bargmann.algebra import MultiIndex, apply_term, w_var, z_var
from bargmann.chain import _check_sector_preserving, build_hamiltonian
from bargmann.errors import SectorViolation
from bargmann.thermo import SectorMatrix


def states(spec) -> tuple[MultiIndex, ...]:
    """z_i**a_i w_i**(2s-a_i) over all sites, for every digit tuple
    (a_0, ..., a_{N-1}) in lexicographic order, site 0 slowest."""
    return _states(spec.spin, spec.n_sites)


@lru_cache(maxsize=8)
def _states(spin, n_sites) -> tuple[MultiIndex, ...]:
    twos = int(2 * spin)
    return tuple(MultiIndex(pair for site, a in enumerate(digits)
                            for pair in ((z_var(site), a), (w_var(site), twos - a)))
                 for digits in itertools.product(range(twos + 1), repeat=n_sites))


@lru_cache(maxsize=8)
def _index(spin, n_sites) -> dict:
    return {m: i for i, m in enumerate(_states(spin, n_sites))}


def index_of(spec, m: MultiIndex) -> int:
    try:
        return _index(spec.spin, spec.n_sites)[m]
    except KeyError:
        raise SectorViolation(f"{m!r} is not a sector basis state") from None


def site_magnetization(m: MultiIndex, site: int) -> Fraction:
    return Fraction(m.get(z_var(site)) - m.get(w_var(site)), 2)


def total_magnetization(m: MultiIndex, n_sites: int) -> Fraction:
    return sum((site_magnetization(m, i) for i in range(n_sites)), Fraction(0))


def sort_key(m: MultiIndex) -> tuple:
    return tuple((v.site, int(v.flavor), e) for v, e in m.items())


def as_sector_matrix(A):
    """A scipy sparse matrix as a `SectorMatrix`: its COO triplets, duplicates
    summed in storage order, as its `toarray` sums them.  Any other A is
    returned as it is."""
    if not hasattr(A, "tocoo"):
        return A
    C = A.tocoo()
    return SectorMatrix.from_triplets(A.shape[0], C.row, C.col, C.data)


def reference_assemble(H, spec):
    """H on the sector of `spec` as a scipy CSR matrix: a column-by-column,
    term-by-term loop over the enumerated states."""
    _check_sector_preserving(H)
    rows, cols, vals = [], [], []
    for col, ket in enumerate(states(spec)):
        for t in H.terms():
            r = apply_term(t, ket)
            if r is None:
                continue
            m2, amp = r
            rows.append(index_of(spec, m2))
            cols.append(col)
            vals.append(amp)
    n = len(states(spec))
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.complex128).tocsr()


def whole_chain_matrix(spec):
    return as_sector_matrix(reference_assemble(build_hamiltonian(spec), spec))


def entry_deviation(A, B) -> float:
    """max over all entries of |A - B|, for two `SectorMatrix` of one size."""
    assert A.n == B.n
    D = SectorMatrix.from_triplets(A.n, np.concatenate([A.rows, B.rows]),
                                   np.concatenate([A.cols, B.cols]),
                                   np.concatenate([A.vals, -B.vals]))
    return float(np.abs(D.vals).max(initial=0.0))
