"""Reference-only code: the per-state paths that the package's fast paths
replaced, kept to check those paths against.

- `states` lists the monomials of a `SectorBasis` in index order, and
  `index_of` inverts it; the package forms no state, since `assemble_matrix`
  and the `basis` listing work from the mixed-radix digits of the index.
- `site_magnetization` and `total_magnetization` read m = (alpha - beta)/2
  off a monomial, where the `basis` listing reads it off the digits.
- `sort_key` is the (site, flavor, exponent) key of a `MultiIndex` that
  polynomial and state keys are ordered by; the package sorts by the
  (variable, exponent) pairs the `MultiIndex` stores.
- `as_sector_matrix` turns a scipy sparse matrix into the `SectorMatrix`
  that `eigensolve` reads, summing duplicates in storage order.
- `whole_chain_matrix` is the sector matrix of the whole-chain polynomial,
  which `solve` assembled before it placed cached bond tables on the bonds,
  and `entry_deviation` compares two sector matrices entry by entry.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from bargmann.algebra import MultiIndex, w_var, z_var
from bargmann.chain import assemble_matrix, build_hamiltonian, sector_basis
from bargmann.errors import SectorViolation
from bargmann.thermo import SectorMatrix


@lru_cache(maxsize=8)
def states(basis) -> tuple[MultiIndex, ...]:
    """z_i**a_i w_i**(2s-a_i) over all sites, for every digit tuple
    (a_0, ..., a_{N-1}) in lexicographic order, site 0 slowest."""
    twos = int(2 * basis.spin)
    return tuple(MultiIndex(pair for site, a in enumerate(digits)
                            for pair in ((z_var(site), a), (w_var(site), twos - a)))
                 for digits in itertools.product(range(twos + 1), repeat=basis.n_sites))


@lru_cache(maxsize=8)
def _index(basis) -> dict:
    return {m: i for i, m in enumerate(states(basis))}


def index_of(basis, m: MultiIndex) -> int:
    try:
        return _index(basis)[m]
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


def whole_chain_matrix(spec):
    return assemble_matrix(build_hamiltonian(spec), sector_basis(spec))


def entry_deviation(A, B) -> float:
    """max over all entries of |A - B|, for two `SectorMatrix` of one size."""
    assert A.n == B.n
    D = SectorMatrix.from_triplets(A.n, np.concatenate([A.rows, B.rows]),
                                   np.concatenate([A.cols, B.cols]),
                                   np.concatenate([A.vals, -B.vals]))
    return float(np.abs(D.vals).max(initial=0.0))
