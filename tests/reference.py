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
- `digit_table_plan` is the placement of a bond matrix on every bond from a
  dim x N table of the index digits, as `_plan` placed it before it
  reshaped the index range: the `rows`, `cols` and `at` of its `ChainPlan`.
- `two_unique_blocks` is `symmetry_blocks` as it gathered K before K's
  pattern came from one keyed union: the terms summed at their distinct
  keys, found by one `np.unique`, and that K averaged with its conjugate
  onto the union of the keys and their mirrors, found by a second.
- `einsum_oracle` is the dense oracle that `oracle_matrix` replaced: each
  bond's two-site operator added into a writable `np.einsum` diagonal view
  of an n x n array, bond by bond.
- `reference_husimi` is the per-point, per-monomial loop that `husimi_q`
  ran before it went through one log-space array pass: the direct product,
  redone in logs where it underflows, and AmplitudeOverflow where psi(z) or
  |z|^2 is beyond the float range.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from bargmann.algebra import (MultiIndex, PolynomialState, Var, apply_term, monomial_norm_sq,
                              var_name, w_var, z_var)
from bargmann.chain import bond_list, build_hamiltonian
from bargmann.errors import AmplitudeOverflow, NotNormalized
from bargmann.oracle import spin_matrices
from bargmann.thermo import SectorMatrix, sum_at


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
    """The index of sector state `m`; KeyError if `m` is not one."""
    return _index(spec.spin, spec.n_sites)[m]


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
    term-by-term loop over the enumerated states.  A term that leaves the
    sector raises KeyError at `index_of`."""
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


def digit_table_plan(twos: int, n_sites: int, boundary: str, h_keys: bytes):
    """The `rows`, `cols` and `at` (int32) of the placements of a bond matrix h
    with these row-major keys (int64), from the digits of every index.

    Per bond (i, j), the states with digit 0 at both sites, ascending, are
    shifted by the place weights of h's local digits a_i, a_j (a_i d + a_j)
    at sites i and j.  The placements are ordered (bond in `bond_list`
    order, entry of h, state); `rows` and `cols` are their union, sorted
    row-major, and `at` the position of each placement in it.
    """
    d = twos + 1
    dim, dd = d ** n_sites, d * d
    bonds = bond_list(n_sites, boundary)
    h_rows, h_cols = np.divmod(np.frombuffer(h_keys, dtype=np.int64), dd)
    i, j = np.array(bonds, dtype=np.int64).reshape(-1, 2).T
    place = d ** np.arange(n_sites - 1, -1, -1)      # index weight of each site's digit
    digits = np.arange(dim)[:, None] // place % d
    base = np.nonzero(((digits[:, i] == 0) & (digits[:, j] == 0)).T)[1]
    base = base.reshape(len(bonds), 1, dim // dd)

    def shift(local):      # (bond, entry) -> index offset of the local digits
        return local // d * place[i][:, None] + local % d * place[j][:, None]

    rows = (base + shift(h_rows)[:, :, None]).ravel()
    cols = (base + shift(h_cols)[:, :, None]).ravel()
    keys, at = np.unique(rows * dim + cols, return_inverse=True)
    rows, cols = (x.astype(np.int32) for x in np.divmod(keys, dim))
    return rows, cols, at.astype(np.int32)


def two_unique_blocks(M, tables):
    """The `rows`, `cols` and `vals` of K in `symmetry_blocks(M, tables)`,
    and the multiplicity of each kept index: the kept characters by the
    same pairing rules, the terms summed at their distinct keys, and K
    summed with its conjugate, each halved, onto the union of the keys and
    their mirrors."""
    t = tables
    mult = np.ones(t.size, dtype=np.int64)
    if not M.vals.imag.any():
        here = np.arange(t.size)
        mult = np.where(t.conj < here, 0, np.where(t.conj > here, 2, 1))
    if t.flip is not None and not M.vals[t.breaking].any():
        mult = np.where(t.exps[:, t.flip] == 0, 2 * mult, 0)
    chars = np.flatnonzero(mult)
    which, kept = np.nonzero(t.compat[chars])
    pos = np.full((len(chars), t.n), -1, dtype=np.int64)
    pos[which, t.reps[kept]] = np.arange(len(kept))
    krow, kcol = pos[:, t._a], pos[:, t._b]
    char, term = np.nonzero((krow >= 0) & (kcol >= 0))
    n = len(kept)
    keys, sums = np.unique(krow[char, term] * n + kcol[char, term], return_inverse=True)
    both, mirror = np.unique(np.concatenate([keys, keys % n * n + keys // n]),
                             return_inverse=True)
    turn = t.t[chars[char], t._to_rep[term]]
    v = M.vals[t.hit] * t.factor
    K = sum_at(sums, v[term] * t.root[turn], len(keys))
    K = sum_at(mirror, np.concatenate([K, K.conj()]) / 2, len(both))
    rows, cols = np.divmod(both, n)
    return rows, cols, K, mult[chars][which]


def einsum_oracle(spec) -> np.ndarray:
    """Dense H = sum over bonds (a, b) of sum_k J_k S_k(a) S_k(b), float64.

    The two-site operator sum_k J_k S_k (x) S_k is formed once as a
    (d, d, d, d) array and added into the view of H that is diagonal on
    every other site: with a < b, H is reshaped to (L, d, M, d, R) x
    (L, d, M, d, R) with L = d^a, M = d^(b-a-1), R = d^(n-b-1), and the
    view takes equal L, M and R indices on both sides.
    """
    d, n = int(2 * spec.spin) + 1, spec.n_sites
    dim = d ** n
    mats = spin_matrices(spec.spin, float(spec.hbar))
    h = np.zeros((d,) * 4, dtype=np.complex128)   # [p, p', q, q'] = <p p'|h|q q'>
    for J, S in zip(spec.couplings, (mats.sx, mats.sy, mats.sz)):
        if J != 0.0:
            h += J * (S[:, None, :, None] * S[None, :, None, :])
    assert not h.imag.any(), "bond operator is not real"
    H = np.zeros((dim, dim))
    for (i, j) in spec.bonds():
        a, b = min(i, j), max(i, j)
        shape = (d ** a, d, d ** (b - a - 1), d, d ** (n - b - 1))
        # l, m, r run along the diagonal; p, q pick the rows and P, Q the columns
        view = np.einsum("lpmqrlPmQr->lmrpqPQ", H.reshape(shape + shape))
        view += h.real
    return H


def reference_husimi(state: PolynomialState, points: Sequence[Sequence[complex]],
                      variables: Sequence[Var] | None = None) -> list[float]:
    """Husimi-Q density Q(z) = pi^-d e^(-|z|^2) |psi(z)|^2 at each point.

    `variables` fixes the phase-space coordinates (ordered); it defaults to
    the state's active variables and must cover them, each named once (a
    ValueError otherwise).  Each point supplies one complex coordinate per
    variable.  The state must be normalized to 1e-10; psi is evaluated with
    the monomial normalizations restored.  Where the product of the factors
    underflows to 0 with psi(z) != 0, Q is the exponential of the sum of
    their logs.

    Raises AmplitudeOverflow at a point where psi(z) or |z|^2 is beyond the
    float range (Q itself may then be below it).
    """
    if abs(state.norm() - 1.0) > 1e-10:
        raise NotNormalized(f"state norm {state.norm()!r} is not 1 within 1e-10")
    if variables is None:
        variables = state.active_variables()
    variables = list(variables)
    twice = [v for k, v in enumerate(variables) if v in variables[:k]]
    if twice:
        raise ValueError(f"variable {var_name(twice[0])} is named more than once")
    missing = sorted(set(state.active_variables()) - set(variables))
    if missing:
        raise ValueError("variables must cover the state's modes; missing "
                         + ", ".join(map(var_name, missing)))
    d = len(variables)
    pos = {v: k for k, v in enumerate(variables)}

    # coefficient of prod z^n with normalization restored: amp / sqrt(prod n!)
    monomials = []
    for m, amp in state.items():
        exps = [0] * d
        for v, e in m.items():
            exps[pos[v]] = e
        monomials.append((exps, amp / math.sqrt(monomial_norm_sq(m))))

    out = []
    pref = math.pi ** (-d)
    for pt in points:
        zs = [complex(c) for c in pt]
        if len(zs) != d:
            raise ValueError(f"point has {len(zs)} coordinates, expected {d}")
        try:
            psi = 0j
            for exps, c in monomials:
                term = c
                for zv, e in zip(zs, exps):
                    if e:
                        term *= zv ** e
                psi += term
            r2 = sum(abs(zv) ** 2 for zv in zs)
            q = pref * math.exp(-r2) * abs(psi) ** 2
            if q == 0 and psi != 0:     # a factor underflowed: the product in logs
                q = math.exp(math.log(pref) - r2 + 2 * math.log(abs(psi)))
        except OverflowError:
            q = math.nan
        if not math.isfinite(q):
            raise AmplitudeOverflow(f"psi(z) or |z|^2 at the point {pt!r} is beyond "
                                    f"the float range")
        out.append(q)
    return out
