"""Independent ground truth: the tensor-product spin matrices.

The same chain Hamiltonians on the tensor-product basis, built from the
standard spin-s matrices and sharing nothing with the holomorphic path
beyond the ChainSpec.  Each bond's two-site operator is placed on the pairs
of states that differ at the bond's two sites alone, as the sparse entries
of H, so no identity factor and no n x n array is ever formed.  The
operator and each bond's listing of states are the oracle's own; the
placement step shared with the sector matrices (`thermo.placement`) reads
no matrix element.  Phase convention is Condon-Shortley (real
non-negative ladder elements), so agreement with the sector matrices is
entry-wise, not just spectral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainSpec
from .errors import DimensionMismatch
from .thermo import Pattern, SectorMatrix, Spectrum, _kept_plan, check_cap, placement


@dataclass(frozen=True)
class SpinMatrices:
    s: Fraction
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def spin_matrices(s, hbar: float = 1.0) -> SpinMatrices:
    """Standard spin-s matrices in the |s, m> basis ordered m = -s..+s."""
    sf = Fraction(s)
    if (2 * sf).denominator != 1 or sf < 0:
        raise ValueError(f"s={s} is not a non-negative half-integer")
    d = int(2 * sf) + 1
    h = float(hbar)
    ms = [float(-sf + k) for k in range(d)]
    sval = float(sf)
    sp = np.zeros((d, d), dtype=np.complex128)
    for k in range(d - 1):
        m = ms[k]
        sp[k + 1, k] = h * np.sqrt(sval * (sval + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    sz = np.diag(np.array(ms, dtype=np.complex128)) * h
    return SpinMatrices(s=sf, sx=sx, sy=sy, sz=sz)


def _oracle_plan(d: int, n_sites: int, boundary: str, h_keys: bytes) -> Pattern:
    """The `placement` of a bond operator h with these nonzero row-major
    keys (int64) on the bonds of `ChainSpec.bonds`, which depend on n_sites
    and the boundary alone.  With a < b the sites of a bond, the index range
    reshaped to (L, d, M, d, R), L = d^a, M = d^(b-a-1), R = d^(n-b-1),
    lists the states by their digits p at site a and q at site b, as h's
    rows and columns are indexed (p d + q)."""
    states = np.arange(d ** n_sites)

    def local(i, j):
        a, b = min(i, j), max(i, j)
        lpmqr = states.reshape(d ** a, d, d ** (b - a - 1), d, d ** (n_sites - b - 1))
        return lpmqr.transpose(1, 3, 0, 2, 4).reshape(d * d, -1)     # [p d + q, (l, m, r)]

    bonds = ChainSpec(n_sites, Fraction(d - 1, 2), (0, 0, 0), boundary).bonds
    return Pattern(*placement(d, n_sites, np.frombuffer(h_keys, dtype=np.int64), bonds, local))


def oracle_matrix(spec: ChainSpec) -> SectorMatrix:
    """H = sum over bonds (a, b) of sum_k J_k S_k(a) S_k(b), as its entries.

    The two-site operator h = sum_k J_k S_k (x) S_k is formed once as a
    (d^2, d^2) matrix, rows and columns indexed by p d + q, the digits of
    the bond's first and second site.  It is real (S_y (x) S_y is), so H is
    float64; a nonzero imaginary part in it is an AssertionError.  Its
    nonzero entries are placed on every bond (`Pattern.place`), and the
    contributions to an entry of H are summed in `spec.bonds()` order, so
    each entry is the float sum of the dense build that adds h into H bond
    by bond.  An entry whose contributions cancel is a stored zero.

    The index work is the shape's placement (`_oracle_plan`): d, n_sites,
    the boundary and h's nonzero pattern, never a coupling or hbar value.
    It is kept with the chain plans (`thermo._kept_plan`), and with it the
    mirror and block layout of `eigensolve`.  `check_cap` runs before
    anything is built.
    """
    d, n = int(2 * spec.spin) + 1, spec.n_sites
    check_cap(d, n)
    mats = spin_matrices(spec.spin, float(spec.hbar))
    h = np.zeros((d,) * 4, dtype=np.complex128)   # [p, q, P, Q] = <p q|h|P Q>
    for J, S in zip(spec.couplings, (mats.sx, mats.sy, mats.sz)):
        if J != 0.0:
            h += J * (S[:, None, :, None] * S[None, :, None, :])
    assert not h.imag.any(), "bond operator is not real"
    h = h.real.reshape(-1)
    keys = np.flatnonzero(h).astype(np.int64)
    return _kept_plan(_oracle_plan, d, n, spec.boundary, keys.tobytes()).place(h[keys])


def oracle_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """`oracle_matrix` as a dense float64 array, C-contiguous: the same
    entries, zero elsewhere.  `check_cap` runs before any allocation."""
    M = oracle_matrix(spec)
    H = np.zeros(M.shape)
    H[M.rows, M.cols] = M.vals
    return H


@dataclass(frozen=True)
class SpectrumComparison:
    dimension: int
    max_abs_diff: float
    tol: float
    bound: float  # tol * max(1, max |lambda|): the largest diff that passes
    passed: bool
    worst: tuple  # (index, a, b, |a-b|) sorted by diff descending


def compare_spectra(a: Spectrum, b: Spectrum, tol: float) -> SpectrumComparison:
    """Pair the ascending eigenvalues of `a` and `b` and pass when
    max |a_i - b_i| <= tol * max(1, max |lambda|) over both spectra: `tol` is
    absolute for spectra within [-1, 1] and relative beyond."""
    if len(a) != len(b):
        raise DimensionMismatch(f"dimensions differ: {len(a)} vs {len(b)}")
    diff = np.abs(a.eigenvalues - b.eigenvalues)
    max_diff = float(diff.max()) if len(a) else 0.0
    bound = tol * max(1.0, *(float(np.abs(s.eigenvalues).max(initial=0.0)) for s in (a, b)))
    order = np.argsort(diff)[::-1][: min(5, len(a))]
    worst = tuple((int(i), float(a.eigenvalues[i]), float(b.eigenvalues[i]), float(diff[i]))
                  for i in order)
    return SpectrumComparison(dimension=len(a), max_abs_diff=max_diff, tol=float(tol),
                              bound=float(bound), passed=bool(max_diff <= bound), worst=worst)
