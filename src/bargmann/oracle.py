"""Independent ground truth: dense tensor-product spin matrices.

The same chain Hamiltonians as full dense matrices on the tensor-product
basis, built from the standard spin-s matrices and sharing nothing with the
holomorphic path beyond the ChainSpec.  Each bond's two-site operator is
added into the view of H on which every other site acts as the identity,
so no identity factor is ever formed.  Phase convention is
Condon-Shortley (real non-negative ladder elements), so agreement with the
sector matrices is entry-wise, not just spectral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import ChainSpec
from .errors import DimensionMismatch
from .thermo import Spectrum, check_cap


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


def oracle_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense H = sum over bonds (a, b) of sum_k J_k S_k(a) S_k(b).

    The two-site operator sum_k J_k S_k (x) S_k is formed once as a
    (d, d, d, d) array and added into the view of H that is diagonal on
    every other site: with a < b, H is reshaped to (L, d, M, d, R) x
    (L, d, M, d, R) with L = d^a, M = d^(b-a-1), R = d^(n-b-1), and the
    view, a writable `np.einsum` diagonal, takes equal L, M and R indices on
    both sides.  The operator is real (S_y (x) S_y is), so H is float64; a
    nonzero imaginary part in it is an AssertionError.  `check_cap` runs
    before any allocation.
    """
    d, n = int(2 * spec.spin) + 1, spec.n_sites
    check_cap(d, n)
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
