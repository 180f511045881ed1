import itertools
import json
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from bargmann.algebra import MultiIndex, PolynomialState, w_var, z_var
from bargmann.chain import (
    ChainSpec,
    chain_matrix,
    solve,
    symmetry_reduction,
)
from bargmann.dsl import parse
from bargmann.errors import DimensionTooLarge, NotHermitian, NotNormalized
from bargmann.thermo import (
    HERMITICITY_TOL,
    MAX_DENSE_DIM,
    RESIDUAL_FACTOR,
    SectorMatrix,
    Spectrum,
    _certificate,
    _components,
    _sq_sum,
    _triplets,
    _unit,
    eigensolve,
    husimi_q,
    partition_function,
    spectrum_to_json,
    thermo_sweep,
    thermo_to_csv,
    to_json,
)

from reference import as_sector_matrix, reference_assemble

Z0 = z_var(0)


def xxx2_spectrum():
    spec = ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, 1, 1))
    M = chain_matrix(spec)
    return eigensolve(M)


class TestEigensolve:
    def test_diagonal(self):
        s = eigensolve(np.diag([3.0, -1.0]))
        assert np.allclose(s.eigenvalues, [-1.0, 3.0])
        assert s.residual_bound <= 1e-12

    def test_swap_matrix(self):
        s = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(s.eigenvalues, [-1.0, 1.0])

    def test_xxx_anchor(self):
        s = xxx2_spectrum()
        assert np.allclose(s.eigenvalues, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_subnormal_complex_entries(self):
        # complex division by a subnormal unit would take an infinite reciprocal
        for x in (1e-310j, 5e-324j, 1e-308 + 1e-309j):
            H = np.array([[0, x], [np.conj(x), 0]])
            w = eigensolve(H, compute_vectors=False).eigenvalues
            assert np.array_equal(w, [-abs(x), abs(x)])

    @pytest.mark.parametrize("vectors", [False, True])
    def test_subnormal_scale_keeps_a_nonzero_cap(self, vectors):
        # 1e-8 * max|H| * n underflows to 0 here, and |x| rounds on the
        # subnormal grid; H * 2**e has neither problem
        x = 3e-320 + 1e-320j
        s = eigensolve(np.array([[0, x], [np.conj(x), 0]]), compute_vectors=vectors)
        assert s.eigenvalues == pytest.approx([-abs(x), abs(x)], rel=0, abs=1e-323)

    @pytest.mark.parametrize("vectors", [False, True])
    def test_subnormal_one_sided_entry_fails_the_cap(self, vectors):
        # within the absolute Hermiticity gate but not a Hermitian matrix at
        # its own scale: both bounds see it, as for 1e-11 in place of 1e-320
        # (the residual norm used to underflow to 0)
        for x in (1e-11, 1e-320):
            with pytest.raises(RuntimeError, match="exceeds"):
                eigensolve(np.array([[0, x], [0, 0]]), compute_vectors=vectors)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("BARGMANN_MAX_DIM", "4")
        with pytest.raises(DimensionTooLarge):
            eigensolve(np.eye(5))

    def test_ascending_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.0]))

    def test_residuals_and_trace_random(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 17, 40):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = (A + A.conj().T) / 2
            s = eigensolve(H)
            assert s.residual_bound <= 1e-8 * np.abs(H).max() * n
            trace = float(np.trace(H).real)
            assert s.eigenvalues.sum() == pytest.approx(trace, rel=1e-9, abs=1e-9)
            for k in range(n):
                v = s.eigenvectors[:, k]
                r = np.linalg.norm(H @ v - s.eigenvalues[k] * v)
                assert r <= s.residual_bound + 1e-15

    def test_zero_matrix(self):
        s = eigensolve(np.zeros((3, 3)))
        assert not s.eigenvalues.any()
        assert s.residual_bound == 0.0


def _chain_matrix(n, s, couplings, boundary="open", mode="compositional"):
    spec = ChainSpec(n_sites=n, spin=s, couplings=couplings, boundary=boundary, mode=mode)
    return chain_matrix(spec)


def _complex_dsl_matrix():
    """i (z0 w1 dw0 dz1 - w0 z1 dz0 dw1) + z0 dz0 + w2 dw2 / 2 on three spin-1 sites."""
    op = parse("(0,1)*z[0]*w[1]*dw[0]*dz[1] + (0,-1)*w[0]*z[1]*dz[0]*dw[1]"
               " + z[0]*dz[0] + (1/2)*w[2]*dw[2]")
    spec = ChainSpec(n_sites=3, spin=Fraction(1), couplings=(0, 0, 0))
    return as_sector_matrix(reference_assemble(op, spec))


def _random_hermitian(n, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


BLOCKED_CASES = {
    "xxz": lambda: _chain_matrix(6, Fraction(1, 2), (1, 1, 0.5), "periodic"),
    "xyz": lambda: _chain_matrix(4, Fraction(1), (1, 0.7, 0.3)),
    "xxx": lambda: _chain_matrix(3, Fraction(3, 2), (1, 1, 1), "periodic"),
    "paper_literal": lambda: _chain_matrix(3, Fraction(1), (1.1, -0.7, 0.4), "periodic",
                                           "paper_literal"),
    "jx_eq_minus_jy": lambda: _chain_matrix(6, Fraction(1, 2), (1, -1, 0.5), "periodic"),
    "complex_dsl": _complex_dsl_matrix,
    "dense_random": lambda: _random_hermitian(30),
    "diagonal": lambda: np.diag(np.random.default_rng(5).normal(size=20)),
    "empty": lambda: np.zeros((0, 0)),
    "single": lambda: np.array([[2.5]]),
}


class TestBlockedEigensolve:
    """The blocked solve against np.linalg.eigvalsh of the full complex matrix."""

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_matches_unblocked(self, case):
        H = BLOCKED_CASES[case]()
        A = H.toarray() if hasattr(H, "toarray") else H
        A = np.asarray(A, dtype=np.complex128)
        n = A.shape[0]
        ref = np.linalg.eigvalsh(A)
        scale = np.abs(ref).max(initial=0.0)
        for vectors in (False, True):
            s = eigensolve(H, compute_vectors=vectors)
            assert s.eigenvalues.shape == (n,)
            assert np.abs(s.eigenvalues - ref).max(initial=0.0) <= 1e-12 * scale
        V = s.eigenvectors
        assert V.shape == (n, n)
        assert np.abs(V.conj().T @ V - np.eye(n)).max(initial=0.0) <= 1e-12
        residual = np.linalg.norm(A @ V - V * s.eigenvalues, axis=0)
        assert residual.max(initial=0.0) <= s.residual_bound + 1e-14 * np.abs(A).max(initial=0.0)

    def test_complex_case_is_complex(self):
        M = _complex_dsl_matrix()
        assert np.abs(M.toarray().imag).max() > 0
        assert np.iscomplexobj(eigensolve(M).eigenvectors)

    def test_block_counts(self):
        def count(H):
            n, rows, cols, _ = _triplets(H)
            return len(np.unique(_components(rows, cols, n)))

        xyz = _chain_matrix(6, Fraction(1, 2), (1, -0.9, 0.5), "periodic")
        cancel = _chain_matrix(6, Fraction(1, 2), (1, -1, 0.5), "periodic")
        assert count(xyz) == 2                                  # parity of total m
        assert count(xyz.toarray()) == 2
        assert count(cancel) > 2
        assert count(_random_hermitian(30)) == 1
        assert count(np.diag(np.arange(1.0, 21.0))) == 20

    def test_one_sided_entry_within_tolerance_joins_blocks(self):
        H = np.diag([1.0, 2.0, 3.0, 4.0])
        H[0, 3] = 1e-12
        s = eigensolve(H)
        residual = np.linalg.norm(H @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
        assert residual.max() <= s.residual_bound + 1e-15
        assert s.residual_bound > 0


class TestBlockedGates:
    def test_asymmetry_inside_one_block(self):
        H = np.zeros((3, 3))
        H[:2, :2] = [[0.0, 1.0], [1.5, 0.0]]
        H[2, 2] = 2.0
        with pytest.raises(NotHermitian):
            eigensolve(H)

    def test_one_sided_entry_across_blocks(self):
        H = np.diag([1.0, 2.0, 3.0, 4.0])
        H[0, 3] = 0.5
        with pytest.raises(NotHermitian):
            eigensolve(H)

    def test_hermiticity_gate_scales_with_max_entry(self):
        # one ulp of 1e8 is 1.5e-8, above an absolute 1e-10 but float noise on
        # the scale of H; the gate is 1e-10 * max(1, max|H|)
        big = 1e8
        H = np.array([[0.0, big], [np.nextafter(big, np.inf), 0.0]])
        for vectors in (False, True):
            w = eigensolve(H, compute_vectors=vectors).eigenvalues
            assert np.allclose(w, [-big, big], rtol=1e-15, atol=0)
        H[1, 0] = big * (1 + 1e-9)
        with pytest.raises(NotHermitian, match="1e-10 \\* max\\(1, max \\|H\\| = 1.000e\\+08\\)"):
            eigensolve(H)
        # unchanged for max|H| <= 1
        with pytest.raises(NotHermitian):
            eigensolve(np.array([[0.0, 0.5], [0.5 + 2e-10, 0.0]]))

    def _shifted_eigh(self, monkeypatch, eps):
        real_eigh = np.linalg.eigh

        def eigh(a):
            w, v = real_eigh(a)
            return w + eps, v

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    def test_residual_cap_uses_full_dimension_and_scale(self, monkeypatch):
        # eight 1x1 blocks; the cap is 1e-8 * 100 * 8 = 8e-6, while any one
        # block's own size and entry would give at most 1e-6
        H = np.diag([100.0, 1, 1, 1, 1, 1, 1, 1])
        self._shifted_eigh(monkeypatch, 5e-6)
        assert eigensolve(H).residual_bound == pytest.approx(5e-6)
        self._shifted_eigh(monkeypatch, 1e-5)
        with pytest.raises(RuntimeError, match="exceeds 8.000e-06"):
            eigensolve(H)


def _reference_components(A):
    rows, cols = np.nonzero(A)
    lab = np.arange(A.shape[0])
    while True:
        new = lab.copy()
        np.minimum.at(new, rows, lab[cols])
        np.minimum.at(new, cols, lab[rows])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def reference_eigensolve(H, compute_vectors=True, max_dim=MAX_DENSE_DIM):
    """The dense front end that the triplet front end replaced: H is made a
    dense complex array, checked and labelled entry-wise, and each block is
    gathered from it.  The eigensolves, the checks' thresholds and the merge
    are the same; without eigenvectors, each block is certified by its
    moments, and so is A against all of its eigenvalues."""
    if hasattr(H, "toarray"):
        H = H.toarray()
    A = np.asarray(H, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > max_dim:
        raise DimensionTooLarge(f"dimension {n} exceeds cap {max_dim}")
    if not A.imag.any():
        A = np.ascontiguousarray(A.real)
    dev = np.abs(A - A.conj().T).max() if n else 0.0
    scale = np.abs(A).max() if n else 0.0
    if dev > HERMITICITY_TOL * max(1.0, scale):
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e} > "
                           f"{HERMITICITY_TOL:.0e} * max(1, max |H| = {scale:.3e})")
    e = -math.frexp(scale)[1] if 0 < scale < np.finfo(float).tiny else 0
    if e:    # a subnormal max|A|: solved as A * 2**e, then scaled back
        scale = math.ldexp(scale, e)
        A = np.ldexp(A.real, e) + 1j * np.ldexp(A.imag, e) if np.iscomplexobj(A) else np.ldexp(A, e)
    unit = _unit(scale)
    lab = _reference_components(A)
    order = np.argsort(lab, kind="stable")
    _, starts, sizes = np.unique(lab[order], return_index=True, return_counts=True)
    groups = []
    bound = 0.0
    # blocks of each size in one stack, real ones (no imaginary part) before
    # complex ones, each stack solved in its own dtype
    real = np.array([not A[np.ix_(i, i)].imag.any()
                     for i in np.split(order, starts[1:])], dtype=bool)
    for s, cplx in itertools.product(np.unique(sizes), (False, True)):
        pick = (sizes == s) & (real != cplx)
        if not pick.any():
            continue
        idx = order[starts[pick][:, None] + np.arange(s)]
        B = A[idx[:, :, None], idx[:, None, :]]
        if not cplx:
            B = B.real.copy()
        if compute_vectors:
            w, V = np.linalg.eigh(B)
            residual = np.linalg.norm(B @ V - V * w[:, None, :], axis=1)
            bound = max(bound, float(residual.max()))
        else:
            w, V = np.linalg.eigvalsh(B), None
            B = B / unit
            bound = max(bound, _certificate(w / unit, np.trace(B, axis1=1, axis2=2).real,
                                            _sq_sum(B, "kij,kij->k"), unit))
        groups.append((idx, w, V))
    flat = np.concatenate([w.ravel() for _, w, _ in groups]) if n else np.zeros(0)
    order = np.argsort(flat, kind="stable")
    what = "eigendecomposition residual"
    if not compute_vectors:
        what = "eigenvalue moment certificate"
        r, c = np.nonzero(A)
        v = A[r, c] / unit
        bound = max(bound, _certificate(flat[order] / unit, v[r == c].real.sum(),
                                        _sq_sum(v, "i,i"), unit))
    cap = RESIDUAL_FACTOR * scale * n
    if bound > cap:
        raise RuntimeError(f"{what} {math.ldexp(bound, -e):.3e} exceeds {math.ldexp(cap, -e):.3e}")
    evecs = None
    if compute_vectors:
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        evecs = np.zeros((n, n), dtype=A.dtype)
        start = 0
        for idx, _, V in groups:
            pos = rank[start:start + idx.size].reshape(idx.shape)
            evecs[idx[:, :, None], pos[:, None, :]] = V
            start += idx.size
    return Spectrum(eigenvalues=np.ldexp(flat[order], -e), eigenvectors=evecs,
                    residual_bound=math.ldexp(bound, -e))


def _outcome(solver, H, vectors, max_dim):
    try:
        if solver is reference_eigensolve:
            return solver(H, compute_vectors=vectors, max_dim=max_dim)
        with mock.patch.dict(os.environ, {"BARGMANN_MAX_DIM": str(max_dim)}):
            return solver(H, compute_vectors=vectors)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def assert_same_as_reference(H, max_dim=MAX_DENSE_DIM):
    """Eigenvalues, residual bound and eigenvectors bit for bit, or the same
    exception with the same message.  A scipy H reaches `eigensolve` as
    `as_sector_matrix(H)` and the reference as itself."""
    for vectors in (False, True):
        got = _outcome(eigensolve, as_sector_matrix(H), vectors, max_dim)
        want = _outcome(reference_eigensolve, H, vectors, max_dim)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
            continue
        assert got.eigenvalues.dtype == want.eigenvalues.dtype
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert got.residual_bound == want.residual_bound
        if vectors:
            assert got.eigenvectors.dtype == want.eigenvectors.dtype
            assert np.array_equal(got.eigenvectors, want.eigenvectors)
        else:
            assert got.eigenvectors is None and want.eigenvectors is None


def _forms(H):
    """H as built, as a dense array, as CSR and as COO."""
    A = H.toarray() if hasattr(H, "toarray") else np.asarray(H)
    return {"built": H, "dense": A, "csr": sp.csr_matrix(A), "coo": sp.coo_matrix(A)}


@st.composite
def sparse_hermitian(draw):
    """COO matrices with duplicate entries, stored zeros and signed zeros,
    Hermitian by construction unless one one-sided entry is added."""
    n = draw(st.integers(0, 12))
    value = st.floats(-8, 8, allow_nan=False)
    real = draw(st.booleans())
    rows, cols, data = [], [], []
    if n:
        entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                          value, value), max_size=3 * n))
        for r, c, re, im in entries:
            v = complex(re, 0.0 if real or r == c else im)
            rows += [r, c]
            cols += [c, r]
            data += [v, v.conjugate()]
        if draw(st.booleans()):
            rows.append(draw(st.integers(0, n - 1)))
            cols.append(draw(st.integers(0, n - 1)))
            data.append(complex(draw(value), 0.0))
    return sp.coo_matrix((np.array(data, dtype=np.complex128), (rows, cols)), shape=(n, n))


class TestTripletFrontEnd:
    """The triplet front end against the dense one it replaced."""

    @pytest.mark.parametrize("form", ["built", "dense", "csr", "coo"])
    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_blocked_cases(self, case, form):
        assert_same_as_reference(_forms(BLOCKED_CASES[case]())[form])

    def test_csr_with_stored_zeros_duplicates_and_unsorted_indices(self):
        # (0,1) is a stored zero plus 2.0; (1,2) sums 2^53 + 1 - 2^53 to 0 in
        # storage order and to 1 sorted or reversed, and its mirror (2,1) is a
        # stored zero, so those orders would fail the Hermiticity check
        big = 2.0 ** 53
        data = [0.25, 0.0, 0.5, 2.0, big, 2.0, 1.0, -big, 0.0, 0.75, 3.0]
        indices = [2, 1, 2, 1, 2, 0, 2, 2, 1, 0, 2]
        H = sp.csr_matrix((data, indices, [0, 4, 8, 11]), shape=(3, 3))
        assert not H.has_sorted_indices
        A = H.toarray()
        assert np.array_equal(A, [[0, 2, 0.75], [2, 0, 0], [0.75, 0, 3]])
        assert_same_as_reference(H)
        assert np.array_equal(eigensolve(as_sector_matrix(H)).eigenvalues,
                              eigensolve(A).eigenvalues)

    def test_sparse_matrix_is_not_read(self):
        # only a `SectorMatrix` or an array is read; np.asarray makes a scipy
        # matrix a 0-d object array
        for H in (sp.csr_matrix(np.eye(2)), sp.coo_matrix(np.eye(2))):
            with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(\)"):
                eigensolve(H)

    def test_one_sided_entries(self):
        for value in (1e-12, 0.5):
            H = np.diag([1.0, 2.0, 3.0, 4.0])
            H[0, 3] = value
            for form in _forms(H).values():
                assert_same_as_reference(form)
        H = np.diag([1.0, 2.0, 3.0j])
        assert_same_as_reference(H)

    def test_shape_and_cap_messages(self):
        for H in (np.zeros((2, 3)), np.zeros(3), np.eye(5), sp.csr_matrix(np.eye(5))):
            assert_same_as_reference(H, max_dim=4)

    def test_residual_cap_message(self, monkeypatch):
        H = np.diag([100.0, 1, 1, 1, 1, 1, 1, 1])
        TestBlockedGates()._shifted_eigh(monkeypatch, 1e-5)
        for form in _forms(H).values():
            assert_same_as_reference(form)

    @given(sparse_hermitian())
    @settings(max_examples=200)
    def test_generated_sparse_hermitian(self, H):
        for form in (H, H.tocsr(), H.toarray()):
            assert_same_as_reference(form)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
    def test_non_finite_entry(self, bad):
        H = np.array([[bad, 0], [0, 1.0]])
        forms = [*_forms(H).values(), SectorMatrix.from_triplets(2, [0, 1], [0, 1], [bad, 1])]
        for form in forms:
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                eigensolve(as_sector_matrix(form))

    def test_duplicates_summing_beyond_float_range(self):
        big = 1.7e308
        for data in ([big, big], [math.inf, -math.inf]):
            H = sp.coo_matrix((data, ([0, 0], [0, 0])), shape=(2, 2))
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                eigensolve(as_sector_matrix(H))

    def test_negative_zero_is_zero(self):
        # the reference gathered a -0.0 into the block, where LAPACK's
        # reflector signs can see it; the triplet front end reads values only
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6))
        A = A + A.T
        A[1, 0] = A[0, 1] = 0.0
        B = A.copy()
        B[1, 0] = B[0, 1] = -0.0
        a, b = eigensolve(A), eigensolve(B)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert_same_as_reference(A)

    def test_csr_eigenvalues_allocate_no_square_array(self):
        M = _chain_matrix(10, Fraction(1, 2), (1, 1, 0.5), "periodic")
        n = M.shape[0]
        eigensolve(M, compute_vectors=False)
        tracemalloc.start()
        try:
            eigensolve(M, compute_vectors=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


HALF = Fraction(1, 2)
VECTOR_FREE_LADDER = ([(Fraction(0), 3)] + [(HALF, n) for n in (2, 3, 5, 8, 10)]
                      + [(Fraction(1), n) for n in (2, 4, 6)]
                      + [(Fraction(3, 2), n) for n in (2, 3, 5)]
                      + [(Fraction(2), n) for n in (2, 4)])
VECTOR_FREE_COUPLINGS = [(1e-8, 2e-8, -3e-8), (0.7, -1.3, 0.45), (1.0, 1.0, 0.5), (1e8, 7e7, 3e7)]


def _shift_one_eigenvalue(monkeypatch, eps):
    """Make `np.linalg.eigvalsh` move the top eigenvalue of the first matrix
    of each stack by eps."""
    real_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(a):
        w = real_eigvalsh(a)
        w[(0,) * (w.ndim - 1) + (-1,)] += eps
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


class TestVectorFree:
    """`eigvalsh` and the moment certificate against `eigh` and its residual."""

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_blocked_cases_match_eigh(self, case):
        H = BLOCKED_CASES[case]()
        want = eigensolve(H, compute_vectors=True).eigenvalues
        got = eigensolve(H, compute_vectors=False)
        scale = np.abs(want).max(initial=0.0)
        assert got.eigenvectors is None
        assert np.abs(got.eigenvalues - want).max(initial=0.0) <= 1e-12 * scale
        assert got.residual_bound <= 1e-12 * scale

    @pytest.mark.parametrize("spin,n", VECTOR_FREE_LADDER)
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("mode", ["compositional", "paper_literal"])
    def test_chain_ladder_matches_eigh(self, spin, n, boundary, mode):
        for couplings in VECTOR_FREE_COUPLINGS:
            spec = ChainSpec(n_sites=n, spin=spin, couplings=couplings, boundary=boundary,
                             mode=mode)
            M = chain_matrix(spec)
            want = eigensolve(M, compute_vectors=True).eigenvalues
            scale = np.abs(want).max(initial=0.0)
            for got in (eigensolve(M, compute_vectors=False), solve(spec)):
                assert np.abs(got.eigenvalues - want).max() <= 1e-12 * scale, couplings
                assert got.residual_bound <= 1e-12 * scale, couplings

    def test_certificate_cap_uses_full_dimension_and_scale(self, monkeypatch):
        # eight 1x1 blocks; the cap is 1e-8 * 100 * 8 = 8e-6, and one eigenvalue
        # moved by d gives a certificate of d
        H = np.diag([100.0, 1, 1, 1, 1, 1, 1, 1])
        _shift_one_eigenvalue(monkeypatch, 5e-6)
        assert eigensolve(H, compute_vectors=False).residual_bound == pytest.approx(5e-6)
        _shift_one_eigenvalue(monkeypatch, 1e-5)
        with pytest.raises(RuntimeError, match="certificate .* exceeds 8.000e-06"):
            eigensolve(H, compute_vectors=False)

    def test_shifted_chain_solve(self, monkeypatch):
        spec = ChainSpec(n_sites=6, spin=HALF, couplings=(1.0, 0.7, 0.3), boundary="periodic")
        M = chain_matrix(spec)
        cap = RESIDUAL_FACTOR * np.abs(M.vals).max() * M.n
        # one eigenvalue moves per stack, and the certificate on M sums them
        _shift_one_eigenvalue(monkeypatch, 0.01 * cap)
        assert 0.01 * cap <= solve(spec).residual_bound <= cap
        _shift_one_eigenvalue(monkeypatch, 2 * cap)
        with pytest.raises(RuntimeError, match="exceeds"):
            solve(spec)

    @pytest.mark.parametrize("couplings", [(1.0, 0.7, 0.3), (1.0, 1.0, 0.0)])
    def test_reduction_not_unitary_raises(self, couplings):
        # each block of 1.01 K is solved correctly, so only the certificate on
        # M sees the wrong spectrum; with jz = 0, tr M = 0 and c2 sees it
        spec = ChainSpec(n_sites=6, spin=HALF, couplings=couplings, boundary="periodic")
        M = chain_matrix(spec)
        reduce = symmetry_reduction(spec)

        def scaled(M):
            K, mult = reduce(M)
            return SectorMatrix(K.n, K.rows, K.cols, 1.01 * K.vals), mult

        assert eigensolve(M, compute_vectors=False, reduce=reduce).residual_bound <= 1e-13
        with pytest.raises(RuntimeError, match="moment certificate"):
            eigensolve(M, compute_vectors=False, reduce=scaled)

    def test_real_blocks_solved_in_real_arithmetic(self, monkeypatch):
        dtypes = []
        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(a):
            dtypes.append(a.dtype)
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        # k = 0 and pi of a periodic chain are real, the paired k are not
        solve(ChainSpec(n_sites=6, spin=HALF, couplings=(1.0, 0.7, 0.3), boundary="periodic"))
        assert set(dtypes) == {np.dtype(float), np.dtype(complex)}
        dtypes.clear()
        solve(ChainSpec(n_sites=6, spin=HALF, couplings=(1.0, 0.7, 0.3)))
        assert set(dtypes) == {np.dtype(float)}

    @pytest.mark.parametrize("change", ["one more", "one less", "within a block"])
    def test_wrong_multiplicities_raise(self, change):
        spec = ChainSpec(n_sites=6, spin=HALF, couplings=(1.0, 0.7, 0.3), boundary="periodic")
        M = chain_matrix(spec)
        reduce = symmetry_reduction(spec)

        def wrong(M):
            K, mult = reduce(M)
            lab = _components(K.rows, K.cols, K.n)
            first = int(np.flatnonzero((mult == 2) & (np.bincount(lab, minlength=K.n)[lab] > 1))[0])
            mult = mult.copy()
            if change == "within a block":
                mult[first] += 1
            else:
                mult[lab == lab[first]] += 1 if change == "one more" else -1
            return K, mult

        with pytest.raises(RuntimeError, match="multiplicities"):
            eigensolve(M, compute_vectors=False, reduce=wrong)

    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    def test_certificate_at_extreme_scales(self, factor):
        # squared entries beyond the float range would make the moments inf
        H = _random_hermitian(12)
        want = eigensolve(H, compute_vectors=False)
        got = eigensolve(factor * H, compute_vectors=False)
        scale = factor * np.abs(want.eigenvalues).max()
        assert np.abs(got.eigenvalues - factor * want.eigenvalues).max() <= 1e-12 * scale
        assert 0 <= got.residual_bound <= 1e-12 * scale


class TestPartitionFunction:
    def test_single_level(self):
        s = Spectrum(np.array([2.5]))
        for T in (0.1, 1.0, 1e4):
            p = partition_function(s, T)
            assert p.entropy == pytest.approx(0.0, abs=1e-12)
            assert p.free_energy == pytest.approx(2.5, rel=1e-12)
            assert p.mean_energy == pytest.approx(2.5, rel=1e-12)

    def test_two_levels_high_temperature(self):
        s = Spectrum(np.array([0.0, 1.0]))
        p = partition_function(s, 1e8)
        assert p.Z == pytest.approx(2.0, rel=1e-7)
        assert p.entropy == pytest.approx(math.log(2), rel=1e-6)

    def test_two_levels_closed_form(self):
        s = Spectrum(np.array([0.0, 1.0]))
        for T in (0.3, 1.0, 5.0):
            b = 1.0 / T
            z = 1 + math.exp(-b)
            p = partition_function(s, T)
            assert p.Z == pytest.approx(z, rel=1e-12)
            e = math.exp(-b) / z
            assert p.mean_energy == pytest.approx(e, rel=1e-12)
            assert p.free_energy == pytest.approx(-T * math.log(z), rel=1e-12)

    def test_xxx_anchor_at_t1(self):
        p = partition_function(xxx2_spectrum(), 1.0)
        want = math.exp(0.75) + 3 * math.exp(-0.25)
        assert p.Z == pytest.approx(want, rel=1e-12)

    def test_low_temperature_no_overflow(self):
        s = Spectrum(np.array([-5.0, 3.0]))
        p = partition_function(s, 1e-6)
        assert p.free_energy == pytest.approx(-5.0, rel=1e-12)
        assert p.entropy == pytest.approx(0.0, abs=1e-10)
        assert math.isinf(p.Z)  # honest float; F/S/E stay finite via the shift

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            partition_function(Spectrum(np.array([0.0])), 0.0)

    def test_infinite_temperature(self):
        with pytest.raises(ValueError, match="temperature must be finite"):
            partition_function(Spectrum(np.array([0.0, 1.0])), math.inf)


class TestThermoSweep:
    def test_empty_grid(self):
        assert thermo_sweep(xxx2_spectrum(), []) == []

    def test_high_t_entropy_is_log_dim(self):
        s = xxx2_spectrum()
        (p,) = thermo_sweep(s, [1e6])
        assert abs(p.entropy - math.log(4)) <= 1e-6 * math.log(4)

    def test_low_t_entropy_vanishes(self):
        s = xxx2_spectrum()  # unique ground state
        (p,) = thermo_sweep(s, [0.001])
        assert 0 <= p.entropy <= 1e-3

    def test_entropy_monotone_nonnegative(self):
        s = xxx2_spectrum()
        grid = np.geomspace(1e-3, 1e6, 50)
        pts = thermo_sweep(s, grid)
        ent = [p.entropy for p in pts]
        assert all(e >= -1e-10 for e in ent)
        assert all(b >= a - 1e-12 for a, b in zip(ent, ent[1:]))

    def test_shift_invariance(self):
        s = xxx2_spectrum()
        shifted = Spectrum(s.eigenvalues + 7.25)
        for T in (0.5, 2.0, 100.0):
            p0 = partition_function(s, T)
            p1 = partition_function(shifted, T)
            assert p1.free_energy - p0.free_energy == pytest.approx(7.25, abs=1e-10)
            assert p1.entropy == pytest.approx(p0.entropy, abs=1e-10)

    def test_grid_validation(self):
        s = xxx2_spectrum()
        with pytest.raises(ValueError):
            thermo_sweep(s, [1.0, 0.5])
        with pytest.raises(ValueError):
            thermo_sweep(s, [-1.0])
        with pytest.raises(ValueError, match="all temperatures must be finite"):
            thermo_sweep(s, [1.0, math.inf])


class TestSerialization:
    def test_csv_shape(self):
        pts = thermo_sweep(xxx2_spectrum(), [1.0, 2.0])
        text = thermo_to_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "T,Z,F,S,E_mean"
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 5

    def test_csv_empty_grid_header_only(self):
        assert thermo_to_csv([]) == "T,Z,F,S,E_mean\n"

    def test_spectrum_json(self):
        import json
        s = xxx2_spectrum()
        obj = json.loads(spectrum_to_json(s))
        assert obj["eigenvalues"] == pytest.approx([-0.75, 0.25, 0.25, 0.25])
        assert obj["residual_bound"] >= 0

    def test_spectrum_json_non_finite_and_digits(self):
        import json
        s = Spectrum(np.array([-1.0 / 3.0, 2.0]), residual_bound=math.inf)
        text = spectrum_to_json(s)
        assert text == ('{"eigenvalues": [-3.3333333333333331e-01, 2.0000000000000000e+00], '
                        '"residual_bound": Infinity}\n')
        assert json.loads(text)["residual_bound"] == math.inf


class TestToJson:
    def test_non_finite_floats(self):
        assert to_json([math.inf, -math.inf, math.nan]) == "[Infinity, -Infinity, NaN]"

    def test_bool_int_and_float_are_distinct(self):
        assert to_json([True, False, 1, 0, 1.0, None]) == (
            "[true, false, 1, 0, 1.0000000000000000e+00, null]")
        assert to_json(np.float64(0.1)) == "1.0000000000000001e-01"

    def test_nested_containers(self):
        obj = {"a": [1, (2.5, "x")], "b": {"c": [], "d": {}}, 'q"': "\u00e9"}
        text = to_json(obj)
        assert text == ('{"a": [1, [2.5000000000000000e+00, "x"]], "b": {"c": [], "d": {}}, '
                        '"q\\"": "\\u00e9"}')
        assert json.loads(text) == {"a": [1, [2.5, "x"]], "b": {"c": [], "d": {}},
                                    'q"': "\u00e9"}


class TestHusimi:
    def test_vacuum_at_origin(self):
        (q,) = husimi_q(PolynomialState.vacuum(), [[0j]], variables=[Z0])
        assert q == pytest.approx(1 / math.pi, rel=1e-12)

    def test_vacuum_on_unit_circle(self):
        (q,) = husimi_q(PolynomialState.vacuum(), [[1j]], variables=[Z0])
        assert q == pytest.approx(math.exp(-1) / math.pi, rel=1e-12)

    def test_first_excited_at_one(self):
        state = PolynomialState.monomial({Z0: 1})
        (q,) = husimi_q(state, [[1.0 + 0j]])
        assert q == pytest.approx(math.exp(-1) / math.pi, rel=1e-12)

    def test_nonnegative_on_grid(self):
        amp = 1 / math.sqrt(2)
        state = PolynomialState({MultiIndex({Z0: 1}): amp, MultiIndex({Z0: 3}): amp})
        grid = [[complex(x, y)] for x in np.linspace(-2, 2, 9)
                for y in np.linspace(-2, 2, 9)]
        qs = husimi_q(state, grid)
        assert all(q >= 0 for q in qs)

    def test_two_mode_point_shape(self):
        amp = 1 / math.sqrt(2)
        state = PolynomialState({MultiIndex({Z0: 1}): amp,
                                 MultiIndex({w_var(0): 1}): amp})
        (q,) = husimi_q(state, [[0.5 + 0j, -0.25j]])
        assert q >= 0
        with pytest.raises(ValueError):
            husimi_q(state, [[0.5 + 0j]])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            husimi_q(PolynomialState.monomial({Z0: 1}, 2.0), [[0j]])

    def test_variables_must_cover_state(self):
        state = PolynomialState.monomial({Z0: 1})
        with pytest.raises(ValueError):
            husimi_q(state, [[0j]], variables=[w_var(0)])

    def test_monte_carlo_normalization(self):
        # E_p[|psi|^2] = 1 under the proposal p = pi^-1 exp(-|z|^2), i.e.
        # Re/Im ~ N(0, 1/2); estimator stays within 3 standard errors.
        rng = np.random.default_rng(20260808)
        n = 10**5
        z = rng.normal(scale=math.sqrt(0.5), size=n) + \
            1j * rng.normal(scale=math.sqrt(0.5), size=n)
        amps = np.array([0.5, -0.5j, math.sqrt(0.5)])
        state = PolynomialState({MultiIndex({Z0: 1}): amps[0],
                                 MultiIndex({Z0: 2}): amps[1],
                                 MultiIndex({Z0: 4}): amps[2]})
        psi = (amps[0] * z / math.sqrt(1) + amps[1] * z**2 / math.sqrt(2)
               + amps[2] * z**4 / math.sqrt(24))
        w = np.abs(psi) ** 2
        est = w.mean()
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(est - 1.0) <= 3 * se
        # and the same quantity through husimi_q: Q / p = |psi|^2
        pts = [[zz] for zz in z[:200]]
        qs = np.array(husimi_q(state, pts))
        p = np.exp(-np.abs(z[:200]) ** 2) / math.pi
        assert np.allclose(qs, w[:200] * p, rtol=1e-10)
