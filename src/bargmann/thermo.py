"""Eigensolving, partition-function thermodynamics, and Husimi-Q densities.

Conventions: k_B = 1 (temperatures in energy units), natural logarithms.
Thermodynamics uses the excitation energies E - E0: S = log W + <(E - E0)/T>,
with no cancellation at any temperature.
"""

from __future__ import annotations

import collections
import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import PolynomialState, Var, monomial_norm_sq, var_name
from .errors import AmplitudeOverflow, DimensionTooLarge, NotHermitian, NotNormalized

MAX_DENSE_DIM = 8192
HERMITICITY_TOL = 1e-10
RESIDUAL_FACTOR = 1e-8
SWEEP_CHUNK = 2 ** 18      # entries per (temperature, level) array of `thermo_sweep`
                           # and per (point, monomial) array of `husimi_q`


def check_cap(d: int, n_sites: int = 1):
    """Raise DimensionTooLarge if d**n_sites exceeds BARGMANN_MAX_DIM (an integer
    >= 0, read per call; default MAX_DENSE_DIM), unformed past 2**64 and the cap."""
    env = os.environ.get("BARGMANN_MAX_DIM")
    try:
        cap = int(env) if env else MAX_DENSE_DIM
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"BARGMANN_MAX_DIM must be an integer >= 0, got {env!r}")
    huge = d > 1 and n_sites * (int(d).bit_length() - 1) >= max(64, cap.bit_length())
    dim = None if huge else d ** n_sites
    if huge or dim > cap:
        shown = f"{d}**{n_sites}" if huge or dim >= 2 ** 64 else dim
        raise DimensionTooLarge(f"dimension {shown} exceeds cap {cap}")


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with an a-posteriori bound: the largest residual
    ||H v - lambda v|| when eigenvectors were computed, the moment certificate
    of `eigensolve` when they were not."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual_bound: float = 0.0

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be ascending")

    def __len__(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ThermoPoint:
    temperature: float
    Z: float
    free_energy: float
    entropy: float
    mean_energy: float


class Pattern:
    """The entries (rows, cols) of an n x n matrix, sorted row-major with one
    entry per (row, col), and the two pattern steps of `eigensolve`, each
    done on first use and kept, so every matrix on one pattern reuses it:

    - `mirror`: the partner map of `SectorMatrix.deviation` for H^dag;
    - `layout(vals)`: the blocks of `_block_eigh` for the nonzero and
      complex entries of the last values that asked (one layout is kept).

    `matrix(vals)` puts values on the pattern, and `place(h)` a bond
    operator's on a pattern of `placement`, whose `at` holds the entry of
    each placement.  The pattern of a chain's sector matrix is the shape's
    `chain.ChainPlan`, which `chain.chain_matrix` keeps, and that of the
    oracle's a plain placement, which `oracle.oracle_matrix` keeps, both
    with `_kept_plan`; any other `SectorMatrix` gets a pattern of its own,
    on which both pattern steps run on the spot.  Index maps are int32, so
    a pattern holds fewer than 2**31 entries."""

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, placed=None):
        self.n, self.rows, self.cols, self._placed = n, rows, cols, placed
        self._mirror = self._layout = None

    @property
    def at(self) -> np.ndarray:
        """The entry of each placement, flat in (bond, entry of h, state) order."""
        return self._placed.reshape(-1)

    def place(self, h: np.ndarray) -> "SectorMatrix":
        """The matrix of the bond operator with nonzero values `h`, in key
        order, summed at each entry in (bond, entry of h, state) order."""
        placed = np.broadcast_to(h[:, None], self._placed.shape)
        return self.matrix(sum_at(self.at, placed.ravel(), len(self.rows)))

    def matrix(self, vals: np.ndarray) -> "SectorMatrix":
        """The `SectorMatrix` with `vals` at the pattern's entries, which
        reuses the pattern's index work."""
        M = SectorMatrix(self.n, self.rows, self.cols, vals)
        object.__setattr__(M, "pattern", self)
        return M

    def partners(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pattern step of `SectorMatrix.deviation` for a permutation f of
        the index pairs, given at the entries as (rows, cols): the position
        of each entry's image f(r, c), nnz where it is not an entry, and the
        positions of the entries that are no entry's image.  Each mapped
        row-major key is looked up among the pattern's own."""
        nnz = len(self.rows)
        keys = self.rows.astype(np.int64) * self.n + self.cols
        moved = rows.astype(np.int64) * self.n + cols
        at = np.searchsorted(keys, moved)
        hit = keys[np.minimum(at, nnz - 1)] == moved
        missed = np.ones(nnz, dtype=bool)
        missed[at[hit]] = False
        return np.where(hit, at, nnz).astype(np.int32), np.flatnonzero(missed).astype(np.int32)

    @property
    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """`partners` of the transpose (r, c) -> (c, r)."""
        if self._mirror is None:
            self._mirror = self.partners(self.cols, self.rows)
        return self._mirror

    def layout(self, vals: np.ndarray) -> list:
        """`_block_layout` for the nonzero entries of `vals` and those with an
        imaginary part, kept while the next call's entries are the same."""
        nonzero = vals != 0
        imag = vals.imag != 0 if np.iscomplexobj(vals) else None
        key = (nonzero.tobytes(), b"" if imag is None else imag.tobytes())
        kept = self._layout       # read once: another thread may replace it
        if kept is None or kept[0] != key:
            kept = self._layout = (key, _block_layout(self, nonzero, imag))
        return kept[1]


PLAN_BUDGET = 800_000     # entries in the plans kept: 26-77 B each measured, so < 64 MiB
_plans = collections.OrderedDict()     # (build, shape) -> Pattern, least recently used first
_plans_lock = threading.Lock()


def _kept_plan(build, *shape) -> Pattern:
    """The pattern `build(*shape)` of the shape, as the most recently used:
    one cache for every builder, keyed by the builder and the shape.  A new
    pattern is kept when it has at most PLAN_BUDGET entries, and the least
    recently used ones are then dropped until the kept entries sum to at
    most PLAN_BUDGET; a larger one serves its call alone and drops nothing."""
    key = (build, shape)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    plan = build(*shape)
    if len(plan.rows) <= PLAN_BUDGET:
        with _plans_lock:
            _plans[key] = plan
            kept = sum(len(p.rows) for p in _plans.values())
            while kept > PLAN_BUDGET:
                kept -= len(_plans.popitem(last=False)[1].rows)
    return plan


@dataclass(frozen=True)
class SectorMatrix:
    """An n x n matrix as its entries `rows`, `cols` and `vals` (complex128,
    or float64 when every value is real), in row-major order, one entry per
    (row, col).  An entry may be a stored zero: the matrix's nonzero entries
    are those with vals != 0, and only those are read as its pattern.
    `pattern` holds the index work on (n, rows, cols): a fresh `Pattern` of
    the matrix's own, or the one shared by the matrices that
    `Pattern.matrix` makes."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    pattern: Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pattern", Pattern(self.n, self.rows, self.cols))

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> "SectorMatrix":
        """Sum the duplicate (row, col) entries in storage order, as a sparse
        `toarray` sums them, drop zero sums and sort row-major.  A sum beyond
        the float range is kept as inf or NaN."""
        keys, inverse = np.unique(np.asarray(rows, dtype=np.int64) * n + cols,
                                  return_inverse=True)
        summed = sum_at(inverse, np.asarray(vals), len(keys)).astype(np.complex128, copy=False)
        keep = summed != 0
        rows, cols = np.divmod(keys[keep], n)
        return cls(n, rows, cols, summed[keep])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def toarray(self) -> np.ndarray:
        A = np.zeros(self.shape, dtype=np.complex128)
        A[self.rows, self.cols] = self.vals
        return A

    def deviation(self, partners: tuple[np.ndarray, np.ndarray], conj: bool = False) -> float:
        """max over all (r, c) of |M(r, c) - M(f(r, c))|, M(f(r, c)) conjugated
        with `conj`, for the permutation f of the index pairs whose
        `Pattern.partners` are given; an entry that is not stored counts as
        0, on either side."""
        at, missed = partners
        partner = np.append(self.vals, 0)[at]
        dev = np.abs(self.vals - (partner.conj() if conj else partner)).max(initial=0.0)
        return float(max(dev, np.abs(self.vals[missed]).max(initial=0.0)))


def sum_at(inverse: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """`vals` summed into `size` slots at the positions `inverse`, each slot
    from 0 in storage order (`np.add.at`); a sum beyond the float range is
    kept as inf or NaN."""
    summed = np.zeros(size, dtype=vals.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(summed, inverse, vals)
    return summed


def placement(d: int, n_sites: int, h_keys: np.ndarray, bonds, local) -> tuple:
    """The `Pattern` (n, rows, cols, at) of a bond operator h, whose nonzero
    entries have the row-major keys `h_keys` (int64) in its (d^2, d^2)
    matrix, on every bond of `bonds()`, called only when h has an entry.
    Row p of `local(i, j)` lists the states with digits p at the sites of
    bond (i, j), the other digits alike down each column; h's entry (p, q)
    goes to every (row, col) pair of rows p and q.  `at` (bond, entry of h,
    state) locates each in the pattern, their `union`."""
    n, dd = d ** n_sites, d * d
    h_rows, h_cols = np.divmod(h_keys, dd)
    listed = bonds() if len(h_keys) else []         # an h of zeros places nothing
    keys = np.empty((len(listed), len(h_keys), n // dd), dtype=np.int64)
    for k, (i, j) in enumerate(listed):
        states = local(i, j)
        keys[k] = states[h_rows] * n + states[h_cols]
    return n, *union(n, keys)


def union(n: int, keys: np.ndarray) -> tuple:
    """The entries (rows, cols) of a `Pattern` on the row-major keys `keys`
    (int64) of an n x n matrix, one per distinct key, sorted, and the entry
    of each key, shaped like `keys`; int32 and read-only."""
    entries, at = np.unique(keys, return_inverse=True)
    out = tuple(x.astype(np.int32) for x in (*np.divmod(entries, n), at.reshape(keys.shape)))
    for x in out:
        x.flags.writeable = False
    return out


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Label each of the n indices by the smallest index of its connected
    component in the undirected graph with edges (rows[k], cols[k]).

    Min-label propagation over the edges, each round followed by one pointer
    jump (labels only ever point to a smaller index of the same component).
    """
    lab = np.arange(n)
    while True:
        new = lab.copy()
        np.minimum.at(new, rows, lab[cols])
        np.minimum.at(new, cols, lab[rows])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _blocks(lab: np.ndarray, cplx: np.ndarray) -> list[tuple[np.ndarray, bool]]:
    """Index sets of the components labelled by `lab`, grouped by size and by
    `cplx` (indexed by label): one ((k, s) array, complex) pair per group, one
    ascending row per component, groups by size and real before complex."""
    order = np.argsort(lab, kind="stable")
    _, starts, sizes = np.unique(lab[order], return_index=True, return_counts=True)
    key = 2 * sizes + cplx[order[starts]]
    # the distinct keys, ascending; np.unique here would import numpy.ma (~20 ms)
    return [(order[starts[key == k][:, None] + np.arange(k // 2)], bool(k % 2))
            for k in np.flatnonzero(np.bincount(key))]


def _gated(H):
    """H as a `SectorMatrix` at the solver's scale, H * 2**-k, with k and
    the scale max|H|, after the checks of `eigensolve`.  A `SectorMatrix`
    keeps its entries and its `pattern`; any other H is read as a dense
    array, after its shape and the cap are checked, as its nonzero entries
    in row-major order (a -0.0 is a zero like any other).
    """
    if not isinstance(H, SectorMatrix):
        H = np.asarray(H)
    if len(H.shape) != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    check_cap(n)
    if not isinstance(H, SectorMatrix):
        at = np.flatnonzero(H != 0)
        H = SectorMatrix(n, *np.divmod(at, n), np.take(H, at).astype(np.complex128, copy=False))
    vals = H.vals
    if not np.isfinite(vals).all():
        raise ValueError("matrix entries must be finite")
    if not vals.imag.any():
        vals = np.ascontiguousarray(vals.real)
    scale = np.abs(vals).max(initial=0.0)
    # k even, so that LAPACK's square roots of entries round as they do on H
    k = 2 * ((math.frexp(scale)[1] - 1) // 2)
    # + 0.0: a -0.0, from a negative part that underflows at this scale,
    # would flip LAPACK's reflector signs and with them an eigenvector's phase
    vals = (np.ldexp(vals.real, -k) + 1j * np.ldexp(vals.imag, -k)
            if np.iscomplexobj(vals) else np.ldexp(vals, -k)) + 0.0
    M = H.pattern.matrix(vals)
    dev = M.deviation(M.pattern.mirror, conj=True)
    if dev > HERMITICITY_TOL * math.ldexp(scale, -k):
        raise NotHermitian(f"max |H - H^dag| = {math.ldexp(dev, k):.3e} > "
                           f"{HERMITICITY_TOL:.0e} * max |H| = {scale:.3e}")
    return M, k, scale


def _sq_sum(x: np.ndarray, subscripts: str) -> np.ndarray:
    """`np.einsum(subscripts, x, x)` with |x|^2 in place of x^2."""
    out = np.einsum(subscripts, x.real, x.real)
    return out + np.einsum(subscripts, x.imag, x.imag) if np.iscomplexobj(x) else out


def _certificate(w: np.ndarray, trace, fro2) -> float:
    """The eigenvalues `w` (last axis) against the trace and the squared
    Frobenius norm of their matrix: the largest of c1 = |sum w - trace| and
    c2 = |sum w^2 - fro2| / (2 sqrt(fro2)), c2 = 0 for a zero matrix.  Both
    are invariant under any unitary similarity, and one eigenvalue moved by
    d gives c1 = d.  The matrix is at the scale of `eigensolve` (max|H| in
    [1, 4)), where the squares can neither overflow nor underflow."""
    c1 = np.abs(w.sum(axis=-1) - trace)
    fro = np.sqrt(fro2)
    c2 = np.divide(np.abs((w * w).sum(axis=-1) - fro2), 2 * fro,
                   out=np.zeros_like(fro), where=fro > 0)
    return float(np.maximum(c1, c2).max(initial=0.0))


def _block_layout(pattern: Pattern, nonzero: np.ndarray, imag) -> list:
    """The pattern step of `_block_eigh`: the blocks of the matrices on
    `pattern` whose nonzero entries are `nonzero` and whose entries with an
    imaginary part are `imag` (None for real values).

    The blocks are the connected components of the nonzero entries, those
    of each size grouped into one (k, s, s) stack, real or complex apart.
    One (index sets, complex, entries, positions) item per stack: its
    (k, s) index sets, whether any of its entries has an imaginary part,
    and the position of each of its entries in the pattern and in the
    flattened stack."""
    entries = np.flatnonzero(nonzero)
    rows, cols = pattern.rows[entries], pattern.cols[entries]
    n = pattern.n
    lab = _components(rows, cols, n)
    cplx = np.zeros(n, dtype=bool)
    if imag is not None:
        cplx[lab[pattern.rows[imag]]] = True
    blocks = _blocks(lab, cplx)
    group, block, within = (np.empty(n, dtype=np.intp) for _ in range(3))
    for g, (idx, _) in enumerate(blocks):
        group[idx] = g
        block[idx] = np.arange(len(idx))[:, None]
        within[idx] = np.arange(idx.shape[1])
    by_group = np.argsort(group[rows], kind="stable")
    ends = np.cumsum(np.bincount(group[rows], minlength=len(blocks)))
    layout = []
    for (idx, is_complex), e in zip(blocks, np.split(by_group, ends[:-1])):
        r, c, s = rows[e], cols[e], idx.shape[1]
        layout.append((idx, is_complex, entries[e].astype(np.int32),
                       ((block[r] * s + within[r]) * s + within[c]).astype(np.int32)))
    return layout


def _block_eigh(M: SectorMatrix, compute_vectors: bool):
    """Solve the Hermitian M block by block, on the stacks of
    `M.pattern.layout`: each stack is scattered from M's values and solved
    in real arithmetic when its own entries are real.
    Returns the (index sets, eigenvalues, eigenvectors) of each group and a
    bound.  With vectors, each stack goes through one batched `eigh` and the
    bound is the largest residual ||B v - lambda v||; without, through
    `eigvalsh`, the eigenvectors are None and the bound is the largest
    `_certificate` of a block.  Values and bound are at the caller's scale;
    no block is scaled again."""
    vals = M.vals
    groups = []
    bound = 0.0
    for idx, is_complex, entries, at in M.pattern.layout(vals):
        B = np.zeros(idx.shape + idx.shape[1:], dtype=vals.dtype if is_complex else float)
        B.reshape(-1)[at] = vals[entries] if is_complex else vals[entries].real
        if compute_vectors:
            w, V = np.linalg.eigh(B)
            residual = np.linalg.norm(B @ V - V * w[:, None, :], axis=1)
            bound = max(bound, float(residual.max()))
        else:
            w, V = np.linalg.eigvalsh(B), None
            bound = max(bound, _certificate(w, np.trace(B, axis1=1, axis2=2).real,
                                            _sq_sum(B, "kij,kij->k")))
        groups.append((idx, w, V))
    return groups, bound


def eigensolve(H, compute_vectors: bool = True, reduce=None) -> Spectrum:
    """Hermitian eigensolve, with eigenvectors and verified residuals or with
    eigenvalues alone and a moment certificate.

    H (a `SectorMatrix` or a dense array) is read once as its entries,
    (row, col, value) triplets.  The index work on them is kept on H's
    `Pattern` (a `chain.ChainPlan` for `chain.chain_matrix`), and every
    check reads this call's values.

    Everything runs at one scale: the triplets are multiplied once by 2**-k,
    the even k that puts max|H| * 2**-k in [1, 4), with `np.ldexp` on real
    and imaginary parts apart, which is exact.  The Hermiticity gate, LAPACK,
    both bounds, the cap and `reduce` see that matrix, and the eigenvalues,
    the bound and the numbers of an error message are scaled back by 2**k
    once, at the end.  Squares of entries then cannot overflow, nor those
    near max|H| underflow, and eigensolve(H * 2**j) is eigensolve(H) scaled
    by 2**j, bit for bit, for every even j with H * 2**j exact (an odd j
    hands LAPACK the same matrix doubled or halved); the gate's verdict is
    the same for every j.  The Hermiticity deviation pairs each (r, c) with
    its mirror (c, r), a missing mirror counting as 0.

    Every H is solved through a reduction (K, mult): a Hermitian
    `SectorMatrix` K and an integer multiplicity for each of its indices,
    equal within each block of K and summing to the dimension of H, with H
    unitarily equivalent to the direct sum of K's blocks, each repeated by
    its multiplicity.  `reduce(M)` returns it for the checked H * 2**-k (as
    a `SectorMatrix`, with float64 values when H is real); without
    `reduce`, K is H itself with multiplicity 1 everywhere.  The blocks of
    K are solved and each block's eigenvalues repeated by its multiplicity,
    while the gates, the certificate on H against all of its eigenvalues
    and the cap below still read H, so a reduction that changes tr H or
    ||H||_F fails the certificate.  Eigenvectors are available only
    without `reduce`.

    K is split into the connected components of its nonzero entries
    (symmetry sectors show up here without being named; stored zeros join
    nothing); the components of each size are scattered into one (k, s, s)
    stack, real and complex ones apart, and solved at once, in real
    arithmetic when the stack's entries have an imaginary part of exactly
    zero.  No n x n array is formed unless eigenvectors are asked for.
    Eigenvalues are merged with a stable sort; eigenvectors are returned in
    the original basis order.

    With `compute_vectors`, each stack goes through a batched `eigh`, and
    `residual_bound` is the largest ||H v - lambda v|| over all eigenpairs,
    which equals the per-block value because H is zero between blocks.
    Without, each stack goes through `eigvalsh` and `residual_bound` is a
    moment certificate: the largest of c1 = |sum lambda - tr B| and
    c2 = |sum lambda^2 - ||B||_F^2| / (2 ||B||_F) (c2 = 0 for a zero B), over
    every block B and over H itself against all n eigenvalues, tr H and
    ||H||_F^2 summed over the nonzero entries.  Both moments are invariant
    under unitary similarity, and one eigenvalue moved by d gives c1 = d.

    Raises ValueError for a non-square H or an inf or NaN entry,
    DimensionTooLarge beyond `check_cap` (checked first), NotHermitian when
    max|H - H^dag| > 1e-10 * max|H| entry-wise, and RuntimeError when
    the multiplicities break the contract above, or the residual or the
    certificate exceeds 1e-8 * max|H| * dim.  Raises AmplitudeOverflow when an
    eigenvalue, scaled back, is beyond the float range.
    """
    M, k, scale = _gated(H)
    n = M.n
    if reduce is not None and compute_vectors:
        raise ValueError("eigenvectors are not available for a reduced matrix")
    K, mult = reduce(M) if reduce is not None else (M, np.ones(n, dtype=np.int64))
    groups, bound = _block_eigh(K, compute_vectors)
    repeats = [mult[idx] for idx, _, _ in groups]
    flat = np.repeat(np.concatenate([np.zeros(0)] + [w.ravel() for _, w, _ in groups]),
                     np.concatenate([np.zeros(0, dtype=np.int64)] + [m.ravel() for m in repeats]))
    if len(flat) != n or any((m != m[:, :1]).any() for m in repeats):
        raise RuntimeError("the block multiplicities of the reduction do not sum to "
                           f"{n} or vary within a block")
    order = np.argsort(flat, kind="stable")
    eigenvalues = flat[order]
    what = "eigendecomposition residual"
    if not compute_vectors:
        what = "eigenvalue moment certificate"
        # over the nonzero entries alone, so that stored zeros leave the sums' bits alone
        vals, diag = M.vals[M.vals != 0], M.vals[M.rows == M.cols]
        bound = max(bound, _certificate(eigenvalues, diag[diag != 0].real.sum(),
                                        _sq_sum(vals, "i,i")))
    cap = RESIDUAL_FACTOR * math.ldexp(scale, -k) * n
    if bound > cap:
        raise RuntimeError(f"{what} {math.ldexp(bound, k):.3e} exceeds "
                           f"{math.ldexp(cap, k):.3e}")
    with np.errstate(over="ignore"):
        eigenvalues = np.ldexp(eigenvalues, k)
    if np.isinf(eigenvalues).any():
        raise AmplitudeOverflow("an eigenvalue is beyond the float range")
    evecs = None
    if compute_vectors:
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        evecs = np.zeros((n, n), dtype=M.vals.dtype)
        start = 0
        for idx, _, V in groups:
            pos = rank[start:start + idx.size].reshape(idx.shape)
            evecs[idx[:, :, None], pos[:, None, :]] = V
            start += idx.size
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=evecs,
                    residual_bound=math.ldexp(bound, k))


def partition_function(spec: Spectrum, T: float) -> ThermoPoint:
    """Z, F, S, <E> at a positive, finite temperature T: `thermo_sweep` at T."""
    return thermo_sweep(spec, [T])[0]


def thermo_sweep(spec: Spectrum, T_grid: Sequence[float]) -> list[ThermoPoint]:
    """Z, F, S, <E> (k_B = 1) at each T of an ascending grid of positive, finite
    temperatures, from dE = E - E0 by one formula at every T: w = e^(-dE/T),
    W = sum w, F = E0 - T log W, S = log W + sum (w/W) (dE/T),
    <E> = E0 + sum (w/W) dE and Z = e^(-E0/T + log W).  Levels at E0 weigh 1,
    and a dE/T past the float range weighs 0, so <E> - E0 <= max dE stays
    finite; S reads dE/T, which keeps its digits where dE and T are both
    subnormal.  A level whose dE itself is past the float range (E0 < 0 < E)
    has -dE/T formed as E0/T - E/T, and <E> is then
    E0 (1 - P) + sum' (w/W) dE + sum'' (w/W) E, with '' over those levels,
    ' over the others and P their total weight, so no w * inf is formed.
    The weights of up to SWEEP_CHUNK // dim temperatures are formed at
    once."""
    grid = [float(t) for t in T_grid]
    if any(not t > 0 for t in grid):
        raise ValueError("all temperatures must be positive")
    if any(math.isinf(t) for t in grid):
        raise ValueError("all temperatures must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("temperature grid must be ascending")
    if not grid:
        return []
    if len(spec) == 0:
        raise ValueError("empty spectrum")
    e0 = float(spec.eigenvalues[0])
    points = []
    step = max(1, SWEEP_CHUNK // len(spec))
    with np.errstate(over="ignore"):                  # dE and dE/T past the float range
        dE = spec.eigenvalues - e0
        wide = np.flatnonzero(np.isinf(dE))
        E_wide = spec.eigenvalues[wide]
        dE[wide] = 0.0                                # their terms are formed from E
        for lo in range(0, len(grid), step):
            temps = grid[lo:lo + step]
            T_col = np.array(temps)[:, None]
            # -dE/T and the weights in one block: as two blocks, freed together, they
            # went back to the OS after each call and were faulted in again on the next
            r, w = np.empty((2, len(temps), len(dE)))
            np.divide(dE, -T_col, out=r)
            r[:, wide] = e0 / T_col - E_wide / T_col
            np.exp(r, out=w)
            Ws = w.sum(axis=1)
            w *= (1 / Ws)[:, None]
            np.copyto(r, 0.0, where=w == 0)           # no 0 * inf
            r_means = np.einsum("ij,ij->i", w, r)
            p_wide = w[:, wide]
            means = np.multiply(w, dE, out=w).sum(axis=1)
            means = (e0 * (1 - p_wide.sum(axis=1)) + means) + p_wide @ E_wide
            for T, W, r_mean, mean in zip(temps, Ws.tolist(), r_means.tolist(), means.tolist()):
                log_w = math.log(W)
                try:
                    Z = math.exp(-e0 / T + log_w)
                except OverflowError:
                    Z = math.inf
                points.append(ThermoPoint(T, Z, e0 - T * log_w, log_w - r_mean, mean))
    return points


def _f17(x: float) -> str:
    """17 significant digits; inf and NaN as json.dumps writes them."""
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if math.isnan(x):
        return "NaN"
    return f"{x:.16e}"


def to_json(x) -> str:
    """Deterministic JSON text: floats through `_f17`, dicts, lists and tuples
    joined with ", " and ": ", everything else as `json.dumps` writes it."""
    if isinstance(x, float):
        return _f17(x)
    if isinstance(x, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in x) + "]"
    return json.dumps(x)


def _f12(x: float) -> str:
    return f"{x:.11e}"


def spectrum_to_json(spec: Spectrum) -> str:
    """{"eigenvalues": [...], "residual_bound": f} with 17 significant digits."""
    return to_json({"eigenvalues": spec.eigenvalues.tolist(),
                    "residual_bound": float(spec.residual_bound)}) + "\n"


def thermo_to_csv(points: Iterable[ThermoPoint]) -> str:
    """CSV with header T,Z,F,S,E_mean and 12 significant digits per field."""
    lines = ["T,Z,F,S,E_mean"]
    for p in points:
        lines.append(",".join(_f12(x) for x in
                              (p.temperature, p.Z, p.free_energy, p.entropy, p.mean_energy)))
    return "\n".join(lines) + "\n"


def husimi_q(state: PolynomialState, points: Sequence[Sequence[complex]],
             variables: Sequence[Var] | None = None) -> list[float]:
    """Husimi-Q density Q(z) = pi^-d e^(-|z|^2) |psi(z)|^2 at each point.

    `variables` fixes the phase-space coordinates (ordered); it defaults to
    the state's active variables and must cover them, each named once (a
    ValueError otherwise).  Each point supplies one finite complex coordinate
    per variable (a ValueError otherwise).  The state must be normalized to
    1e-10; psi is evaluated with the monomial normalizations restored.

    Q is formed in logs, by one formula at every point: each monomial c z^e
    of psi is a log-modulus L = log|c| - log(prod e!)/2 + sum e log|z| and a
    phase arg c + sum e arg z, log|psi| = top + log|sum e^(L - top + i phase)|
    with top = max L, and Q = e^(-d log pi - |z|^2 + 2 log|psi|).  No factor
    can overflow, and |psi(z)|^2 <= e^(|z|^2) keeps Q <= pi^-d, so every
    finite point has a finite Q; it is 0 where Q underflows or every monomial
    vanishes.  Up to SWEEP_CHUNK (point, monomial) terms are formed at once.
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
    rows = [[complex(c) for c in pt] for pt in points]
    for zs in rows:
        if len(zs) != d:
            raise ValueError(f"point has {len(zs)} coordinates, expected {d}")
    z = np.array(rows, dtype=complex).reshape(len(rows), d)
    if not np.isfinite(z).all():
        raise ValueError("point coordinates must be finite")

    amps = list(state.items())
    exps = np.array([[m.get(v) for v in variables] for m, _ in amps], dtype=float)
    # log|c| of each monomial with its normalization restored, from the exact prod n!
    lam = np.array([math.log(abs(c)) - 0.5 * math.log(monomial_norm_sq(m)) for m, c in amps])
    phase = np.angle([c for _, c in amps])
    q = np.empty(len(z))
    step = max(1, SWEEP_CHUNK // len(amps))
    # log 0, the masked 0 * log 0, and |z|^2 past the float range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log|z| without forming |z|, which overflows near (1e308, 1e308)
        log_abs = np.logaddexp(2 * np.log(np.abs(z.real)), 2 * np.log(np.abs(z.imag))) / 2
        arg, r2 = np.angle(z), (np.abs(z) ** 2).sum(axis=1)
        for lo in range(0, len(z), step):
            la, ph = log_abs[lo:lo + step], arg[lo:lo + step]
            L, phi = np.tile(lam, (len(la), 1)), np.tile(phase, (len(la), 1))
            for v, e in enumerate(exps.T):
                L += np.where(e > 0, la[:, v, None] * e, 0.0)
                phi += ph[:, v, None] * e
            top = L.max(axis=1)
            top[top == -np.inf] = 0.0                 # every monomial vanishes: psi = 0
            log_psi = top + np.log(np.abs(np.exp((L - top[:, None]) + 1j * phi).sum(axis=1)))
            q[lo:lo + step] = np.exp(-d * math.log(math.pi) - r2[lo:lo + step] + 2 * log_psi)
    return q.tolist()
