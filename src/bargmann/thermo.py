"""Eigensolving, partition-function thermodynamics, and Husimi-Q densities.

Conventions: k_B = 1 (temperatures in energy units), natural logarithms.
Entropy is computed algebraically as (<E> - F)/T, exact for a finite
spectrum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import PolynomialState, Var, monomial_norm_sq
from .errors import DimensionTooLarge, NotHermitian, NotNormalized

MAX_DENSE_DIM = 8192
HERMITICITY_TOL = 1e-10
RESIDUAL_FACTOR = 1e-8


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


@dataclass(frozen=True)
class SectorMatrix:
    """An n x n matrix as its nonzero entries: `rows`, `cols` and complex128
    `vals`, in row-major order, one entry per (row, col)."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> "SectorMatrix":
        """Sum the duplicate (row, col) entries in storage order, as a sparse
        `toarray` sums them, drop zero sums and sort row-major.  A sum beyond
        the float range is kept as inf or NaN."""
        keys, inverse = np.unique(np.asarray(rows, dtype=np.int64) * n + cols,
                                  return_inverse=True)
        vals = np.asarray(vals)
        summed = np.zeros(len(keys), dtype=vals.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(summed, inverse, vals)
        summed = summed.astype(np.complex128, copy=False)
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


def _triplets(H, max_dim: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Dimension and the (rows, cols, values) of H's nonzero entries.

    Entries come in row-major order, values as complex128: a `SectorMatrix`
    passes through, a dense H gives what `np.nonzero` finds (a -0.0 is a zero
    like any other), and anything with `tocoo` becomes a `SectorMatrix` first.
    The shape and the dimension cap are checked before anything of size n^2
    is touched; any entry that is inf or NaN is rejected.
    """
    if not (isinstance(H, SectorMatrix) or hasattr(H, "tocoo")):
        H = np.asarray(H)
    if len(H.shape) != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    if n > max_dim:
        raise DimensionTooLarge(f"dimension {n} exceeds cap {max_dim}")
    if hasattr(H, "tocoo"):
        C = H.tocoo()
        H = SectorMatrix.from_triplets(n, C.row, C.col, C.data)
    if isinstance(H, SectorMatrix):
        rows, cols, vals = H.rows, H.cols, H.vals
    else:
        rows, cols = np.nonzero(H)
        vals = H[rows, cols].astype(np.complex128, copy=False)
    if not np.isfinite(vals).all():
        raise ValueError("matrix entries must be finite")
    return n, rows, cols, vals


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


def _blocks_by_size(lab: np.ndarray) -> list[np.ndarray]:
    """Index sets of the components labelled by `lab`, grouped by size: one
    (k, s) array per size s, one ascending row per component."""
    order = np.argsort(lab, kind="stable")
    _, starts, sizes = np.unique(lab[order], return_index=True, return_counts=True)
    return [order[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


def _gated(H, max_dim: int):
    """H's nonzero triplets (n, rows, cols, vals) and its scale max|H|, after
    the checks of `eigensolve`.  `vals` are float64 when the imaginary part
    of H is exactly zero, complex128 otherwise."""
    n, rows, cols, vals = _triplets(H, max_dim)
    if not vals.imag.any():
        vals = np.ascontiguousarray(vals.real)
    keys, mirror = rows * n + cols, cols * n + rows
    at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    partner = np.where(keys[at] == mirror, vals[at], 0)
    dev = np.abs(vals - partner.conj()).max(initial=0.0)
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"max |H - H^dag| = {dev:.3e} > {HERMITICITY_TOL:.0e}")
    return n, rows, cols, vals, np.abs(vals).max(initial=0.0)


def _unit(scale: float) -> float:
    """The largest power of two <= scale (1 for 0).  Dividing by it is exact
    and brings entries of magnitude <= scale into [0, 2), where their squares
    cannot overflow."""
    return math.ldexp(1.0, math.frexp(scale)[1] - 1) if scale else 1.0


def _sq_sum(x: np.ndarray, subscripts: str) -> np.ndarray:
    """`np.einsum(subscripts, x, x)` with |x|^2 in place of x^2."""
    out = np.einsum(subscripts, x.real, x.real)
    return out + np.einsum(subscripts, x.imag, x.imag) if np.iscomplexobj(x) else out


def _certificate(w: np.ndarray, trace, fro2, unit: float) -> float:
    """The eigenvalues `w` (last axis) against the trace and the squared
    Frobenius norm of their matrix, all in units of `unit`: the largest of
    c1 = |sum w - trace| and c2 = |sum w^2 - fro2| / (2 sqrt(fro2)), c2 = 0
    for a zero matrix, in absolute units.  Both are invariant under any
    unitary similarity, and one eigenvalue moved by d gives c1 = d."""
    c1 = np.abs(w.sum(axis=-1) - trace)
    fro = np.sqrt(fro2)
    c2 = np.divide(np.abs((w * w).sum(axis=-1) - fro2), 2 * fro,
                   out=np.zeros_like(fro), where=fro > 0)
    return float(np.maximum(c1, c2).max(initial=0.0)) * unit


def _block_eigh(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                compute_vectors: bool):
    """Solve the Hermitian matrix with these row-major nonzero triplets block
    by block: the connected components of its nonzero pattern, those of each
    size scattered into one (k, s, s) stack and solved in the dtype of `vals`.
    Returns the (index sets, eigenvalues, eigenvectors) of each size group and
    a bound.  With vectors, each stack goes through one batched `eigh` and the
    bound is the largest residual ||B v - lambda v||; without, through
    `eigvalsh`, the eigenvectors are None and the bound is the largest
    `_certificate` of a block."""
    blocks = _blocks_by_size(_components(rows, cols, n))
    size, block, within = (np.empty(n, dtype=np.intp) for _ in range(3))
    for idx in blocks:
        size[idx] = idx.shape[1]
        block[idx] = np.arange(len(idx))[:, None]
        within[idx] = np.arange(idx.shape[1])
    unit = None if compute_vectors else _unit(np.abs(vals).max(initial=0.0))
    groups = []
    bound = 0.0
    for idx in blocks:
        hit = size[rows] == idx.shape[1]
        r, c = rows[hit], cols[hit]
        B = np.zeros(idx.shape + idx.shape[1:], dtype=vals.dtype)
        B[block[r], within[r], within[c]] = vals[hit]
        if compute_vectors:
            w, V = np.linalg.eigh(B)
            residual = np.linalg.norm(B @ V - V * w[:, None, :], axis=1)
            bound = max(bound, float(residual.max()))
        else:
            w, V = np.linalg.eigvalsh(B), None
            B /= unit
            bound = max(bound, _certificate(w / unit, np.trace(B, axis1=1, axis2=2).real,
                                            _sq_sum(B, "kij,kij->k"), unit))
        groups.append((idx, w, V))
    return groups, bound


def eigensolve(H, compute_vectors: bool = True, max_dim: int = MAX_DENSE_DIM,
               reduce=None) -> Spectrum:
    """Hermitian eigensolve, with eigenvectors and verified residuals or with
    eigenvalues alone and a moment certificate.

    H (dense, `SectorMatrix`, or anything with `tocoo`) is read once as its
    nonzero (row, col, value) triplets, and the checks run on those: the
    Hermiticity deviation pairs each (r, c) with its mirror (c, r), a missing
    mirror counting as 0.  H is split into the connected components of its
    nonzero pattern (symmetry sectors show up here without being named); the
    components of each size are scattered into one (k, s, s) stack and
    solved at once, in real arithmetic when the imaginary part of H is
    exactly zero.  No n x n array is formed unless eigenvectors are asked
    for.  Eigenvalues are merged with a stable sort; eigenvectors are
    returned in the original basis order.

    With `compute_vectors`, each stack goes through a batched `eigh`, and
    `residual_bound` is the largest ||H v - lambda v|| over all eigenpairs,
    which equals the per-block value because H is zero between blocks.
    Without, each stack goes through `eigvalsh` and `residual_bound` is a
    moment certificate: the largest of c1 = |sum lambda - tr B| and
    c2 = |sum lambda^2 - ||B||_F^2| / (2 ||B||_F) (c2 = 0 for a zero B), over
    every block B and over H itself against all n eigenvalues.  Both moments
    are invariant under unitary similarity, and one eigenvalue moved by d
    gives c1 = d.

    `reduce(M)`, if given, maps the checked H (as a `SectorMatrix`) to a
    Hermitian `SectorMatrix` of the same dimension that is unitarily
    equivalent to it and finer in blocks; that matrix is solved in place of
    H, while the gates, the certificate on H and the cap below still read H,
    so a reduction that changes tr H or ||H||_F fails the certificate.
    Eigenvectors are then not available.

    Raises ValueError for a non-square H or an inf or NaN entry,
    DimensionTooLarge beyond `max_dim` (checked first), NotHermitian when
    max|H - H^dag| > 1e-10 entry-wise, and RuntimeError when the residual or
    the certificate exceeds 1e-8 * max|H| * dim.
    """
    n, rows, cols, vals, scale = _gated(H, max_dim)
    if not compute_vectors:
        unit = _unit(scale)
        v = vals / unit
        moments = v[rows == cols].real.sum(), _sq_sum(v, "i,i")
    if reduce is not None:
        if compute_vectors:
            raise ValueError("eigenvectors are not available for a reduced matrix")
        K = reduce(SectorMatrix(n, rows, cols, vals.astype(np.complex128, copy=False)))
        rows, cols, vals = K.rows, K.cols, K.vals
    groups, bound = _block_eigh(n, rows, cols, vals, compute_vectors)
    flat = np.concatenate([w.ravel() for _, w, _ in groups]) if n else np.zeros(0)
    order = np.argsort(flat, kind="stable")
    eigenvalues = flat[order]
    what = "eigendecomposition residual"
    if not compute_vectors:
        what = "eigenvalue moment certificate"
        bound = max(bound, _certificate(eigenvalues / unit, *moments, unit))
    cap = RESIDUAL_FACTOR * scale * n
    if bound > cap:
        raise RuntimeError(f"{what} {bound:.3e} exceeds {cap:.3e}")
    evecs = None
    if compute_vectors:
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        evecs = np.zeros((n, n), dtype=vals.dtype)
        start = 0
        for idx, _, V in groups:
            pos = rank[start:start + idx.size].reshape(idx.shape)
            evecs[idx[:, :, None], pos[:, None, :]] = V
            start += idx.size
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=evecs, residual_bound=bound)


def partition_function(spec: Spectrum, T: float) -> ThermoPoint:
    """Z, F, S, <E> at a positive, finite temperature T (k_B = 1),
    overflow-safe via the ground-energy shift Z = e^(-E0/T) * sum e^(-(En-E0)/T)."""
    if not T > 0:
        raise ValueError("temperature must be positive")
    if math.isinf(T):
        raise ValueError("temperature must be finite")
    E = spec.eigenvalues
    if len(E) == 0:
        raise ValueError("empty spectrum")
    beta = 1.0 / T
    e0 = float(E[0])
    w = np.exp(-beta * (E - e0))
    W = float(w.sum())
    log_z = -beta * e0 + math.log(W)
    try:
        Z = math.exp(log_z)
    except OverflowError:
        Z = math.inf
    F = e0 - T * math.log(W)
    mean_E = float((E * w).sum()) / W
    S = (mean_E - F) / T
    return ThermoPoint(temperature=float(T), Z=Z, free_energy=F,
                       entropy=S, mean_energy=mean_E)


def thermo_sweep(spec: Spectrum, T_grid: Sequence[float]) -> list[ThermoPoint]:
    grid = [float(t) for t in T_grid]
    if any(not t > 0 for t in grid):
        raise ValueError("all temperatures must be positive")
    if any(math.isinf(t) for t in grid):
        raise ValueError("all temperatures must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("temperature grid must be ascending")
    return [partition_function(spec, t) for t in grid]


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
    the state's active variables and must cover them.  Each point supplies
    one complex coordinate per variable.  The state must be normalized to
    1e-10; psi is evaluated with the monomial normalizations restored.
    """
    if abs(state.norm() - 1.0) > 1e-10:
        raise NotNormalized(f"state norm {state.norm()!r} is not 1 within 1e-10")
    if variables is None:
        variables = state.active_variables()
    variables = list(variables)
    missing = set(state.active_variables()) - set(variables)
    if missing:
        raise ValueError(f"variables must cover the state's modes; missing {sorted(missing)}")
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
        psi = 0j
        for exps, c in monomials:
            term = c
            for zv, e in zip(zs, exps):
                if e:
                    term *= zv ** e
            psi += term
        r2 = sum(abs(zv) ** 2 for zv in zs)
        out.append(pref * math.exp(-r2) * abs(psi) ** 2)
    return out
