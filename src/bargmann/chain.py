"""Spin sectors of multi-site Bargmann space and XYZ chain Hamiltonians.

The spin-s sector fixes the boson number alpha_i + beta_i = 2s at every site,
giving a (2s+1)**n_sites dimensional space isomorphic to the spin chain.
A state is indexed by its z-exponents (a_0, ..., a_{N-1}) as the mixed-radix
number sum_i a_i (2s+1)**(N-1-i), site 0 slowest.

A chain is one two-site bond operator placed on every bond.  The bond is built
either compositionally from per-site generators (the reference construction)
or from a verbatim hand-expanded form kept for diagnostic comparison
("paper_literal" mode, whose z-coupling line merges two cross terms).  `solve`
does not build the whole-chain polynomial: it places the sector matrices of
the bond, cached per (2s, hbar, mode), on every bond.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    MultiIndex,
    OperatorPolynomial,
    PolynomialState,
    Var,
    apply,
    compose,
    w_var,
    z_var,
)
from .angular import j_operator
from .errors import AmplitudeOverflow, SectorViolation
from .thermo import SectorMatrix, Spectrum, check_cap, eigensolve

OPEN = "open"
PERIODIC = "periodic"
COMPOSITIONAL = "compositional"
PAPER_LITERAL = "paper_literal"
INVARIANCE_TOL = 1e-12


def exact_number(value, name: str) -> Fraction:
    """`Fraction(value)`, with an infinite value or a zero denominator as a
    ValueError that names the field."""
    try:
        return Fraction(value)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


@dataclass(frozen=True)
class ChainSpec:
    n_sites: int
    spin: Fraction
    couplings: tuple[float, float, float]
    boundary: str = OPEN
    hbar: Fraction = Fraction(1)
    mode: str = COMPOSITIONAL

    def __post_init__(self):
        for name, v in [("spin", self.spin), *zip(("jx", "jy", "jz"), self.couplings),
                        ("hbar", self.hbar)]:
            if isinstance(v, bool):
                raise ValueError(f"{name} must be a number, got {v!r}")
        object.__setattr__(self, "spin", exact_number(self.spin, "spin"))
        couplings = []
        for name, j in zip(("jx", "jy", "jz"), self.couplings):
            try:
                couplings.append(float(j))
            except OverflowError:     # an int or Fraction too large for a float
                raise ValueError(f"{name} must be a finite number, got one beyond "
                                 f"the float range") from None
        object.__setattr__(self, "couplings", tuple(couplings))
        object.__setattr__(self, "hbar", exact_number(self.hbar, "hbar"))
        n = self.n_sites
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral)
                                       or isinstance(n, float) and n.is_integer()):
            raise ValueError(f"n_sites must be an integer, got {n!r}")
        object.__setattr__(self, "n_sites", int(n))
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        twos = 2 * self.spin
        if twos.denominator != 1 or twos < 0:
            raise ValueError(f"spin {self.spin} is not a non-negative half-integer")
        if self.boundary not in (OPEN, PERIODIC):
            raise ValueError(f"boundary must be {OPEN!r} or {PERIODIC!r}")
        if self.boundary == PERIODIC and self.n_sites < 2:
            raise ValueError("periodic boundary needs n_sites >= 2")
        if self.mode not in (COMPOSITIONAL, PAPER_LITERAL):
            raise ValueError(f"mode must be {COMPOSITIONAL!r} or {PAPER_LITERAL!r}")
        if not all(np.isfinite(self.couplings)):
            raise ValueError("couplings must be finite")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    def bonds(self) -> list[tuple[int, int]]:
        out = [(i, i + 1) for i in range(self.n_sites - 1)]
        if self.boundary == PERIODIC:
            out.append((self.n_sites - 1, 0))
        return out

    def dimension(self) -> int:
        return int(2 * self.spin + 1) ** self.n_sites

    @classmethod
    def from_json(cls, obj: dict) -> "ChainSpec":
        n_sites = obj["n_sites"]
        return cls(
            n_sites=int(n_sites) if isinstance(n_sites, str) else n_sites,
            spin=obj["spin"],
            couplings=(obj["jx"], obj["jy"], obj["jz"]),
            boundary=obj.get("boundary", OPEN),
            hbar=obj.get("hbar", 1),
            mode=obj.get("mode", COMPOSITIONAL),
        )

    @classmethod
    def from_file(cls, path) -> "ChainSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def check_dimension(spec: ChainSpec):
    """`check_cap` on the sector dimension (2s+1)**n_sites, without forming it."""
    check_cap(int(2 * spec.spin) + 1, spec.n_sites)


def _relabel(m: MultiIndex, site: dict) -> MultiIndex:
    """`m` with each variable moved to site[its site]."""
    return MultiIndex._from_dict({Var(site[v.site], v.flavor): e for v, e in m.items()})


def _bond(couplings, hbar: Fraction, mode: str) -> OperatorPolynomial:
    """The bond operator on sites 0 and 1.  Compositional: the sum over axes a
    with J_a != 0 of J_a J_a(0) J_a(1), composed from the per-site generators.
    Paper-literal: a verbatim transcription of the hand-expanded XYZ form,
    whose x and y lines agree with the composed product; its z line carries
    the merged cross term -2 w_0 z_1 dw_0 dz_1 in place of the two distinct
    cross terms, which is what the verify diff reports."""
    if mode == COMPOSITIONAL:
        return OperatorPolynomial.sum(
            compose(j_operator(0, axis, hbar), j_operator(1, axis, hbar)).scaled(Fraction(J))
            for J, axis in zip(couplings, ("x", "y", "z"))
            if J != 0.0)
    h2 = hbar * hbar
    jx, jy, jz = (Fraction(J) for J in couplings)
    z0, w0, z1, w1 = z_var(0), w_var(0), z_var(1), w_var(1)
    cx = h2 * jx / 4
    cy = -h2 * jy / 4
    cz = h2 * jz / 4
    return OperatorPolynomial.from_terms([
        (cx, {z0: 1, z1: 1}, {w0: 1, w1: 1}),
        (cx, {w0: 1, z1: 1}, {z0: 1, w1: 1}),
        (cx, {z0: 1, w1: 1}, {w0: 1, z1: 1}),
        (cx, {w0: 1, w1: 1}, {z0: 1, z1: 1}),
        (cy, {z0: 1, z1: 1}, {w0: 1, w1: 1}),
        (-cy, {w0: 1, z1: 1}, {z0: 1, w1: 1}),
        (-cy, {z0: 1, w1: 1}, {w0: 1, z1: 1}),
        (cy, {w0: 1, w1: 1}, {z0: 1, z1: 1}),
        (cz, {z0: 1, z1: 1}, {z0: 1, z1: 1}),
        (-2 * cz, {w0: 1, z1: 1}, {w0: 1, z1: 1}),
        (cz, {w0: 1, w1: 1}, {w0: 1, w1: 1}),
    ])


def _on_bonds(bond: OperatorPolynomial, spec: ChainSpec) -> OperatorPolynomial:
    """The sum over the chain's bonds (i, j) of `bond` with sites 0 and 1
    relabelled to i and j."""
    return OperatorPolynomial(
        ((_relabel(mult, to), _relabel(deriv, to)), c)
        for to in ({0: i, 1: j} for (i, j) in spec.bonds())
        for (mult, deriv), c in bond.items())


def build_hamiltonian(spec: ChainSpec) -> OperatorPolynomial:
    """The chain's H: its bond operator (`_bond`) on every bond."""
    return _on_bonds(_bond(spec.couplings, spec.hbar, spec.mode), spec)


def mode_difference(spec: ChainSpec) -> OperatorPolynomial:
    """literal-mode minus compositional-mode Hamiltonian, canonical form."""
    return _on_bonds(_bond(spec.couplings, spec.hbar, PAPER_LITERAL)
                     - _bond(spec.couplings, spec.hbar, COMPOSITIONAL), spec)


def _check_sector_preserving(H: OperatorPolynomial):
    for t in H.terms():
        net: dict[int, int] = {}
        for v, e in t.mult.items():
            net[v.site] = net.get(v.site, 0) + e
        for v, e in t.deriv.items():
            net[v.site] = net.get(v.site, 0) - e
        bad = {s: d for s, d in net.items() if d != 0}
        if bad:
            raise SectorViolation(
                f"term does not conserve per-site boson number at sites {sorted(bad)}")


def _invariance_deviation(M: SectorMatrix, g: np.ndarray) -> float:
    """max over all (r, c) of |M(g r, g c) - M(r, c)| for the index permutation
    g, from one search of M's permuted row-major keys among its own."""
    if not M.nnz:
        return 0.0
    keys = M.rows * M.n + M.cols
    moved = g[M.rows] * M.n + g[M.cols]
    at = np.minimum(np.searchsorted(keys, moved), M.nnz - 1)
    hit = keys[at] == moved
    dev = np.abs(M.vals - np.where(hit, M.vals[at], 0)).max()
    if not hit.all():     # entries (g r, g c) of M whose (r, c) is not stored
        missed = np.ones(M.nnz, dtype=bool)
        missed[at[hit]] = False
        dev = max(dev, np.abs(M.vals[missed]).max())
    return float(dev)


def symmetry_blocks(M: SectorMatrix, generators, parity=None) -> tuple[SectorMatrix, np.ndarray]:
    """M in symmetry-adapted states of commuting index permutations, one
    block per kept character, and the multiplicity of each kept index.

    `generators` are (g, o) pairs: g an index map g[r] that leaves M invariant,
    o its order.  They generate the abelian group of elements
    e = g_1^l_1 ... g_k^l_k, whose characters are
    chi_m(e) = exp(2 pi i sum_j m_j l_j / o_j), exact at quarter turns.  The
    representative a of an orbit is its smallest index, S_a its stabilizer,
    and r = e_r^-1 a for one element e_r per index r.  For each character that
    is 1 on S_a the normalized state |a(m)> ~ sum_e chi_m(e) e|a> gives

        K[a(m), b(m)] = sum over r of M[r, b] chi_m(e_r) sqrt(|S_a| / |S_b|),

    summed over the entries of the representative columns b, r running over
    the orbit of a.  K is indexed by character (l order: the first generator's
    exponent slowest), then by representative, ascending; each block has the
    size (1/|G|) sum_e chi_m(e) fix(e).  K is summed first and then averaged
    with its mirror, K <- (K + K^dag)/2, so it is Hermitian by construction.

    Of two blocks with the same spectrum one is kept, its multiplicity
    doubled, under each of two rules:
    - for a real M, the block of chi_m and of its conjugate, which are
      complex conjugates of each other (k and -k for a translation);
    - with `parity` (0 or 1 per index), when M conserves it on its nonzero
      pattern, one generator of order 2 flips it at every index and the
      others keep it: U = (-1)^parity then commutes with M and maps that
      generator's odd block onto its even block, which is kept.
    The multiplicities sum to M.n.
    """
    n = M.n
    orders = [o for _, o in generators]
    images = np.arange(n)[None]          # images[e, r] = e(r), element e in l order
    for g, o in generators:
        powers = [images]
        for _ in range(1, o):
            powers.append(g[powers[-1]])
        images = np.stack(powers, axis=1).reshape(-1, n)
    size = len(images)
    exps = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
    exps = exps.reshape(size, len(orders))
    turns = math.lcm(*orders)
    t = (exps * (turns // np.array(orders, dtype=np.int64))) @ exps.T % turns
    root = np.exp(2j * np.pi * np.arange(turns) / turns)     # chi_m(e) = root[t[m, e]]
    quarter = np.arange(turns) * 4 % turns == 0
    root[quarter] = np.array([1, 1j, -1, -1j])[np.arange(turns)[quarter] * 4 // turns]
    rep = images.min(axis=0)
    to_rep = images.argmin(axis=0)        # e_r, with e_r(r) = rep[r]
    stab = (images == np.arange(n)).sum(axis=0)
    reps = np.flatnonzero(rep == np.arange(n))
    # chi_m has a state on the orbit of a iff it is 1 on S_a: its sum over S_a is |S_a|, else 0
    compat = np.abs(root[t] @ (images[:, reps] == reps) - stab[reps]) < 0.5

    mult = np.ones(size, dtype=np.int64)
    if not M.vals.imag.any():
        stride = [math.prod(orders[j + 1:]) for j in range(len(orders))]
        conj = (-exps % np.array(orders, dtype=np.int64)) @ np.array(stride, dtype=np.int64)
        mult = np.where(conj < np.arange(size), 0, np.where(conj > np.arange(size), 2, 1))
    if parity is not None and np.array_equal(parity[M.rows], parity[M.cols]):
        flips = [(parity[g] != parity).all() for g, _ in generators]
        keeps = [(parity[g] == parity).all() for g, _ in generators]
        j = flips.index(True) if sum(flips) == 1 else None
        if j is not None and orders[j] == 2 and all(f or k for f, k in zip(flips, keeps)):
            mult = np.where(exps[:, j] == 0, 2 * mult, 0)

    chars = np.flatnonzero(mult)
    which, kept = np.nonzero(compat[chars])
    pos = np.full((len(chars), n), -1, dtype=np.int64)   # K index of (kept character, rep)
    pos[which, reps[kept]] = np.arange(len(kept))
    hit = rep[M.cols] == M.cols
    b, r = M.cols[hit], M.rows[hit]
    a = rep[r]
    v = M.vals[hit] * np.sqrt(stab[a] / stab[b])
    krow, kcol = pos[:, a], pos[:, b]
    keep = (krow >= 0) & (kcol >= 0)
    phase = root[t[chars][:, to_rep[r]]]
    K = SectorMatrix.from_triplets(len(kept), krow[keep], kcol[keep], (v * phase)[keep])
    K = SectorMatrix.from_triplets(K.n, np.concatenate([K.rows, K.cols]),
                                   np.concatenate([K.cols, K.rows]),
                                   np.concatenate([K.vals, K.vals.conj()]) / 2)
    return K, mult[chars][which]


def symmetry_reduction(spec: ChainSpec):
    """The `reduce` argument of `eigensolve` for the chain's sector matrix M:
    `symmetry_blocks` of the index permutations that leave M invariant.

    - Translation T (periodic chains) rotates the base-d digits of the index,
      moving the content of site i to site i+1; M must be invariant under it.
    - Reflection R (open chains) reverses the digits, and the flip P
      (z <-> w at every site) maps r to dim - 1 - r.  Each is used only
      when M is invariant under it, which the compositional H always is.
    - With P, and when 2s * n_sites is odd, the parity of the digit sum is
      passed on for Kramers pairing.
    - A generator that is the identity map is dropped.
    Invariance means max|M(gr, gc) - M(r, c)| <= 1e-12 max|M|.

    Raises RuntimeError when a periodic chain's M is not translation invariant.
    """
    d, n_sites = int(2 * spec.spin) + 1, spec.n_sites

    def reduce(M: SectorMatrix):
        r = np.arange(M.n)
        digits = r[:, None] // d ** np.arange(n_sites - 1, -1, -1) % d
        scale = np.abs(M.vals).max(initial=0.0)
        tol = INVARIANCE_TOL * scale
        generators = []
        if spec.boundary == PERIODIC:
            T = r // d + r % d * d ** (n_sites - 1)
            dev = _invariance_deviation(M, T)
            if dev > tol:
                raise RuntimeError(f"sector matrix is not translation invariant: "
                                   f"max |M(Tr, Tc) - M(r, c)| = {dev:.3e} on max |M| = "
                                   f"{scale:.3e}")
            generators.append((T, n_sites))
        else:
            R = digits @ d ** np.arange(n_sites)
            if _invariance_deviation(M, R) <= tol:
                generators.append((R, 2))
        P = r[::-1]
        parity = None
        if _invariance_deviation(M, P) <= tol:
            generators.append((P, 2))
            if (d - 1) * n_sites % 2:
                parity = digits.sum(axis=1) % 2
        # an identity map (T, R and P at dimension 1, R at one site) splits nothing,
        # and would only multiply the group's size
        generators = [(g, o) for g, o in generators if (g != r).any()]
        return symmetry_blocks(M, generators, parity)

    return reduce


@functools.lru_cache(maxsize=16)
def _bond_tables(twos: int, hbar: Fraction, mode: str) -> tuple[SectorMatrix, ...]:
    """The sector matrices T_x, T_y, T_z of the bond operator (`_bond`), T_a
    with coupling 1 on axis a, indexed by a_0 d + a_1 (d = 2s+1): column
    a_0 d + a_1 holds `apply` of the bond on z_0^a_0 w_0^(2s-a_0)
    z_1^a_1 w_1^(2s-a_1), each resulting monomial m at row
    m[z_0] d + m[z_1].  A bond's H is linear in the couplings, so
    sum_a J_a T_a is the bond (0, 1) of any chain with these spin, hbar and
    mode.  Cached per process; the arrays are read-only.

    Raises SectorViolation if a bond term changes a site's boson number.
    """
    d = twos + 1
    z0, w0, z1, w1 = z_var(0), w_var(0), z_var(1), w_var(1)
    kets = [MultiIndex({z0: a0, w0: twos - a0, z1: a1, w1: twos - a1})
            for a0, a1 in itertools.product(range(d), repeat=2)]
    tables = []
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        bond = _bond(unit, hbar, mode)
        _check_sector_preserving(bond)
        rows, cols, vals = [], [], []
        for col, ket in enumerate(kets):
            for m, amp in apply(bond, PolynomialState.monomial(ket)).items():
                rows.append(m.get(z0) * d + m.get(z1))
                cols.append(col)
                vals.append(amp)
        T = SectorMatrix.from_triplets(d * d, np.array(rows, dtype=np.int64),
                                       np.array(cols, dtype=np.int64),
                                       np.array(vals, dtype=np.complex128))
        for a in (T.rows, T.cols, T.vals):
            a.flags.writeable = False
        tables.append(T)
    return tuple(tables)


def chain_matrix(spec: ChainSpec) -> SectorMatrix:
    """The chain's sector matrix: the matrix of `build_hamiltonian(spec)` up
    to rounding, without building the whole-chain polynomial.

    The bond matrix h = sum over J_a != 0 of J_a T_a (`_bond_tables`) is
    placed on every bond (i, j): its entry (a_i d + a_j, b_i d + b_j) goes to
    every (row, col) pair of states with digits a_i, a_j and b_i, b_j at
    sites i and j and equal digits elsewhere.  The contributions to an entry
    are summed in `spec.bonds()` order.

    Raises AmplitudeOverflow if an entry is beyond the float range.
    """
    d, n = int(2 * spec.spin) + 1, spec.n_sites
    dim = d ** n
    bonds = spec.bonds()
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(0, dtype=np.complex128))]
    if bonds:
        tables = _bond_tables(d - 1, spec.hbar, spec.mode)
        with np.errstate(over="ignore", invalid="ignore"):
            parts += [(T.rows, T.cols, J * T.vals)
                      for J, T in zip(spec.couplings, tables) if J != 0.0]
    h = SectorMatrix.from_triplets(d * d, *map(np.concatenate, zip(*parts)))
    rows, cols, vals = parts[0]
    if h.nnz:
        i, j = np.array(bonds).T
        place = d ** np.arange(n - 1, -1, -1)      # index weight of each site's digit
        digits = np.arange(dim)[:, None] // place % d
        # per bond, the states with digit 0 at both of its sites, ascending
        base = np.nonzero(((digits[:, i] == 0) & (digits[:, j] == 0)).T)[1]
        shape = (len(bonds), h.nnz, dim // (d * d))      # (bond, entry of h, base state)
        base = base.reshape(shape[0], 1, shape[2])

        def shift(local):      # (bond, entry) -> index offset of the local digits
            return local // d * place[i][:, None] + local % d * place[j][:, None]

        rows = (base + shift(h.rows)[:, :, None]).ravel()
        cols = (base + shift(h.cols)[:, :, None]).ravel()
        vals = np.broadcast_to(h.vals[:, None], shape).ravel()
    M = SectorMatrix.from_triplets(dim, rows, cols, vals)
    if not np.isfinite(M.vals).all():
        raise AmplitudeOverflow("a summed matrix element is beyond the float range")
    return M


def solve(spec: ChainSpec) -> Spectrum:
    """Eigenvalues of the chain: sector matrix from the cached bond tables
    (`chain_matrix`), eigensolve (no eigenvectors).  The chain is
    solved in the blocks of its symmetries (`symmetry_reduction`), each block
    of a set with equal spectra once; the checks of `eigensolve` still run on
    the sector matrix itself.

    Raises DimensionTooLarge, before anything is built, when the sector
    dimension exceeds the cap of `check_cap`.
    """
    check_dimension(spec)
    return eigensolve(chain_matrix(spec), compute_vectors=False,
                      reduce=symmetry_reduction(spec))
