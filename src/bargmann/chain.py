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
the bond, cached per (2s, hbar, mode), on every bond, and does the index work
of the sector matrix, its gates and its symmetry blocks once per chain shape.
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
from .errors import AmplitudeOverflow
from .thermo import (Pattern, SectorMatrix, Spectrum, _kept_plan, check_cap, eigensolve,
                     placement, sum_at, union)

OPEN = "open"
PERIODIC = "periodic"
COMPOSITIONAL = "compositional"
PAPER_LITERAL = "paper_literal"
INVARIANCE_TOL = 1e-12
UNREDUCED_MAX_DIM = 128     # `solve` reduces by symmetry only above: the measured crossover


def exact_number(value, name: str) -> Fraction:
    """`Fraction(value)`, with an infinite value or a zero denominator as a
    ValueError that names the field."""
    try:
        return Fraction(value)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


def json_object(obj, what: str, keys) -> dict:
    """`obj`, a JSON object with every key of `keys`; else a ValueError naming `what`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must hold a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} has no {missing[0]!r}")
    return obj


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
        return bond_list(self.n_sites, self.boundary)

    def dimension(self) -> int:
        return int(2 * self.spin + 1) ** self.n_sites

    @classmethod
    def from_json(cls, obj: dict, what: str = "chain spec") -> "ChainSpec":
        """The spec in the JSON object `obj`, which `what` names in an error."""
        n_sites = json_object(obj, what, ("n_sites", "spin", "jx", "jy", "jz"))["n_sites"]
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
            return cls.from_json(json.load(fh), f"spec file {path}")


def bond_list(n_sites: int, boundary: str) -> list[tuple[int, int]]:
    """The bonds (i, i + 1), and (n_sites - 1, 0) on a periodic chain."""
    out = [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == PERIODIC:
        out.append((n_sites - 1, 0))
    return out


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


class SymmetryTables:
    """The pattern step of `symmetry_blocks`: everything it reads of M's
    `pattern`, of commuting index permutations `generators` and of `parity`,
    and nothing of M's values.

    `generators` are (g, o) pairs: g an index map g[r], o its order.  They
    generate the abelian group of elements e = g_1^l_1 ... g_k^l_k, whose
    characters are chi_m(e) = exp(2 pi i sum_j m_j l_j / o_j), exact at
    quarter turns.  The representative a of an orbit is its smallest
    index, S_a its stabilizer, and r = e_r^-1 a for one element e_r per
    index r.  The tables hold the group's characters, the orbits, the
    entries (r, b) of the pattern in representative columns b with their
    factors sqrt(|S_a| / |S_b|), the pairings of `symmetry_blocks`, and, per
    set of kept characters (`gather`), the entry of K of each term, in K's
    `Pattern`, the `union` of their keys and mirrors.  `parity` (0 or 1 per
    index, or None) enters only through the pairing rule.  Index maps are
    int32 and the character of a term is stored as its number of turns.
    """

    def __init__(self, pattern: Pattern, generators, parity=None):
        n = pattern.n
        orders = [o for _, o in generators]
        images = np.arange(n)[None]          # images[e, r] = e(r), element e in l order
        for g, o in generators:
            powers = [images]
            for _ in range(1, o):
                powers.append(g[powers[-1]])
            images = np.stack(powers, axis=1).reshape(-1, n)
        self.n, self.size = n, len(images)
        exps = np.array(list(itertools.product(*map(range, orders))), dtype=np.int64)
        self.exps = exps.reshape(self.size, len(orders))
        turns = math.lcm(*orders)
        self.t = (self.exps * (turns // np.array(orders, dtype=np.int64))) @ self.exps.T % turns
        root = np.exp(2j * np.pi * np.arange(turns) / turns)     # chi_m(e) = root[t[m, e]]
        quarter = np.arange(turns) * 4 % turns == 0
        root[quarter] = np.array([1, 1j, -1, -1j])[np.arange(turns)[quarter] * 4 // turns]
        self.root = root
        rep = images.min(axis=0)
        to_rep = images.argmin(axis=0)        # e_r, with e_r(r) = rep[r]
        stab = (images == np.arange(n)).sum(axis=0)
        self.reps = np.flatnonzero(rep == np.arange(n))
        # chi_m has a state on the orbit of a iff it is 1 on S_a: its sum over S_a is |S_a|, else 0
        self.compat = np.abs(root[self.t] @ (images[:, self.reps] == self.reps)
                             - stab[self.reps]) < 0.5
        stride = [math.prod(orders[j + 1:]) for j in range(len(orders))]
        self.conj = (-self.exps % np.array(orders, dtype=np.int64)) @ np.array(stride, dtype=np.int64)
        self.flip = self.breaking = None
        if parity is not None:
            flips = [(parity[g] != parity).all() for g, _ in generators]
            keeps = [(parity[g] == parity).all() for g, _ in generators]
            j = flips.index(True) if sum(flips) == 1 else None
            if j is not None and orders[j] == 2 and all(f or k for f, k in zip(flips, keeps)):
                self.flip = j
                self.breaking = np.flatnonzero(parity[pattern.rows] != parity[pattern.cols])
        hit = np.flatnonzero(rep[pattern.cols] == pattern.cols)
        b, r = pattern.cols[hit], pattern.rows[hit]
        a = rep[r]
        self.hit = hit.astype(np.int32)
        self.factor = np.sqrt(stab[a] / stab[b])
        self._a, self._b, self._to_rep = (x.astype(np.int32) for x in (a, b, to_rep[r]))
        self._gathers = {}

    def gather(self, chars: np.ndarray):
        """For the kept characters `chars` (ascending): K's `Pattern`, the
        character of each kept index, and the entry of K of each term."""
        key = chars.tobytes()
        if key not in self._gathers:
            which, kept = np.nonzero(self.compat[chars])
            pos = np.full((len(chars), self.n), -1, dtype=np.int64)   # K index of (character, rep)
            pos[which, self.reps[kept]] = np.arange(len(kept))
            krow, kcol = pos[:, self._a], pos[:, self._b]
            char, term = np.nonzero((krow >= 0) & (kcol >= 0))
            n, r, c = len(kept), krow[char, term], kcol[char, term]
            rows, cols, at = union(n, np.stack([r * n + c, c * n + r]))
            at = at[0].copy()                   # the terms' own keys; the mirrors' are freed
            at.flags.writeable = False
            turn = self.t[chars[char], self._to_rep[term]]
            self._gathers[key] = (Pattern(n, rows, cols), which, term.astype(np.int32),
                                  turn.astype(np.min_scalar_type(len(self.root) - 1)), at)
        return self._gathers[key]


def symmetry_blocks(M: SectorMatrix, tables: SymmetryTables) -> tuple[SectorMatrix, np.ndarray]:
    """M in symmetry-adapted states of commuting index permutations, one
    block per kept character, and the multiplicity of each kept index: the
    value step, on the `SymmetryTables` of M's pattern, of the generators
    (each leaving M invariant) and of the parity.

    For each character that is 1 on S_a the normalized state
    |a(m)> ~ sum_e chi_m(e) e|a> gives

        K[a(m), b(m)] = sum over r of M[r, b] chi_m(e_r) sqrt(|S_a| / |S_b|),

    summed over the entries of the representative columns b, r running over
    the orbit of a.  K is indexed by character (l order: the first generator's
    exponent slowest), then by representative, ascending; each block has the
    size (1/|G|) sum_e chi_m(e) fix(e).  K is summed first and then averaged
    through the mirror of its pattern, K <- K/2 + K^dag/2, so it is Hermitian.
    Its entries are those the pattern of M can reach, terms that cancel
    kept as stored zeros.

    Of two blocks with the same spectrum one is kept, its multiplicity
    doubled, under each of two rules:
    - for a real M, the block of chi_m and of its conjugate, which are
      complex conjugates of each other (k and -k for a translation);
    - with a parity, when M conserves it on its nonzero entries, one
      generator of order 2 flips it at every index and the others keep it:
      U = (-1)^parity then commutes with M and maps that generator's odd
      block onto its even block, which is kept.
    The multiplicities sum to M.n.
    """
    t = tables
    mult = np.ones(t.size, dtype=np.int64)
    if not M.vals.imag.any():
        here = np.arange(t.size)
        mult = np.where(t.conj < here, 0, np.where(t.conj > here, 2, 1))
    if t.flip is not None and not M.vals[t.breaking].any():
        mult = np.where(t.exps[:, t.flip] == 0, 2 * mult, 0)
    chars = np.flatnonzero(mult)
    pattern, which, term, turn, at = t.gather(chars)
    v = M.vals[t.hit] * t.factor
    K = sum_at(at, v[term] * t.root[turn], len(pattern.rows))
    # + 0.0: -0.0 -> 0.0, as a sum from zero (test_blocks_equal_two_unique_gather_bit_for_bit)
    K = (K / 2 + 0.0) + K[pattern.mirror[0]].conj() / 2
    return pattern.matrix(K), mult[chars][which]


class ChainPlan(Pattern):
    """The pattern of a chain's sector matrix M, the `Pattern` of its bond
    placement (`_plan`), with the index work of its symmetry blocks, which
    reads no value:

    - `maps`: the index maps of the symmetries of the chain `shape`
      (d, n_sites, boundary) with their partner maps, (name, map, order,
      partners) each: translation T on a periodic chain or reflection R on
      an open one, then the flip P, a map that is the identity left out;
      and `parity`, of the digit sum when (d - 1) n_sites is odd.  Both
      are None without a shape, when M is solved unreduced;
    - `tables`: the `SymmetryTables` of each set of generators that passes
      the invariance checks, by their names.

    One plan serves every chain of a shape: 2s, n_sites, the boundary and
    the nonzero pattern of the bond matrix h, never a coupling, hbar or
    mode value (`chain_matrix` keeps it per shape).  The layouts and
    `tables` are built on first use.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, placed=None, shape=None):
        super().__init__(n, rows, cols, placed)
        self.tables = {}
        self.maps = self.parity = None
        if shape is None:
            return
        d, n_sites, boundary = shape
        r = np.arange(n)
        digits = r[:, None] // d ** np.arange(n_sites - 1, -1, -1) % d
        maps = [("T", r // d + r % d * d ** (n_sites - 1), n_sites) if boundary == PERIODIC
                else ("R", digits @ d ** np.arange(n_sites), 2), ("P", r[::-1], 2)]
        self.maps = [(name, g, order, self.partners(g[rows], g[cols]))
                     for name, g, order in maps if (g != r).any()]
        self.parity = digits.sum(axis=1) % 2 if (d - 1) * n_sites % 2 else None

    def reduce(self, M: SectorMatrix) -> tuple[SectorMatrix, np.ndarray]:
        """`symmetry_reduction` of M, whose entries are the plan's."""
        scale = np.abs(M.vals).max(initial=0.0)
        tol = INVARIANCE_TOL * scale
        generators = []
        for name, g, order, partners in self.maps:
            dev = M.deviation(partners)
            if name == "T" and dev > tol:
                raise RuntimeError(f"sector matrix is not translation invariant: "
                                   f"max |M(Tr, Tc) - M(r, c)| / max |M| = {dev / scale:.3e}")
            if dev <= tol:
                generators.append((name, g, order))
        names = tuple(name for name, _, _ in generators)
        if names not in self.tables:
            self.tables[names] = SymmetryTables(
                self, [(g, o) for _, g, o in generators],
                self.parity if "P" in names else None)
        return symmetry_blocks(M, self.tables[names])


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

    Each call builds a `ChainPlan` on M's entries for its pattern step;
    `solve` reuses the one `chain_matrix` keeps for the chain shape.

    Raises RuntimeError when a periodic chain's M is not translation invariant.
    """
    shape = (int(2 * spec.spin) + 1, spec.n_sites, spec.boundary)
    return lambda M: ChainPlan(M.n, M.rows, M.cols, shape=shape).reduce(M)


@functools.lru_cache(maxsize=16)
def _bond_tables(twos: int, hbar: Fraction, mode: str) -> tuple[SectorMatrix, ...]:
    """The sector matrices T_x, T_y, T_z of the bond operator (`_bond`), T_a
    with coupling 1 on axis a, indexed by a_0 d + a_1 (d = 2s+1): column
    a_0 d + a_1 holds `apply` of the bond on z_0^a_0 w_0^(2s-a_0)
    z_1^a_1 w_1^(2s-a_1), each resulting monomial m at row
    m[z_0] d + m[z_1] (each bond term keeps both sites' boson numbers, so m
    is a sector state).  A bond's H is linear in the couplings, so
    sum_a J_a T_a is the bond (0, 1) of any chain with these spin, hbar and
    mode.  Cached per process; the arrays are read-only.
    """
    d = twos + 1
    z0, w0, z1, w1 = z_var(0), w_var(0), z_var(1), w_var(1)
    kets = [MultiIndex({z0: a0, w0: twos - a0, z1: a1, w1: twos - a1})
            for a0, a1 in itertools.product(range(d), repeat=2)]
    tables = []
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        bond = _bond(unit, hbar, mode)
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


def _plan(twos: int, n_sites: int, boundary: str, h_keys: bytes) -> ChainPlan:
    """A new `ChainPlan` for the shape: the `placement` of a bond matrix h
    with these row-major keys (int64) on the bonds of `bond_list`, and,
    above UNREDUCED_MAX_DIM, the symmetry maps.  With a < b the sites of
    bond (i, j), the index range reshaped to (L, d, M, d, R), L = d^a,
    M = d^(b-a-1), R = d^(N-b-1), with the axes of sites i and j put first,
    lists the states by the local digits a_i d + a_j that index h."""
    d = twos + 1
    r = np.arange(d ** n_sites)

    def local(i, j):
        a, b = min(i, j), max(i, j)
        return np.moveaxis(r.reshape(d ** a, d, d ** (b - a - 1), d, d ** (n_sites - b - 1)),
                           (1, 3) if i < j else (3, 1), (0, 1)).reshape(d * d, -1)

    shape = (d, n_sites, boundary) if len(r) > UNREDUCED_MAX_DIM else None
    return ChainPlan(*placement(d, n_sites, np.frombuffer(h_keys, dtype=np.int64),
                                lambda: bond_list(n_sites, boundary), local), shape)


def chain_matrix(spec: ChainSpec) -> SectorMatrix:
    """The chain's sector matrix: the matrix of `build_hamiltonian(spec)` up
    to rounding, without building the whole-chain polynomial.

    The bond matrix h = sum over J_a != 0 of J_a T_a (`_bond_tables`, not
    filled for one site, where h is 0) is placed on every bond
    (`Pattern.place`), the contributions to an entry summed in
    `spec.bonds()` order; the values are float64 when h is real.  The
    entries are the union of the placements, so one whose contributions
    cancel is a stored zero.  The matrix's `pattern` is the shape's
    `ChainPlan`, kept for the next call on the shape (`thermo._kept_plan`).

    Raises AmplitudeOverflow if an entry is beyond the float range.
    """
    d, n = int(2 * spec.spin) + 1, spec.n_sites
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(0, dtype=np.complex128))]
    if n > 1:
        tables = _bond_tables(d - 1, spec.hbar, spec.mode)
        with np.errstate(over="ignore", invalid="ignore"):
            parts += [(T.rows, T.cols, J * T.vals)
                      for J, T in zip(spec.couplings, tables) if J != 0.0]
    h = SectorMatrix.from_triplets(d * d, *map(np.concatenate, zip(*parts)))
    plan = _kept_plan(_plan, d - 1, n, spec.boundary, (h.rows * (d * d) + h.cols).tobytes())
    M = plan.place(h.vals if h.vals.imag.any() else h.vals.real)
    if not np.isfinite(M.vals).all():
        raise AmplitudeOverflow("a summed matrix element is beyond the float range")
    return M


def solve(spec: ChainSpec) -> Spectrum:
    """Eigenvalues of the chain: sector matrix from the cached bond tables
    (`chain_matrix`), eigensolve (no eigenvectors).  A chain of dimension
    above UNREDUCED_MAX_DIM is solved in the blocks of its symmetries
    (`symmetry_reduction`), each block of a set with equal spectra once; a
    smaller one is solved unreduced, in the blocks of its nonzero pattern
    alone.  The checks of `eigensolve` run on the sector matrix either way.

    The index work is the chain shape's `ChainPlan`, which `chain_matrix`
    keeps within `thermo.PLAN_BUDGET` entries.  Every call computes values
    alone, in the same order, so its result is the same to the bit cold or
    warm, and runs every gate on its own values.  The saving is for a process
    that solves one shape again (a coupling scan, `verify
    --random-trials`); a one-shot call builds the plan once and never reads
    it again.

    Raises DimensionTooLarge, before anything is built, when the sector
    dimension exceeds the cap of `check_cap`.
    """
    check_dimension(spec)
    M = chain_matrix(spec)
    return eigensolve(M, compute_vectors=False,
                      reduce=M.pattern.reduce if M.pattern.maps is not None else None)
