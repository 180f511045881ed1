"""Spin sectors of multi-site Bargmann space and XYZ chain Hamiltonians.

The spin-s sector fixes the boson number alpha_i + beta_i = 2s at every site,
giving a (2s+1)**n_sites dimensional space isomorphic to the spin chain.
Hamiltonians are built either compositionally from per-site generators (the
reference construction) or from a verbatim hand-expanded form kept for
diagnostic comparison ("paper_literal" mode, whose z-coupling line merges two
cross terms).
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import (
    MultiIndex,
    OperatorPolynomial,
    RationalComplex,
    apply_term,
    compose,
    w_var,
    z_var,
)
from .angular import j_operator
from .errors import AmplitudeOverflow, DimensionTooLarge, SectorViolation
from .thermo import MAX_DENSE_DIM, SectorMatrix, Spectrum, eigensolve

OPEN = "open"
PERIODIC = "periodic"
COMPOSITIONAL = "compositional"
PAPER_LITERAL = "paper_literal"


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
        object.__setattr__(self, "spin", Fraction(self.spin))
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        object.__setattr__(self, "hbar", Fraction(self.hbar))
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

    def to_json(self) -> dict:
        s = self.spin
        return {
            "n_sites": self.n_sites,
            "spin": str(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}",
            "jx": self.couplings[0],
            "jy": self.couplings[1],
            "jz": self.couplings[2],
            "boundary": self.boundary,
            "hbar": float(self.hbar),
            "mode": self.mode,
        }


@dataclass(frozen=True)
class SectorBasis:
    """Ordered monomial basis of the spin-s sector.

    States are ordered lexicographically in the per-site magnetization
    m_i = (alpha_i - beta_i)/2 running -s..+s, site 0 slowest, so the state
    with z-exponents (a_0, ..., a_{N-1}) has index sum_i a_i (2s+1)**(N-1-i).
    `len` is that closed form; `states` and the index behind `index_of` are
    built on first use.
    """

    spin: Fraction
    n_sites: int

    def __len__(self):
        return int(2 * self.spin + 1) ** self.n_sites

    @cached_property
    def states(self) -> tuple[MultiIndex, ...]:
        twos = int(2 * self.spin)
        sites = range(self.n_sites)
        return tuple(_sector_monomial(sites, digits, twos)
                     for digits in itertools.product(range(twos + 1), repeat=self.n_sites))

    @cached_property
    def _index(self) -> dict:
        return {m: i for i, m in enumerate(self.states)}

    def index_of(self, m: MultiIndex) -> int:
        try:
            return self._index[m]
        except KeyError:
            raise SectorViolation(f"{m!r} is not a sector basis state") from None


def _sector_monomial(sites, digits, twos: int) -> MultiIndex:
    """z_i**a_i w_i**(2s-a_i) over the given sites, a_i taken from `digits`."""
    exps = {}
    for site, a in zip(sites, digits):
        if a:
            exps[z_var(site)] = a
        if twos - a:
            exps[w_var(site)] = twos - a
    return MultiIndex(exps)


def sector_basis(spec: ChainSpec) -> SectorBasis:
    return SectorBasis(spec.spin, spec.n_sites)


def site_magnetization(m: MultiIndex, site: int) -> Fraction:
    return Fraction(m.get(z_var(site)) - m.get(w_var(site)), 2)


def total_magnetization(m: MultiIndex, n_sites: int) -> Fraction:
    return sum((site_magnetization(m, i) for i in range(n_sites)), Fraction(0))


def _compositional_hamiltonian(spec: ChainSpec) -> OperatorPolynomial:
    h = spec.hbar
    return OperatorPolynomial.sum(
        compose(j_operator(i, axis, h), j_operator(j, axis, h)).scaled(Fraction(J))
        for (i, j) in spec.bonds()
        for J, axis in zip(spec.couplings, ("x", "y", "z"))
        if J != 0.0)


def _literal_hamiltonian(spec: ChainSpec) -> OperatorPolynomial:
    # Verbatim transcription of the hand-expanded XYZ form.  The x and y
    # lines agree with the compositional product; the z line carries the
    # merged cross term -2 w_i z_j dw_i dz_j in place of the two distinct
    # cross terms, which is what the verify diff reports.
    h2 = spec.hbar * spec.hbar
    jx, jy, jz = (Fraction(J) for J in spec.couplings)
    acc = []

    def add(c: Fraction, mult: dict, deriv: dict):
        acc.append(((MultiIndex(mult), MultiIndex(deriv)), RationalComplex(c)))

    for (i, j) in spec.bonds():
        zi, wi, zj, wj = z_var(i), w_var(i), z_var(j), w_var(j)
        cx = h2 * jx / 4
        add(cx, {zi: 1, zj: 1}, {wi: 1, wj: 1})
        add(cx, {wi: 1, zj: 1}, {zi: 1, wj: 1})
        add(cx, {zi: 1, wj: 1}, {wi: 1, zj: 1})
        add(cx, {wi: 1, wj: 1}, {zi: 1, zj: 1})
        cy = -h2 * jy / 4
        add(cy, {zi: 1, zj: 1}, {wi: 1, wj: 1})
        add(-cy, {wi: 1, zj: 1}, {zi: 1, wj: 1})
        add(-cy, {zi: 1, wj: 1}, {wi: 1, zj: 1})
        add(cy, {wi: 1, wj: 1}, {zi: 1, zj: 1})
        cz = h2 * jz / 4
        add(cz, {zi: 1, zj: 1}, {zi: 1, zj: 1})
        add(-2 * cz, {wi: 1, zj: 1}, {wi: 1, zj: 1})
        add(cz, {wi: 1, wj: 1}, {wi: 1, wj: 1})
    return OperatorPolynomial(acc)


def build_hamiltonian(spec: ChainSpec) -> OperatorPolynomial:
    if spec.mode == PAPER_LITERAL:
        return _literal_hamiltonian(spec)
    return _compositional_hamiltonian(spec)


def mode_difference(spec: ChainSpec) -> OperatorPolynomial:
    """literal-mode minus compositional-mode Hamiltonian, canonical form."""
    return _literal_hamiltonian(spec) - _compositional_hamiltonian(spec)


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


def assemble_matrix(H: OperatorPolynomial, basis: SectorBasis) -> SectorMatrix:
    """Sector matrix with entry (r, c) = <basis[r]|H|basis[c]>.

    A term touching k sites acts as a (2s+1)**k local matrix times the
    identity on the other sites.  `apply_term` runs once on each local
    monomial of those sites, and the local action is scattered over all
    columns through the mixed-radix digits of the basis index.  Triplets are
    ordered by column, then by term, as a loop over states and terms would
    emit them, and `SectorMatrix.from_triplets` sums duplicates in that
    order.  A term touching a site outside the chain annihilates every
    sector state.

    Raises SectorViolation if a term changes any site's boson number, and
    AmplitudeOverflow if a summed entry is beyond the float range.
    """
    _check_sector_preserving(H)
    n, d = basis.n_sites, int(2 * basis.spin) + 1
    dim = len(basis)
    columns = np.arange(dim)
    place = d ** np.arange(n - 1, -1, -1)          # index weight of each site's digit
    digits = columns[:, None] // place % d         # z-exponent of each site, per column
    rows = [np.zeros(0, dtype=np.int64)]
    cols = [np.zeros(0, dtype=np.int64)]
    vals = [np.zeros(0, dtype=np.complex128)]
    blocks: dict[tuple, tuple] = {}    # sites -> (local monomials, local state per column)
    for t in H.terms():
        sites = tuple(sorted({v.site for v in t.mult.variables() + t.deriv.variables()}))
        if any(not 0 <= site < n for site in sites):
            continue
        if sites not in blocks:
            local_digits = itertools.product(range(d), repeat=len(sites))
            blocks[sites] = ([(a, _sector_monomial(sites, a, d - 1)) for a in local_digits],
                             digits[:, list(sites)] @ (d ** np.arange(len(sites) - 1, -1, -1)))
        monomials, local = blocks[sites]
        alive = np.zeros(len(monomials), dtype=bool)
        shift = np.zeros(len(monomials), dtype=np.int64)
        amp = np.zeros(len(monomials), dtype=np.complex128)
        for k, (a, m) in enumerate(monomials):
            r = apply_term(t, m)
            if r is None:
                continue
            m2, value = r
            alive[k] = True
            amp[k] = value
            shift[k] = sum((m2.get(z_var(site)) - ai) * int(place[site])
                           for site, ai in zip(sites, a))
        keep = alive[local]
        hit = local[keep]
        cols.append(columns[keep])
        rows.append(cols[-1] + shift[hit])
        vals.append(amp[hit])
    cols_all = np.concatenate(cols)
    order = np.argsort(cols_all, kind="stable")
    M = SectorMatrix.from_triplets(dim, np.concatenate(rows)[order], cols_all[order],
                                   np.concatenate(vals)[order])
    if not np.isfinite(M.vals).all():
        raise AmplitudeOverflow("a summed matrix element is beyond the float range")
    return M


def solve(spec: ChainSpec, max_dim: int = MAX_DENSE_DIM) -> Spectrum:
    """Eigenvalues of the chain: sector basis, exact normal-ordered H, sector
    matrix, eigensolve (no eigenvectors).

    Raises DimensionTooLarge, before anything is built, when the sector
    dimension exceeds `max_dim`.
    """
    if spec.dimension() > max_dim:
        raise DimensionTooLarge(f"dimension {spec.dimension()} exceeds cap {max_dim}")
    basis = sector_basis(spec)
    M = assemble_matrix(build_hamiltonian(spec), basis)
    return eigensolve(M, compute_vectors=False, max_dim=max_dim)

