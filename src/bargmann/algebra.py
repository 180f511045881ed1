"""Exact algebra of normal-ordered differential operators on Bargmann space.

The space is spanned by normalized monomials ``prod_v v**n_v / sqrt(n_v!)``
over a set of complex variables (a ``z`` and a ``w`` mode per site), which
form an orthonormal basis.  Operators are finite sums of normal-ordered words

    c * prod_v v**p_v * prod_v (d/dv)**r_v        (multiplications left)

with exact rational-complex coefficients, so algebraic identities
(commutators, adjoints, Hermiticity) are checked as equalities instead of
approximations.  Floating point enters only through state amplitudes and
matrix elements, where square roots of factorial ratios are unavoidable.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import AmplitudeOverflow


class Flavor(IntEnum):
    Z = 0
    W = 1


class Var(NamedTuple):
    """One complex mode: the z or w variable attached to a site."""

    site: int
    flavor: Flavor


def z_var(site: int) -> Var:
    return Var(site, Flavor.Z)


def w_var(site: int) -> Var:
    return Var(site, Flavor.W)


def var_name(v: Var, derivative: bool = False) -> str:
    base = "z" if v.flavor == Flavor.Z else "w"
    if derivative:
        base = "d" + base
    return f"{base}[{v.site}]"


def _as_fraction(x) -> Fraction:
    # Fraction(float) is exact: every binary float is a rational.
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    @classmethod
    def from_value(cls, x) -> "RationalComplex":
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, complex):
            return cls(_as_fraction(x.real), _as_fraction(x.imag))
        return cls(_as_fraction(x))

    def __add__(self, other):
        o = RationalComplex.from_value(other)
        return RationalComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = RationalComplex.from_value(other)
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other):
        o = RationalComplex.from_value(other)
        return RationalComplex(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"


class MultiIndex:
    """Map from variables to positive exponents; zeros are never stored.

    Canonical and hashable: two multi-indexes are equal iff they store the
    same (variable, exponent) pairs.  Those pairs, sorted by variable, are the
    sort key of polynomial and state keys.
    """

    __slots__ = ("_items", "_map")

    def __init__(self, exponents: Mapping[Var, int] | Iterable = ()):
        pairs = exponents.items() if isinstance(exponents, Mapping) else exponents
        acc: dict[Var, int] = {}
        for v, e in pairs:
            if not isinstance(v, Var):
                v = Var(int(v[0]), Flavor(v[1]))
            e = int(e)
            if e < 0:
                raise ValueError(f"negative exponent {e} for {var_name(v)}")
            if e:
                acc[v] = acc.get(v, 0) + e
        object.__setattr__(self, "_items", tuple(sorted(acc.items())))
        object.__setattr__(self, "_map", acc)

    @classmethod
    def _from_dict(cls, acc: dict[Var, int]) -> "MultiIndex":
        # Fast path: caller guarantees valid vars and strictly positive exponents.
        obj = object.__new__(cls)
        object.__setattr__(obj, "_items", tuple(sorted(acc.items())))
        object.__setattr__(obj, "_map", acc)
        return obj

    @classmethod
    def single(cls, v: Var, exponent: int = 1) -> "MultiIndex":
        return cls({v: exponent})

    def get(self, v: Var) -> int:
        return self._map.get(v, 0)

    def items(self):
        return self._items

    def variables(self):
        return tuple(v for v, _ in self._items)

    def __bool__(self):
        return bool(self._items)

    def __len__(self):
        return len(self._items)

    def __eq__(self, other):
        return isinstance(other, MultiIndex) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        if not self._items:
            return "MultiIndex()"
        body = ", ".join(f"{var_name(v)}^{e}" for v, e in self._items)
        return f"MultiIndex({body})"


EMPTY_INDEX = MultiIndex()


@dataclass(frozen=True, slots=True)
class OperatorTerm:
    """Normal-ordered word: coeff * (multiplications) * (derivatives)."""

    coeff: RationalComplex
    mult: MultiIndex
    deriv: MultiIndex


class OperatorPolynomial:
    """Finite sum of normal-ordered terms in canonical form.

    Stored as a map (mult, deriv) -> coefficient with no zero coefficients
    and keys kept sorted by the pairs of mult, then of deriv, so equality is
    map equality and printing is deterministic.
    """

    __slots__ = ("_terms", "_term_cache")

    def __init__(self, terms: Mapping = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for key, c in items:
            c = RationalComplex.from_value(c)
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
        order = sorted(acc.items(), key=lambda kv: (kv[0][0]._items, kv[0][1]._items))
        cleaned = {k: v for k, v in order if v}
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_term_cache", None)

    @classmethod
    def zero(cls) -> "OperatorPolynomial":
        return cls()

    @classmethod
    def identity(cls, scale=1) -> "OperatorPolynomial":
        return cls({(EMPTY_INDEX, EMPTY_INDEX): RationalComplex.from_value(scale)})

    @classmethod
    def sum(cls, polys: Iterable["OperatorPolynomial"]) -> "OperatorPolynomial":
        """Sum of the polynomials, with the canonical map built once."""
        return cls(itertools.chain.from_iterable(p._terms.items() for p in polys))

    @classmethod
    def from_terms(cls, terms: Iterable) -> "OperatorPolynomial":
        acc = []
        for t in terms:
            if isinstance(t, OperatorTerm):
                acc.append(((t.mult, t.deriv), t.coeff))
            else:
                c, mult, deriv = t
                acc.append(((MultiIndex(mult) if not isinstance(mult, MultiIndex) else mult,
                             MultiIndex(deriv) if not isinstance(deriv, MultiIndex) else deriv),
                            RationalComplex.from_value(c)))
        return cls(acc)

    def items(self):
        return self._terms.items()

    def terms(self) -> tuple[OperatorTerm, ...]:
        cache = self._term_cache
        if cache is None:
            cache = tuple(OperatorTerm(c, m, d) for (m, d), c in self._terms.items())
            object.__setattr__(self, "_term_cache", cache)
        return cache

    def is_zero(self) -> bool:
        return not self._terms

    def scaled(self, c) -> "OperatorPolynomial":
        c = RationalComplex.from_value(c)
        return OperatorPolynomial({k: v * c for k, v in self._terms.items()})

    def __add__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        return OperatorPolynomial(list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other: "OperatorPolynomial") -> "OperatorPolynomial":
        return self + other.scaled(-1)

    def __neg__(self) -> "OperatorPolynomial":
        return self.scaled(-1)

    def __eq__(self, other):
        return isinstance(other, OperatorPolynomial) and self._terms == other._terms

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"OperatorPolynomial(<{len(self._terms)} terms>)"


def single_term(coeff, mult=(), deriv=()) -> OperatorPolynomial:
    """One-term operator; `mult`/`deriv` may be mappings or MultiIndex."""
    return OperatorPolynomial.from_terms([(coeff, mult, deriv)])


class PolynomialState:
    """Finite vector in Bargmann space.

    Amplitudes are with respect to NORMALIZED monomials prod v**n/sqrt(n!);
    exact zeros are never stored.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: Mapping[MultiIndex, complex] | Iterable = ()):
        pairs = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        acc: dict[MultiIndex, complex] = {}
        for m, a in pairs:
            if not isinstance(m, MultiIndex):
                m = MultiIndex(m)
            a = complex(a)
            if a != 0:
                acc[m] = acc.get(m, 0j) + a
        cleaned = {m: a for m, a in sorted(acc.items(), key=lambda kv: kv[0]._items) if a != 0}
        object.__setattr__(self, "_amps", cleaned)

    @classmethod
    def monomial(cls, m, amplitude: complex = 1.0) -> "PolynomialState":
        if not isinstance(m, MultiIndex):
            m = MultiIndex(m)
        return cls({m: amplitude})

    @classmethod
    def vacuum(cls, amplitude: complex = 1.0) -> "PolynomialState":
        return cls({EMPTY_INDEX: amplitude})

    def items(self):
        return self._amps.items()

    def get(self, m: MultiIndex) -> complex:
        return self._amps.get(m, 0j)

    def active_variables(self) -> tuple[Var, ...]:
        vs: set[Var] = set()
        for m in self._amps:
            vs.update(m.variables())
        return tuple(sorted(vs))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amps.values()))

    def scaled(self, c: complex) -> "PolynomialState":
        return PolynomialState({m: a * c for m, a in self._amps.items()})

    def __add__(self, other: "PolynomialState") -> "PolynomialState":
        return PolynomialState(list(self._amps.items()) + list(other._amps.items()))

    def __sub__(self, other: "PolynomialState") -> "PolynomialState":
        return self + other.scaled(-1.0)

    def __eq__(self, other):
        return isinstance(other, PolynomialState) and self._amps == other._amps

    def __len__(self):
        return len(self._amps)

    def __bool__(self):
        return bool(self._amps)

    def __repr__(self):
        return f"PolynomialState(<{len(self._amps)} monomials>)"


def monomial_norm_sq(m: MultiIndex) -> int:
    """Squared Bargmann norm of the unnormalized monomial: prod n_v!.

    The Gaussian measure's pi**d prefactor is already divided out, so the
    normalized monomials have norm exactly 1.
    """
    out = 1
    for _, e in m.items():
        out *= math.factorial(e)
    return out


def inner_product(a: PolynomialState, b: PolynomialState) -> complex:
    """<a|b> over the orthonormal monomial basis; conjugate-linear in `a`."""
    if len(a) > len(b):
        return sum(a.get(m).conjugate() * amp for m, amp in b.items())
    return sum(amp.conjugate() * b.get(m) for m, amp in a.items())


def apply_term(t: OperatorTerm, m: MultiIndex):
    """Act with one normal-ordered term on a normalized monomial.

    Returns (resulting MultiIndex, complex amplitude), or None when a
    derivative order exceeds the available exponent (annihilation).
    The amplitude is coeff * prod_v sqrt(n_v! n'_v!)/(n_v - r_v)! with the
    factorial ratio computed in exact integer arithmetic before the square
    root.  Raises AmplitudeOverflow when the amplitude is not finite.
    """
    exps = dict(m._map)
    num = 1
    den = 1
    touched = set(t.deriv.variables()) | set(t.mult.variables())
    for v in touched:
        n = exps.get(v, 0)
        r = t.deriv.get(v)
        if n < r:
            return None
        n_new = n - r + t.mult.get(v)
        num *= math.factorial(n) * math.factorial(n_new)
        den *= math.factorial(n - r) ** 2
        if n_new:
            exps[v] = n_new
        else:
            exps.pop(v, None)
    try:
        root = math.sqrt(num / den)
    except OverflowError:
        root = _sqrt_huge_ratio(num, den)
    try:
        amp = t.coeff.to_complex() * root
    except OverflowError:  # the coefficient itself is beyond the float range
        amp = complex(math.inf)
    if not cmath.isfinite(amp):
        raise AmplitudeOverflow(f"amplitude of a term acting on {m!r} is beyond the float range")
    return MultiIndex._from_dict(exps), amp


def _sqrt_huge_ratio(num: int, den: int) -> float:
    """sqrt(num/den) for a quotient beyond the float range: num/den is
    rescaled by an exact power of 4 first.  Returns inf when the root
    overflows too."""
    e = (num.bit_length() - den.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(num / (den << 2 * e)), e)
    except OverflowError:
        return math.inf


def apply(A: OperatorPolynomial, s: PolynomialState) -> PolynomialState:
    """Linear extension of apply_term; exact zeros are dropped.  Raises
    AmplitudeOverflow when a summed amplitude is not finite (inf, or the NaN
    of inf - inf)."""
    out: dict[MultiIndex, complex] = {}
    for m, amp in s.items():
        for t in A.terms():
            r = apply_term(t, m)
            if r is None:
                continue
            m2, a = r
            out[m2] = out.get(m2, 0j) + amp * a
    for m, a in out.items():
        if not cmath.isfinite(a):
            raise AmplitudeOverflow(f"summed amplitude of {m!r} is beyond the float range")
    return PolynomialState(out)


def _term_products(a: OperatorTerm, b: OperatorTerm):
    """All normal-ordered terms of the word a*b.

    Per variable, pushing r derivatives through p' multiplications uses
    d^r z^p' = sum_k C(r,k) p'!/(p'-k)! z^(p'-k) d^(r-k); distinct variables
    commute, so contractions factorize.  Yields (mult dict, deriv dict,
    RationalComplex coeff) with exact integer combinatorial factors.
    """
    coeff = a.coeff * b.coeff
    contractions = []
    for v, p in b.mult.items():
        r = a.deriv.get(v)
        if r:
            contractions.append((v, r, p))

    base_mult = dict(a.mult._map)
    for v, e in b.mult.items():
        base_mult[v] = base_mult.get(v, 0) + e
    base_deriv = dict(b.deriv._map)
    for v, e in a.deriv.items():
        base_deriv[v] = base_deriv.get(v, 0) + e

    if not contractions:
        yield base_mult, base_deriv, coeff
        return

    ranges = [range(min(r, p) + 1) for _, r, p in contractions]
    for ks in itertools.product(*ranges):
        factor = 1
        mult = dict(base_mult)
        deriv = dict(base_deriv)
        for (v, r, p), k in zip(contractions, ks):
            if not k:
                continue
            factor *= math.comb(r, k) * math.perm(p, k)
            nm = mult[v] - k
            nd = deriv[v] - k
            if nm:
                mult[v] = nm
            else:
                del mult[v]
            if nd:
                deriv[v] = nd
            else:
                del deriv[v]
        yield mult, deriv, coeff * factor


def compose(A: OperatorPolynomial, B: OperatorPolynomial) -> OperatorPolynomial:
    """Canonical normal-ordered form of the operator product A*B."""
    acc: dict = {}
    for ta in A.terms():
        for tb in B.terms():
            for mult, deriv, c in _term_products(ta, tb):
                key = (MultiIndex._from_dict(mult), MultiIndex._from_dict(deriv))
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
    return OperatorPolynomial(acc)


def commutator(A: OperatorPolynomial, B: OperatorPolynomial) -> OperatorPolynomial:
    return compose(A, B) - compose(B, A)


def adjoint(A: OperatorPolynomial) -> OperatorPolynomial:
    """Bargmann adjoint: swap multiplications with derivatives, conjugate."""
    return OperatorPolynomial({(d, m): c.conjugate() for (m, d), c in A.items()})
