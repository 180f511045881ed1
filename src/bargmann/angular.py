"""Angular-momentum operators from two bosonic modes per site.

Each site carries a (z, w) pair; the SU(2) generators are first-order
differential operators mixing the two modes, and the (j, m) labels of a
monomial z**a w**b are j = (a+b)/2, m = (a-b)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import (
    MultiIndex,
    OperatorPolynomial,
    RationalComplex,
    compose,
    w_var,
    z_var,
)

_KIND_ALIASES = {
    "x": "x", "y": "y", "z": "z",
    "+": "+", "plus": "+",
    "-": "-", "minus": "-",
    "2": "2", "squared": "2", "sq": "2",
}


def _canonical_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[str(kind).lower()]
    except KeyError:
        raise ValueError(
            f"unknown operator kind {kind!r}; expected one of "
            "x, y, z, plus, minus, squared") from None


@dataclass(frozen=True)
class JmLabel:
    """(j, m) pair; both half-integers with |m| <= j and equal parity of 2j, 2m."""

    j: Fraction
    m: Fraction

    def __post_init__(self):
        j = Fraction(self.j)
        m = Fraction(self.m)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "m", m)
        twoj, twom = 2 * j, 2 * m
        if twoj.denominator != 1 or twom.denominator != 1:
            raise ValueError(f"j={j}, m={m}: 2j and 2m must be integers")
        if j < 0 or abs(m) > j:
            raise ValueError(f"j={j}, m={m}: need j >= 0 and |m| <= j")
        if (twoj - twom) % 2 != 0:
            raise ValueError(f"j={j}, m={m}: 2j and 2m must have equal parity")


def j_operator(site: int, kind: str, hbar=1) -> OperatorPolynomial:
    """Generator of kind x|y|z|plus|minus|squared acting on one site.

    J_x = (h/2)(z dw + w dz), J_y = (h/2i)(z dw - w dz),
    J_z = (h/2)(z dz - w dw), J_+ = h z dw, J_- = h w dz,
    and `squared` is the normal-ordered J_x^2 + J_y^2 + J_z^2.
    """
    if site < 0:
        raise ValueError("site must be non-negative")
    h = Fraction(hbar)
    k = _canonical_kind(kind)
    z = MultiIndex.single(z_var(site))
    w = MultiIndex.single(w_var(site))
    half = RationalComplex(h / 2)
    if k == "x":
        return OperatorPolynomial({(z, w): half, (w, z): half})
    if k == "y":
        # 1/(2i) = -i/2
        return OperatorPolynomial({(z, w): RationalComplex(0, -h / 2),
                                   (w, z): RationalComplex(0, h / 2)})
    if k == "z":
        return OperatorPolynomial({(z, z): half, (w, w): -half})
    if k == "+":
        return OperatorPolynomial({(z, w): RationalComplex(h)})
    if k == "-":
        return OperatorPolynomial({(w, z): RationalComplex(h)})
    # squared
    axes = [j_operator(site, axis, h) for axis in ("x", "y", "z")]
    return OperatorPolynomial.sum(compose(c, c) for c in axes)


def total_operator(kind: str, sites: Iterable[int], hbar=1) -> OperatorPolynomial:
    """Sum of per-site generators; `squared` is the square of the summed
    vector operator, cross terms included."""
    sites = list(sites)
    if not sites:
        raise ValueError("sites must be non-empty")
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    h = Fraction(hbar)
    k = _canonical_kind(kind)
    if k != "2":
        return OperatorPolynomial.sum(j_operator(s, k, h) for s in sites)
    comps = [OperatorPolynomial.sum(j_operator(s, axis, h) for s in sites)
             for axis in ("x", "y", "z")]
    return OperatorPolynomial.sum(compose(c, c) for c in comps)


def jm_label(alpha: int, beta: int) -> JmLabel:
    """Labels of the monomial z**alpha w**beta."""
    if alpha < 0 or beta < 0:
        raise ValueError("exponents must be non-negative")
    return JmLabel(Fraction(alpha + beta, 2), Fraction(alpha - beta, 2))


def multiplet_states(j, site: int = 0) -> list[MultiIndex]:
    """The 2j+1 monomial exponent pairs (alpha, beta) = (j+m, j-m), m
    descending from j to -j."""
    jf = Fraction(j)
    twoj = 2 * jf
    if twoj.denominator != 1 or twoj < 0:
        raise ValueError(f"j={j} is not a non-negative half-integer")
    twoj = int(twoj)
    out = []
    for beta in range(twoj + 1):
        alpha = twoj - beta
        out.append(MultiIndex({z_var(site): alpha, w_var(site): beta}))
    return out
