"""Angular-momentum operators from two bosonic modes per site.

Each site carries a (z, w) pair; the SU(2) generators are first-order
differential operators mixing the two modes, and the (j, m) labels of a
monomial z**a w**b are j = (a+b)/2, m = (a-b)/2.
"""

from __future__ import annotations

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


def j_operator(site: int, kind: str, hbar=1) -> OperatorPolynomial:
    """Generator of one site, `kind` exactly one of x, y, z, +, -, squared;
    any other kind is a ValueError.

    J_x = (h/2)(z dw + w dz), J_y = (h/2i)(z dw - w dz),
    J_z = (h/2)(z dz - w dw), J_+ = h z dw, J_- = h w dz,
    and `squared` is the normal-ordered J_x^2 + J_y^2 + J_z^2.
    """
    if site < 0:
        raise ValueError("site must be non-negative")
    h = Fraction(hbar)
    z = MultiIndex.single(z_var(site))
    w = MultiIndex.single(w_var(site))
    half = RationalComplex(h / 2)
    if kind == "x":
        return OperatorPolynomial({(z, w): half, (w, z): half})
    if kind == "y":
        # 1/(2i) = -i/2
        return OperatorPolynomial({(z, w): RationalComplex(0, -h / 2),
                                   (w, z): RationalComplex(0, h / 2)})
    if kind == "z":
        return OperatorPolynomial({(z, z): half, (w, w): -half})
    if kind == "+":
        return OperatorPolynomial({(z, w): RationalComplex(h)})
    if kind == "-":
        return OperatorPolynomial({(w, z): RationalComplex(h)})
    if kind != "squared":
        raise ValueError(f"unknown operator kind {kind!r}; expected one of "
                         "x, y, z, +, -, squared")
    return total_operator("squared", [site], h)


def total_operator(kind: str, sites: Iterable[int], hbar=1) -> OperatorPolynomial:
    """Sum of per-site generators of a `j_operator` kind; `squared` is the
    square of the summed vector operator, cross terms included."""
    sites = list(sites)
    if not sites:
        raise ValueError("sites must be non-empty")
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    h = Fraction(hbar)
    if kind != "squared":
        return OperatorPolynomial.sum(j_operator(s, kind, h) for s in sites)
    comps = [OperatorPolynomial.sum(j_operator(s, axis, h) for s in sites)
             for axis in ("x", "y", "z")]
    return OperatorPolynomial.sum(compose(c, c) for c in comps)
