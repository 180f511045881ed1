import hypothesis
import hypothesis.strategies as st
import pytest

from bargmann.algebra import (
    Flavor,
    MultiIndex,
    OperatorPolynomial,
    OperatorTerm,
    PolynomialState,
    RationalComplex,
    Var,
)
from bargmann.chain import _bond_tables

hypothesis.settings.register_profile("pkg", deadline=None)
hypothesis.settings.load_profile("pkg")


@pytest.fixture
def cold_bond_tables():
    """Empty the per-process cache of bond tables before and after the test,
    so that a patched build or assembly is what fills the tables of `solve`,
    and no table filled by it outlives the test."""
    _bond_tables.cache_clear()
    yield
    _bond_tables.cache_clear()


variables = st.builds(Var, st.integers(0, 3), st.sampled_from(list(Flavor)))


def multiindices(max_exponent=5, max_vars=4):
    return st.dictionaries(variables, st.integers(1, max_exponent),
                           max_size=max_vars).map(MultiIndex)


small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=8)

rational_complexes = st.builds(RationalComplex, small_fractions, small_fractions)

nonzero_rational_complexes = rational_complexes.filter(bool)


def operator_terms(max_exponent=5, max_vars=4):
    return st.builds(OperatorTerm, nonzero_rational_complexes,
                     multiindices(max_exponent, max_vars),
                     multiindices(max_exponent, max_vars))


def operator_polys(max_terms=4, max_exponent=5, max_vars=4):
    return st.lists(operator_terms(max_exponent, max_vars),
                    max_size=max_terms).map(OperatorPolynomial.from_terms)


# min magnitude keeps |amp|^2 from underflowing to exactly zero in norms
finite_amplitudes = st.complex_numbers(min_magnitude=1e-3, max_magnitude=5,
                                       allow_nan=False, allow_infinity=False)


def states(max_exponent=6, max_vars=3, max_monomials=4):
    return st.dictionaries(multiindices(max_exponent, max_vars), finite_amplitudes,
                           max_size=max_monomials).map(PolynomialState)


def act_unnormalized(t: OperatorTerm, exps: dict):
    """Independent exact action of a normal-ordered word on the unnormalized
    monomial with the given exponents: derivatives first (falling factorial),
    then multiplications.  Returns (exponents, exact coefficient) or None."""
    out = dict(exps)
    coeff = t.coeff
    for v, r in t.deriv.items():
        n = out.get(v, 0)
        if n < r:
            return None
        f = 1
        for k in range(r):
            f *= n - k
        coeff = coeff * f
        if n - r:
            out[v] = n - r
        else:
            out.pop(v, None)
    for v, p in t.mult.items():
        out[v] = out.get(v, 0) + p
    return out, coeff
