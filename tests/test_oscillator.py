import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bargmann.algebra import (
    MultiIndex,
    PolynomialState,
    apply,
    inner_product,
    z_var,
)
from bargmann.oscillator import (
    COSH,
    EXP,
    SINH,
    OscillatorSpec,
    hamiltonian,
    per_term_eigenvalue_sum,
    truncated_series_state,
)
from bargmann.thermo import husimi_q

from conftest import states

Z0 = z_var(0)


def rayleigh(H, s):
    return inner_product(s, apply(H, s)) / inner_product(s, s)


class TestHamiltonian:
    def test_eigenvalues_exact_up_to_20(self):
        spec = OscillatorSpec(omega=1.0)
        H = hamiltonian(spec)
        for n in range(21):
            ket = MultiIndex({Z0: n}) if n else MultiIndex()
            out = apply(H, PolynomialState.monomial(ket))
            assert out.get(ket) == pytest.approx(n + 0.5, rel=1e-12)
            assert len(out) == 1

    def test_ground_state(self):
        spec = OscillatorSpec(omega=2.0, hbar=Fraction(1, 2))
        out = apply(hamiltonian(spec), PolynomialState.vacuum())
        assert out.get(MultiIndex()) == pytest.approx(0.5, rel=1e-14)  # hw/2 = 1/2

    def test_negated_first_excited_state(self):
        spec = OscillatorSpec()
        xi = PolynomialState.monomial({Z0: 1}, -1.0)
        out = apply(hamiltonian(spec), xi)
        assert out.get(MultiIndex({Z0: 1})) == pytest.approx(-1.5, rel=1e-14)
        assert rayleigh(hamiltonian(spec), xi) == pytest.approx(1.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorSpec(omega=0.0)
        with pytest.raises(ValueError):
            OscillatorSpec(hbar=Fraction(-1))


class TestTruncatedSeries:
    def test_exp_order_zero(self):
        s = truncated_series_state(EXP, 0)
        assert s == PolynomialState.vacuum()

    def test_sinh_amplitudes(self):
        s = truncated_series_state(SINH, 3)
        assert len(s) == 2
        assert s.get(MultiIndex({Z0: 1})) == pytest.approx(1.0)
        assert s.get(MultiIndex({Z0: 3})) == pytest.approx(1 / math.sqrt(6))

    def test_cosh_amplitudes(self):
        s = truncated_series_state(COSH, 4)
        assert sorted(m.get(Z0) for m, _ in s.items()) == [0, 2, 4]
        assert s.get(MultiIndex({Z0: 4})) == pytest.approx(1 / math.sqrt(24))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            truncated_series_state("tanh", 3)
        with pytest.raises(ValueError):
            truncated_series_state(EXP, -1)


class TestPerTermEigenvalueSums:
    def test_quoted_sequences_exact(self):
        spec = OscillatorSpec()
        assert per_term_eigenvalue_sum(EXP, 2, spec) == Fraction(9, 2)     # 1/2+3/2+5/2
        assert per_term_eigenvalue_sum(SINH, 3, spec) == Fraction(5)       # 3/2+7/2
        assert per_term_eigenvalue_sum(COSH, 0, spec) == Fraction(1, 2)

    def test_scales_with_quantum(self):
        spec = OscillatorSpec(omega=2.0, hbar=Fraction(3))
        assert per_term_eigenvalue_sum(EXP, 1, spec) == 6 * 2  # hw*(1/2+3/2)

    def test_each_term_is_an_eigenvalue(self):
        spec = OscillatorSpec()
        H = hamiltonian(spec)
        for kind, n_max in ((EXP, 5), (SINH, 7), (COSH, 6)):
            total = Fraction(0)
            for m, _ in truncated_series_state(kind, n_max).items():
                n = m.get(Z0)
                total += Fraction(2 * n + 1, 2)
                assert rayleigh(H, PolynomialState.monomial(m)) == pytest.approx(n + 0.5)
            assert per_term_eigenvalue_sum(kind, n_max, spec) == total


class TestSignAbsorption:
    @given(states(max_exponent=8, max_vars=1),
           st.complex_numbers(min_magnitude=0.1, max_magnitude=5,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=60)
    def test_rayleigh_quotient_scale_invariant(self, s, c):
        if not s:
            return
        H = hamiltonian(OscillatorSpec())
        q0 = rayleigh(H, s)
        q1 = rayleigh(H, s.scaled(c))
        assert abs(q0 - q1) <= 1e-12 * max(1.0, abs(q0))

    def test_alternating_series_term_by_term(self):
        # sin/cos signs (-1)^n leave each term's eigenvalue unchanged, so the
        # per-term sums coincide with sinh/cosh.
        H = hamiltonian(OscillatorSpec())
        for kind, n_max in ((SINH, 9), (COSH, 8)):
            plus = truncated_series_state(kind, n_max)
            for k, (m, amp) in enumerate(plus.items()):
                signed = PolynomialState.monomial(m, amp * (-1) ** k)
                unsigned = PolynomialState.monomial(m, amp)
                assert rayleigh(H, signed) == pytest.approx(rayleigh(H, unsigned), rel=1e-12)


def coherent_distance_bound(n: int, r: float) -> float:
    """A bound on |Q_n(z) - Q(z)| at |z| = r, for Q_n of the normalized partial sum
    psi_n = s_n / N_n of e^z up to z^n (s_n(z) = sum_{k<=n} z^k/k!, N_n^2 =
    sum_{k<=n} 1/k!) and Q = pi^-1 e^(-|z-1|^2) of the coherent state
    psi = e^(-1/2) e^z.  With pi Q_n - pi Q = e^(-r^2) (|psi_n| + |psi|)(|psi_n| - |psi|),
    |psi_n| <= e^r / N_n, |psi| <= e^(-1/2) e^r and
    |psi_n - psi| <= tail_n(r) / N_n + e^r |1/N_n - e^(-1/2)|, tail_n(r) = sum_{k>n} r^k/k!."""
    def tail(x):
        return math.fsum(x ** k / math.factorial(k) for k in range(n + 1, n + 120))
    N = math.sqrt(math.fsum(1 / math.factorial(k) for k in range(n + 1)))
    t = tail(1) / math.e                 # 1/N - e^(-1/2) = (1 - sqrt(1 - t)) / N, unrounded
    gap = t / (N * (1 + math.sqrt(1 - t)))
    return (math.exp(r - r * r) * (1 / N + math.exp(-0.5)) * (tail(r) / N + math.exp(r) * gap)
            / math.pi)


class TestUniformConvergence:
    """The series of e^z in the normalized monomials converges uniformly on compact
    domains: Q of its partial sums tends to Q of the coherent state at 1 on |z| <= 3."""

    def test_husimi_q_of_partial_sums_on_the_disk(self):
        grid = [r * np.exp(1j * phi) for r in np.linspace(0, 3, 31)
                for phi in np.linspace(0, 2 * np.pi, 48, endpoint=False)]
        sup = []
        for n in (4, 8, 12, 16, 20):
            state = truncated_series_state(EXP, n)
            qs = husimi_q(state.scaled(1 / state.norm()), [[z] for z in grid])
            errors = [abs(q - math.exp(-abs(z - 1) ** 2) / math.pi) for z, q in zip(grid, qs)]
            for z, e in zip(grid, errors):
                assert e <= coherent_distance_bound(n, abs(z)) * (1 + 1e-12) + 1e-15, (n, z, e)
            sup.append(max(errors))
        assert all(b < a for a, b in zip(sup, sup[1:])), sup
