"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not configurable.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bargmann import cli
from bargmann.algebra import (
    MultiIndex,
    OperatorPolynomial,
    PolynomialState,
    RationalComplex,
    apply,
    commutator,
    matrix_element,
    w_var,
    z_var,
)
from bargmann.angular import j_operator, jm_label, multiplet_states, total_operator
from bargmann.chain import (
    OPEN,
    PERIODIC,
    ChainSpec,
    chain_matrix,
    solve,
)
from bargmann.dsl import ParseError, format_operator, parse
from bargmann.oracle import basis_isomorphism, compare_spectra, oracle_hamiltonian
from bargmann.oscillator import (
    COSH,
    EXP,
    SINH,
    OscillatorSpec,
    hamiltonian,
    per_term_eigenvalue_sum,
)
from bargmann.thermo import Spectrum, eigensolve, husimi_q, partition_function, thermo_sweep

from conftest import operator_polys
from reference import states

Z0, W0 = z_var(0), w_var(0)


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_01_exact_operator_identities():
    t0 = time.monotonic()
    i = RationalComplex(0, 1)
    for n in (1, 2, 3, 4):
        sites = list(range(n))
        j1, j2, j3 = (total_operator(k, sites) for k in "xyz")
        assert commutator(j1, j2) == j3.scaled(i)
        assert commutator(j2, j3) == j1.scaled(i)
        assert commutator(j3, j1) == j2.scaled(i)
        jsq = total_operator("squared", sites)
        for c in (j1, j2, j3):
            assert commutator(c, jsq).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(1, "exact SU(2) commutators, single sites and totals N<=4")


def test_criterion_02_matrix_element_closed_forms():
    t0 = time.monotonic()
    ops = {k: j_operator(0, k) for k in ("x", "y", "z", "+", "-", "squared")}

    def elem(op, ap, bp, a, b):
        return matrix_element(MultiIndex({Z0: ap, W0: bp}), op,
                              MultiIndex({Z0: a, W0: b}))

    for a in range(9):
        for b in range(9):
            assert abs(elem(ops["z"], a, b, a, b) - (a - b) / 2) <= 1e-12
            j = (a + b) / 2
            assert abs(elem(ops["squared"], a, b, a, b) - j * (j + 1)) <= 1e-12 * max(1, j * (j + 1))
            up = math.sqrt((a + 1) * b)
            dn = math.sqrt(a * (b + 1))
            if b >= 1:
                assert abs(elem(ops["+"], a + 1, b - 1, a, b) - up) <= 1e-12 * max(1, up)
                assert abs(elem(ops["x"], a + 1, b - 1, a, b) - up / 2) <= 1e-12 * max(1, up)
                assert abs(elem(ops["y"], a + 1, b - 1, a, b) - up / 2j) <= 1e-12 * max(1, up)
            if a >= 1:
                assert abs(elem(ops["-"], a - 1, b + 1, a, b) - dn) <= 1e-12 * max(1, dn)
                assert abs(elem(ops["x"], a - 1, b + 1, a, b) - dn / 2) <= 1e-12 * max(1, dn)
                assert abs(elem(ops["y"], a - 1, b + 1, a, b) + dn / 2j) <= 1e-12 * max(1, dn)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(2, "five closed-form matrix elements, 0<=alpha,beta<=8, 1e-12")


def test_criterion_03_oscillator_spectrum_and_sums():
    spec = OscillatorSpec(omega=1.0, hbar=Fraction(1))
    H = hamiltonian(spec)
    for n in range(21):
        ket = MultiIndex({Z0: n}) if n else MultiIndex()
        got = matrix_element(ket, H, ket)
        assert abs(got - (n + 0.5)) <= 1e-12 * (n + 0.5)
    xi = PolynomialState.monomial({Z0: 1}, -1.0)
    out = apply(H, xi)
    assert abs(out.get(MultiIndex({Z0: 1})) + 1.5) <= 1e-12  # (3/2) * (-z)

    assert per_term_eigenvalue_sum(EXP, 2, spec) == Fraction(9, 2)
    assert per_term_eigenvalue_sum(EXP, 4, spec) == Fraction(25, 2)
    assert per_term_eigenvalue_sum(SINH, 3, spec) == Fraction(5)
    assert per_term_eigenvalue_sum(SINH, 5, spec) == Fraction(21, 2)
    assert per_term_eigenvalue_sum(COSH, 0, spec) == Fraction(1, 2)
    assert per_term_eigenvalue_sum(COSH, 4, spec) == Fraction(15, 2)
    _report(3, "oscillator eigenvalues n<=20 and exact per-term sums")


def test_criterion_04_j1_multiplet():
    states = multiplet_states(1)
    assert states == [MultiIndex({Z0: 2}), MultiIndex({Z0: 1, W0: 1}), MultiIndex({W0: 2})]
    ms = [jm_label(m.get(Z0), m.get(W0)).m for m in states]
    assert ms == [1, 0, -1]
    assert all(jm_label(m.get(Z0), m.get(W0)).j == 1 for m in states)
    _report(4, "j=1 multiplet {z^2/sqrt2, zw, w^2/sqrt2} with m = {1,0,-1}")


def _spectra_pair(spec: ChainSpec):
    return solve(spec), eigensolve(oracle_hamiltonian(spec), compute_vectors=False)


def test_criterion_05_spectrum_equivalence():
    t0 = time.monotonic()
    half, one = Fraction(1, 2), Fraction(1)

    # anchor case
    anchor = ChainSpec(n_sites=2, spin=half, couplings=(1, 1, 1))
    sb, so = _spectra_pair(anchor)
    assert np.abs(sb.eigenvalues - np.array([-0.75, 0.25, 0.25, 0.25])).max() <= 1e-9
    assert compare_spectra(sb, so, 1e-9).passed

    # isotropic chains across the whole size range, both boundaries
    configs = [(half, n) for n in range(2, 9)] + [(one, n) for n in range(2, 5)]
    for (s, n), boundary in itertools.product(configs, (OPEN, PERIODIC)):
        spec = ChainSpec(n_sites=n, spin=s, couplings=(1, 1, 1), boundary=boundary)
        rep = compare_spectra(*_spectra_pair(spec), 1e-9)
        assert rep.passed, f"XXX {boundary} N={n} s={s}: {rep}"

    # 20 random-coupling XYZ cases cycling through sizes and boundaries
    cycle = [(half, 8, OPEN), (half, 8, PERIODIC), (half, 7, OPEN),
             (half, 6, PERIODIC), (one, 4, OPEN), (one, 4, PERIODIC),
             (half, 5, OPEN), (one, 3, PERIODIC), (half, 4, OPEN),
             (one, 2, PERIODIC)]
    rng = random.Random(20260808)
    for k in range(20):
        s, n, boundary = cycle[k % len(cycle)]
        couplings = tuple(round(rng.uniform(-2.0, 2.0), 6) for _ in range(3))
        spec = ChainSpec(n_sites=n, spin=s, couplings=couplings, boundary=boundary)
        rep = compare_spectra(*_spectra_pair(spec), 1e-9)
        assert rep.passed, f"XYZ seed {k} {boundary} N={n} s={s} J={couplings}: {rep}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(5, f"spectra vs oracle <= 1e-9 over 40 chains ({elapsed:.1f}s)")


def test_criterion_06_entrywise_agreement():
    for s in (Fraction(1, 2), Fraction(1)):
        spec = ChainSpec(n_sites=2, spin=s, couplings=(0.9, -1.4, 0.6))
        M = chain_matrix(spec).toarray()
        Ho = oracle_hamiltonian(spec)
        perm = [basis_isomorphism(m, s, 2) for m in states(spec)]
        P = np.zeros_like(Ho)
        for i, p in enumerate(perm):
            P[p, i] = 1.0
        assert np.abs(P @ M @ P.T - Ho).max() <= 1e-10
    _report(6, "entry-wise sector/oracle agreement, N=2, s in {1/2, 1}")


def test_criterion_07_thermodynamics():
    spec = ChainSpec(n_sites=3, spin=Fraction(1, 2), couplings=(1, 1, 1),
                     boundary=PERIODIC)
    M = chain_matrix(spec)
    s = eigensolve(M, compute_vectors=False)
    h_max = np.abs(M.toarray()).max()
    dim = len(s)

    p_hot = partition_function(s, 1e6 * h_max)
    assert abs(p_hot.entropy - math.log(dim)) <= 1e-6 * math.log(dim)

    grid = np.geomspace(1e-2 * h_max, 1e6 * h_max, 50)
    pts = thermo_sweep(s, grid)
    entropies = [p.entropy for p in pts]
    assert all(e >= -1e-10 for e in entropies)
    assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))

    shifted = Spectrum(s.eigenvalues + 3.5)
    for T in (0.1 * h_max, h_max, 100 * h_max):
        p0 = partition_function(s, T)
        p1 = partition_function(shifted, T)
        assert abs((p1.free_energy - p0.free_energy) - 3.5) <= 1e-10
        assert abs(p1.entropy - p0.entropy) <= 1e-10
    _report(7, "entropy limits, monotonicity, and shift invariance")


def test_criterion_08_parser_roundtrip_and_fuzz():
    # 1000 randomized operators through format -> parse
    from hypothesis import HealthCheck, given, settings, seed

    @seed(20260808)
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(operator_polys(max_terms=4, max_exponent=5, max_vars=4))
    def roundtrip(A):
        assert parse(format_operator(A)) == A

    roundtrip()

    rng = random.Random(1729)
    crashes = 0
    for _ in range(10_000):
        n = rng.randrange(0, 257)
        text = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        try:
            parse(text)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    _report(8, "1000-case round-trip and 10^4-input fuzz totality")


def test_criterion_09_literal_mode_diagnostic(tmp_path, capsys):
    spec = {"n_sites": 2, "spin": "1/2", "jx": 1.0, "jy": 1.0, "jz": 1.0,
            "boundary": "open", "hbar": 1, "mode": "paper_literal"}
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(spec))
    code = cli.main(["verify", "--spec", str(p)])
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert "term_difference" in obj  # report generated, empty or not as found
    assert isinstance(obj["term_difference"], list)
    # as found: the merged z-coupling line leaves two unmatched terms per bond
    assert len(obj["term_difference"]) == 2
    assert code in (0, 1)  # adjudicated mechanically; compositional path is criterion 5
    _report(9, f"literal-mode term-difference report ({len(obj['term_difference'])} terms)")


def test_criterion_10_husimi():
    # vacuum value at the origin
    (q0,) = husimi_q(PolynomialState.vacuum(), [[0j]], variables=[Z0])
    assert abs(q0 - 1 / math.pi) <= 1e-12

    # non-negativity wherever evaluated
    amp = 1 / math.sqrt(3)
    state = PolynomialState({MultiIndex({Z0: 1}): amp,
                             MultiIndex({Z0: 2}): 1j * amp,
                             MultiIndex({Z0: 4}): -amp})
    grid = [[complex(x, y)] for x in np.linspace(-2.5, 2.5, 11)
            for y in np.linspace(-2.5, 2.5, 11)]
    assert all(q >= 0 for q in husimi_q(state, grid))

    # Monte-Carlo normalization within 3 standard errors at 1e5 samples:
    # with proposal p = pi^-1 exp(-|z|^2) the integrand ratio Q/p is |psi|^2.
    rng = np.random.default_rng(20260808)
    n = 10**5
    z = rng.normal(scale=math.sqrt(0.5), size=n) + \
        1j * rng.normal(scale=math.sqrt(0.5), size=n)
    for amps in ([1.0, 0, 0, 0, 0], [0, 0, 0, 0, 1.0],
                 [0.5, 0.5, 0.5, 0.5, 0.0], [0.6, 0, -0.64j, 0, 0.48]):
        amps = np.asarray(amps, dtype=complex)
        amps = amps / np.linalg.norm(amps)
        psi = sum(amps[k] * z**k / math.sqrt(math.factorial(k)) for k in range(5))
        w = np.abs(psi) ** 2
        est, se = w.mean(), w.std(ddof=1) / math.sqrt(n)
        assert abs(est - 1.0) <= 3 * se, f"amps {amps}: {est} +- {se}"
    _report(10, "Husimi-Q positivity, origin value, MC normalization")
