import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bargmann.algebra import MultiIndex, PolynomialState, w_var, z_var
from bargmann.chain import ChainSpec, assemble_matrix, build_hamiltonian, sector_basis
from bargmann.dsl import parse
from bargmann.errors import DimensionTooLarge, NotHermitian, NotNormalized
from bargmann.thermo import (
    Spectrum,
    _components,
    eigensolve,
    husimi_q,
    partition_function,
    spectrum_to_json,
    thermo_sweep,
    thermo_to_csv,
    to_json,
)

Z0 = z_var(0)


def xxx2_spectrum():
    spec = ChainSpec(n_sites=2, spin=Fraction(1, 2), couplings=(1, 1, 1))
    M = assemble_matrix(build_hamiltonian(spec), sector_basis(spec))
    return eigensolve(M)


class TestEigensolve:
    def test_diagonal(self):
        s = eigensolve(np.diag([3.0, -1.0]))
        assert np.allclose(s.eigenvalues, [-1.0, 3.0])
        assert s.residual_bound <= 1e-12

    def test_swap_matrix(self):
        s = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(s.eigenvalues, [-1.0, 1.0])

    def test_xxx_anchor(self):
        s = xxx2_spectrum()
        assert np.allclose(s.eigenvalues, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            eigensolve(np.eye(5), max_dim=4)

    def test_ascending_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 0.0]))

    def test_residuals_and_trace_random(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 17, 40):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = (A + A.conj().T) / 2
            s = eigensolve(H)
            assert s.residual_bound <= 1e-8 * np.abs(H).max() * n
            trace = float(np.trace(H).real)
            assert s.eigenvalues.sum() == pytest.approx(trace, rel=1e-9, abs=1e-9)
            for k in range(n):
                v = s.eigenvectors[:, k]
                r = np.linalg.norm(H @ v - s.eigenvalues[k] * v)
                assert r <= s.residual_bound + 1e-15

    def test_zero_matrix(self):
        s = eigensolve(np.zeros((3, 3)))
        assert not s.eigenvalues.any()
        assert s.residual_bound == 0.0


def _chain_matrix(n, s, couplings, boundary="open", mode="compositional"):
    spec = ChainSpec(n_sites=n, spin=s, couplings=couplings, boundary=boundary, mode=mode)
    return assemble_matrix(build_hamiltonian(spec), sector_basis(spec))


def _complex_dsl_matrix():
    """i (z0 w1 dw0 dz1 - w0 z1 dz0 dw1) + z0 dz0 + w2 dw2 / 2 on three spin-1 sites."""
    op = parse("(0,1)*z[0]*w[1]*dw[0]*dz[1] + (0,-1)*w[0]*z[1]*dz[0]*dw[1]"
               " + z[0]*dz[0] + (1/2)*w[2]*dw[2]")
    spec = ChainSpec(n_sites=3, spin=Fraction(1), couplings=(0, 0, 0))
    return assemble_matrix(op, sector_basis(spec))


def _random_hermitian(n, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


BLOCKED_CASES = {
    "xxz": lambda: _chain_matrix(6, Fraction(1, 2), (1, 1, 0.5), "periodic"),
    "xyz": lambda: _chain_matrix(4, Fraction(1), (1, 0.7, 0.3)),
    "xxx": lambda: _chain_matrix(3, Fraction(3, 2), (1, 1, 1), "periodic"),
    "paper_literal": lambda: _chain_matrix(3, Fraction(1), (1.1, -0.7, 0.4), "periodic",
                                           "paper_literal"),
    "jx_eq_minus_jy": lambda: _chain_matrix(6, Fraction(1, 2), (1, -1, 0.5), "periodic"),
    "complex_dsl": _complex_dsl_matrix,
    "dense_random": lambda: _random_hermitian(30),
    "diagonal": lambda: np.diag(np.random.default_rng(5).normal(size=20)),
    "empty": lambda: np.zeros((0, 0)),
    "single": lambda: np.array([[2.5]]),
}


class TestBlockedEigensolve:
    """The blocked solve against np.linalg.eigvalsh of the full complex matrix."""

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_matches_unblocked(self, case):
        H = BLOCKED_CASES[case]()
        A = H.toarray() if hasattr(H, "toarray") else H
        A = np.asarray(A, dtype=np.complex128)
        n = A.shape[0]
        ref = np.linalg.eigvalsh(A)
        scale = np.abs(ref).max(initial=0.0)
        for vectors in (False, True):
            s = eigensolve(H, compute_vectors=vectors)
            assert s.eigenvalues.shape == (n,)
            assert np.abs(s.eigenvalues - ref).max(initial=0.0) <= 1e-12 * scale
        V = s.eigenvectors
        assert V.shape == (n, n)
        assert np.abs(V.conj().T @ V - np.eye(n)).max(initial=0.0) <= 1e-12
        residual = np.linalg.norm(A @ V - V * s.eigenvalues, axis=0)
        assert residual.max(initial=0.0) <= s.residual_bound + 1e-14 * np.abs(A).max(initial=0.0)

    def test_complex_case_is_complex(self):
        M = _complex_dsl_matrix()
        assert np.abs(M.toarray().imag).max() > 0
        assert np.iscomplexobj(eigensolve(M).eigenvectors)

    def test_block_counts(self):
        xyz = _chain_matrix(6, Fraction(1, 2), (1, -0.9, 0.5), "periodic").toarray()
        cancel = _chain_matrix(6, Fraction(1, 2), (1, -1, 0.5), "periodic").toarray()
        assert len(np.unique(_components(xyz))) == 2            # parity of total m
        assert len(np.unique(_components(cancel))) > 2
        assert len(np.unique(_components(_random_hermitian(30)))) == 1
        assert len(np.unique(_components(np.diag(np.arange(1.0, 21.0))))) == 20

    def test_one_sided_entry_within_tolerance_joins_blocks(self):
        H = np.diag([1.0, 2.0, 3.0, 4.0])
        H[0, 3] = 1e-12
        s = eigensolve(H)
        residual = np.linalg.norm(H @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
        assert residual.max() <= s.residual_bound + 1e-15
        assert s.residual_bound > 0


class TestBlockedGates:
    def test_asymmetry_inside_one_block(self):
        H = np.zeros((3, 3))
        H[:2, :2] = [[0.0, 1.0], [1.5, 0.0]]
        H[2, 2] = 2.0
        with pytest.raises(NotHermitian):
            eigensolve(H)

    def test_one_sided_entry_across_blocks(self):
        H = np.diag([1.0, 2.0, 3.0, 4.0])
        H[0, 3] = 0.5
        with pytest.raises(NotHermitian):
            eigensolve(H)

    def _shifted_eigh(self, monkeypatch, eps):
        real_eigh = np.linalg.eigh

        def eigh(a):
            w, v = real_eigh(a)
            return w + eps, v

        monkeypatch.setattr(np.linalg, "eigh", eigh)

    def test_residual_cap_uses_full_dimension_and_scale(self, monkeypatch):
        # eight 1x1 blocks; the cap is 1e-8 * 100 * 8 = 8e-6, while any one
        # block's own size and entry would give at most 1e-6
        H = np.diag([100.0, 1, 1, 1, 1, 1, 1, 1])
        self._shifted_eigh(monkeypatch, 5e-6)
        assert eigensolve(H).residual_bound == pytest.approx(5e-6)
        self._shifted_eigh(monkeypatch, 1e-5)
        with pytest.raises(RuntimeError, match="exceeds 8.000e-06"):
            eigensolve(H)


class TestPartitionFunction:
    def test_single_level(self):
        s = Spectrum(np.array([2.5]))
        for T in (0.1, 1.0, 1e4):
            p = partition_function(s, T)
            assert p.entropy == pytest.approx(0.0, abs=1e-12)
            assert p.free_energy == pytest.approx(2.5, rel=1e-12)
            assert p.mean_energy == pytest.approx(2.5, rel=1e-12)

    def test_two_levels_high_temperature(self):
        s = Spectrum(np.array([0.0, 1.0]))
        p = partition_function(s, 1e8)
        assert p.Z == pytest.approx(2.0, rel=1e-7)
        assert p.entropy == pytest.approx(math.log(2), rel=1e-6)

    def test_two_levels_closed_form(self):
        s = Spectrum(np.array([0.0, 1.0]))
        for T in (0.3, 1.0, 5.0):
            b = 1.0 / T
            z = 1 + math.exp(-b)
            p = partition_function(s, T)
            assert p.Z == pytest.approx(z, rel=1e-12)
            e = math.exp(-b) / z
            assert p.mean_energy == pytest.approx(e, rel=1e-12)
            assert p.free_energy == pytest.approx(-T * math.log(z), rel=1e-12)

    def test_xxx_anchor_at_t1(self):
        p = partition_function(xxx2_spectrum(), 1.0)
        want = math.exp(0.75) + 3 * math.exp(-0.25)
        assert p.Z == pytest.approx(want, rel=1e-12)

    def test_low_temperature_no_overflow(self):
        s = Spectrum(np.array([-5.0, 3.0]))
        p = partition_function(s, 1e-6)
        assert p.free_energy == pytest.approx(-5.0, rel=1e-12)
        assert p.entropy == pytest.approx(0.0, abs=1e-10)
        assert math.isinf(p.Z)  # honest float; F/S/E stay finite via the shift

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            partition_function(Spectrum(np.array([0.0])), 0.0)


class TestThermoSweep:
    def test_empty_grid(self):
        assert thermo_sweep(xxx2_spectrum(), []) == []

    def test_high_t_entropy_is_log_dim(self):
        s = xxx2_spectrum()
        (p,) = thermo_sweep(s, [1e6])
        assert abs(p.entropy - math.log(4)) <= 1e-6 * math.log(4)

    def test_low_t_entropy_vanishes(self):
        s = xxx2_spectrum()  # unique ground state
        (p,) = thermo_sweep(s, [0.001])
        assert 0 <= p.entropy <= 1e-3

    def test_entropy_monotone_nonnegative(self):
        s = xxx2_spectrum()
        grid = np.geomspace(1e-3, 1e6, 50)
        pts = thermo_sweep(s, grid)
        ent = [p.entropy for p in pts]
        assert all(e >= -1e-10 for e in ent)
        assert all(b >= a - 1e-12 for a, b in zip(ent, ent[1:]))

    def test_shift_invariance(self):
        s = xxx2_spectrum()
        shifted = Spectrum(s.eigenvalues + 7.25)
        for T in (0.5, 2.0, 100.0):
            p0 = partition_function(s, T)
            p1 = partition_function(shifted, T)
            assert p1.free_energy - p0.free_energy == pytest.approx(7.25, abs=1e-10)
            assert p1.entropy == pytest.approx(p0.entropy, abs=1e-10)

    def test_grid_validation(self):
        s = xxx2_spectrum()
        with pytest.raises(ValueError):
            thermo_sweep(s, [1.0, 0.5])
        with pytest.raises(ValueError):
            thermo_sweep(s, [-1.0])


class TestSerialization:
    def test_csv_shape(self):
        pts = thermo_sweep(xxx2_spectrum(), [1.0, 2.0])
        text = thermo_to_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "T,Z,F,S,E_mean"
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 5

    def test_csv_empty_grid_header_only(self):
        assert thermo_to_csv([]) == "T,Z,F,S,E_mean\n"

    def test_spectrum_json(self):
        import json
        s = xxx2_spectrum()
        obj = json.loads(spectrum_to_json(s))
        assert obj["eigenvalues"] == pytest.approx([-0.75, 0.25, 0.25, 0.25])
        assert obj["residual_bound"] >= 0

    def test_spectrum_json_non_finite_and_digits(self):
        import json
        s = Spectrum(np.array([-1.0 / 3.0, 2.0]), residual_bound=math.inf)
        text = spectrum_to_json(s)
        assert text == ('{"eigenvalues": [-3.3333333333333331e-01, 2.0000000000000000e+00], '
                        '"residual_bound": Infinity}\n')
        assert json.loads(text)["residual_bound"] == math.inf


class TestToJson:
    def test_non_finite_floats(self):
        assert to_json([math.inf, -math.inf, math.nan]) == "[Infinity, -Infinity, NaN]"

    def test_bool_int_and_float_are_distinct(self):
        assert to_json([True, False, 1, 0, 1.0, None]) == (
            "[true, false, 1, 0, 1.0000000000000000e+00, null]")
        assert to_json(np.float64(0.1)) == "1.0000000000000001e-01"

    def test_nested_containers(self):
        obj = {"a": [1, (2.5, "x")], "b": {"c": [], "d": {}}, 'q"': "\u00e9"}
        text = to_json(obj)
        assert text == ('{"a": [1, [2.5000000000000000e+00, "x"]], "b": {"c": [], "d": {}}, '
                        '"q\\"": "\\u00e9"}')
        assert json.loads(text) == {"a": [1, [2.5, "x"]], "b": {"c": [], "d": {}},
                                    'q"': "\u00e9"}


class TestHusimi:
    def test_vacuum_at_origin(self):
        (q,) = husimi_q(PolynomialState.vacuum(), [[0j]], variables=[Z0])
        assert q == pytest.approx(1 / math.pi, rel=1e-12)

    def test_vacuum_on_unit_circle(self):
        (q,) = husimi_q(PolynomialState.vacuum(), [[1j]], variables=[Z0])
        assert q == pytest.approx(math.exp(-1) / math.pi, rel=1e-12)

    def test_first_excited_at_one(self):
        state = PolynomialState.monomial({Z0: 1})
        (q,) = husimi_q(state, [[1.0 + 0j]])
        assert q == pytest.approx(math.exp(-1) / math.pi, rel=1e-12)

    def test_nonnegative_on_grid(self):
        amp = 1 / math.sqrt(2)
        state = PolynomialState({MultiIndex({Z0: 1}): amp, MultiIndex({Z0: 3}): amp})
        grid = [[complex(x, y)] for x in np.linspace(-2, 2, 9)
                for y in np.linspace(-2, 2, 9)]
        qs = husimi_q(state, grid)
        assert all(q >= 0 for q in qs)

    def test_two_mode_point_shape(self):
        amp = 1 / math.sqrt(2)
        state = PolynomialState({MultiIndex({Z0: 1}): amp,
                                 MultiIndex({w_var(0): 1}): amp})
        (q,) = husimi_q(state, [[0.5 + 0j, -0.25j]])
        assert q >= 0
        with pytest.raises(ValueError):
            husimi_q(state, [[0.5 + 0j]])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            husimi_q(PolynomialState.monomial({Z0: 1}, 2.0), [[0j]])

    def test_variables_must_cover_state(self):
        state = PolynomialState.monomial({Z0: 1})
        with pytest.raises(ValueError):
            husimi_q(state, [[0j]], variables=[w_var(0)])

    def test_monte_carlo_normalization(self):
        # E_p[|psi|^2] = 1 under the proposal p = pi^-1 exp(-|z|^2), i.e.
        # Re/Im ~ N(0, 1/2); estimator stays within 3 standard errors.
        rng = np.random.default_rng(20260808)
        n = 10**5
        z = rng.normal(scale=math.sqrt(0.5), size=n) + \
            1j * rng.normal(scale=math.sqrt(0.5), size=n)
        amps = np.array([0.5, -0.5j, math.sqrt(0.5)])
        state = PolynomialState({MultiIndex({Z0: 1}): amps[0],
                                 MultiIndex({Z0: 2}): amps[1],
                                 MultiIndex({Z0: 4}): amps[2]})
        psi = (amps[0] * z / math.sqrt(1) + amps[1] * z**2 / math.sqrt(2)
               + amps[2] * z**4 / math.sqrt(24))
        w = np.abs(psi) ** 2
        est = w.mean()
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(est - 1.0) <= 3 * se
        # and the same quantity through husimi_q: Q / p = |psi|^2
        pts = [[zz] for zz in z[:200]]
        qs = np.array(husimi_q(state, pts))
        p = np.exp(-np.abs(z[:200]) ** 2) / math.pi
        assert np.allclose(qs, w[:200] * p, rtol=1e-10)
