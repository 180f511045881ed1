"""Exact output bytes of the CLI on a spin-1/2 two-site chain, and of
`basis` on two-site chains of spin 0, 1 and 3/2.

The chain couples only S^z S^z, so its sector matrix and the oracle's are
diagonal and every eigenvalue, residual and Boltzmann weight below is exact;
the strings pin the serialization, not the last bit of a LAPACK call.
"""

import json

import pytest

from bargmann import cli


@pytest.fixture
def files(tmp_path):
    spec = {"n_sites": 2, "spin": "1/2", "jx": 0.0, "jy": 0.0, "jz": 1.0,
            "boundary": "open", "hbar": 1, "mode": "compositional"}
    state = {"amplitudes": [{"monomial": "z[0]", "re": 0.6},
                            {"monomial": "w[0]", "re": 0.0, "im": 0.8}]}
    points = {"points": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, -0.5], [0.0, 1.0]]],
              "variables": ["z[0]", "w[0]"]}
    out = {}
    for name, obj in (("spec", spec), ("state", state), ("points", points)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        out[name] = str(path)
    return out


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diag_json(files, capsys):
    assert run(capsys, ["diag", "--spec", files["spec"]]) == (0, (
        '{"eigenvalues": [-2.5000000000000000e-01, -2.5000000000000000e-01, '
        '2.5000000000000000e-01, 2.5000000000000000e-01], '
        '"residual_bound": 0.0000000000000000e+00}\n'), "")


def test_diag_csv(files, capsys):
    assert run(capsys, ["diag", "--spec", files["spec"], "--format", "csv"]) == (0, (
        "index,eigenvalue\n"
        "0,-2.50000000000e-01\n"
        "1,-2.50000000000e-01\n"
        "2,2.50000000000e-01\n"
        "3,2.50000000000e-01\n"), "")


def test_thermo_csv(files, capsys):
    # Z = e^2500 overflows at T = 1e-4 and is written as inf
    assert run(capsys, ["thermo", "--spec", files["spec"], "--temps", "1e-4,0.5,2"]) == (0, (
        "T,Z,F,S,E_mean\n"
        "1.00000000000e-04,inf,-2.50069314718e-01,6.93147180560e-01,-2.50000000000e-01\n"
        "5.00000000000e-01,4.51050386083e+00,-7.53204434039e-01,"
        "1.27535028945e+00,-1.15529289315e-01\n"
        "2.00000000000e+00,4.03129071130e+00,-2.78817320088e+00,"
        "1.37854247522e+00,-3.10882504429e-02\n"), "")


def test_thermo_json(files, capsys):
    argv = ["thermo", "--spec", files["spec"], "--temps", "1e-4,1e-3", "--format", "json"]
    assert run(capsys, argv) == (0, (
        '{"points": [{"T": 1.0000000000000000e-04, "Z": Infinity, '
        '"F": -2.5006931471805599e-01, "S": 6.9314718055994529e-01, '
        '"E_mean": -2.5000000000000000e-01}, '
        '{"T": 1.0000000000000000e-03, "Z": 7.4929092290053603e+108, '
        '"F": -2.5069314718055996e-01, "S": 6.9314718055994529e-01, '
        '"E_mean": -2.5000000000000000e-01}]}\n'), "")


def test_thermo_empty_grid(files, capsys):
    spec = files["spec"]
    assert run(capsys, ["thermo", "--spec", spec, "--temps", "", "--format", "json"]) \
        == (0, '{"points": []}\n', "")
    assert run(capsys, ["thermo", "--spec", spec, "--temps", ""]) == (0, "T,Z,F,S,E_mean\n", "")


def test_verify_paper_literal_random_trial(files, capsys):
    argv = ["verify", "--spec", files["spec"], "--mode", "paper_literal", "--random-trials", "1"]
    assert run(capsys, argv) == (1, (
        '{"dimension": 4, "tol": 1.0000000000000001e-09, '
        '"max_abs_diff": 2.5000000000000000e-01, "passed": false, "mode": "paper_literal", '
        '"worst": [[0, -5.0000000000000000e-01, -2.5000000000000000e-01, 2.5000000000000000e-01], '
        '[1, 0.0000000000000000e+00, -2.5000000000000000e-01, 2.5000000000000000e-01], '
        '[2, 2.5000000000000000e-01, 2.5000000000000000e-01, 0.0000000000000000e+00], '
        '[3, 2.5000000000000000e-01, 2.5000000000000000e-01, 0.0000000000000000e+00]], '
        '"term_difference": ["(1/4,0) * z[0] * w[1] * dz[0] * dw[1]", '
        '"(-1/4,0) * w[0] * z[1] * dw[0] * dz[1]"], '
        '"random_trials": [{"trial": 0, "couplings": [1.9854900000000000e+00, '
        '1.5392800000000000e+00, -3.5680699999999999e-01], '
        '"max_abs_diff": 4.5033700701457846e-03, "passed": false}]}\n'), "")


def test_apply_expect(files, capsys):
    argv = ["apply", "--operator", "z[0]*dz[0]", "--state", files["state"], "--expect"]
    assert run(capsys, argv) == (0, (
        '{"state": {"amplitudes": [{"monomial": "z[0]", "re": 5.9999999999999998e-01, '
        '"im": 0.0000000000000000e+00}]}, '
        '"expectation": {"re": 3.5999999999999999e-01, "im": 0.0000000000000000e+00}}\n'), "")


def test_husimi(files, capsys):
    argv = ["husimi", "--state", files["state"], "--points", files["points"]]
    assert run(capsys, argv) == (0, "[2.3855347466990275e-02, 7.6866560570647150e-03]\n", "")


BASIS = {
    "0": "0: 1 | (j=0, m=0) (j=0, m=0) | total_m = 0\n",
    "1": (
        "0: w[0]^2 * w[1]^2 | (j=1, m=-1) (j=1, m=-1) | total_m = -2\n"
        "1: w[0]^2 * z[1] * w[1] | (j=1, m=-1) (j=1, m=0) | total_m = -1\n"
        "2: w[0]^2 * z[1]^2 | (j=1, m=-1) (j=1, m=1) | total_m = 0\n"
        "3: z[0] * w[0] * w[1]^2 | (j=1, m=0) (j=1, m=-1) | total_m = -1\n"
        "4: z[0] * w[0] * z[1] * w[1] | (j=1, m=0) (j=1, m=0) | total_m = 0\n"
        "5: z[0] * w[0] * z[1]^2 | (j=1, m=0) (j=1, m=1) | total_m = 1\n"
        "6: z[0]^2 * w[1]^2 | (j=1, m=1) (j=1, m=-1) | total_m = 0\n"
        "7: z[0]^2 * z[1] * w[1] | (j=1, m=1) (j=1, m=0) | total_m = 1\n"
        "8: z[0]^2 * z[1]^2 | (j=1, m=1) (j=1, m=1) | total_m = 2\n"),
    "3/2": (
        "0: w[0]^3 * w[1]^3 | (j=3/2, m=-3/2) (j=3/2, m=-3/2) | total_m = -3\n"
        "1: w[0]^3 * z[1] * w[1]^2 | (j=3/2, m=-3/2) (j=3/2, m=-1/2) | total_m = -2\n"
        "2: w[0]^3 * z[1]^2 * w[1] | (j=3/2, m=-3/2) (j=3/2, m=1/2) | total_m = -1\n"
        "3: w[0]^3 * z[1]^3 | (j=3/2, m=-3/2) (j=3/2, m=3/2) | total_m = 0\n"
        "4: z[0] * w[0]^2 * w[1]^3 | (j=3/2, m=-1/2) (j=3/2, m=-3/2) | total_m = -2\n"
        "5: z[0] * w[0]^2 * z[1] * w[1]^2 | (j=3/2, m=-1/2) (j=3/2, m=-1/2) | total_m = -1\n"
        "6: z[0] * w[0]^2 * z[1]^2 * w[1] | (j=3/2, m=-1/2) (j=3/2, m=1/2) | total_m = 0\n"
        "7: z[0] * w[0]^2 * z[1]^3 | (j=3/2, m=-1/2) (j=3/2, m=3/2) | total_m = 1\n"
        "8: z[0]^2 * w[0] * w[1]^3 | (j=3/2, m=1/2) (j=3/2, m=-3/2) | total_m = -1\n"
        "9: z[0]^2 * w[0] * z[1] * w[1]^2 | (j=3/2, m=1/2) (j=3/2, m=-1/2) | total_m = 0\n"
        "10: z[0]^2 * w[0] * z[1]^2 * w[1] | (j=3/2, m=1/2) (j=3/2, m=1/2) | total_m = 1\n"
        "11: z[0]^2 * w[0] * z[1]^3 | (j=3/2, m=1/2) (j=3/2, m=3/2) | total_m = 2\n"
        "12: z[0]^3 * w[1]^3 | (j=3/2, m=3/2) (j=3/2, m=-3/2) | total_m = 0\n"
        "13: z[0]^3 * z[1] * w[1]^2 | (j=3/2, m=3/2) (j=3/2, m=-1/2) | total_m = 1\n"
        "14: z[0]^3 * z[1]^2 * w[1] | (j=3/2, m=3/2) (j=3/2, m=1/2) | total_m = 2\n"
        "15: z[0]^3 * z[1]^3 | (j=3/2, m=3/2) (j=3/2, m=3/2) | total_m = 3\n"),
}


@pytest.mark.parametrize("spin", sorted(BASIS))
def test_basis(spin, tmp_path, capsys):
    # spin 0 lists the empty monomial "1"; spin 1 and 3/2 give ^e exponents,
    # integer and fractional m, and every total_m from -2s to 2s
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n_sites": 2, "spin": spin, "jx": 1, "jy": 1, "jz": 1}))
    assert run(capsys, ["basis", "--spec", str(path)]) == (0, BASIS[spin], "")
