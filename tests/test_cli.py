import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bargmann import cli
from bargmann.algebra import single_term, z_var
from bargmann.chain import ChainSpec
from bargmann.dsl import format_monomial

from reference import site_magnetization, states, total_magnetization

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_spec(tmp_path, **overrides):
    spec = {"n_sites": 2, "spin": "1/2", "jx": 1.0, "jy": 1.0, "jz": 1.0,
            "boundary": "open", "hbar": 1, "mode": "compositional"}
    spec.update(overrides)
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(spec))
    return str(p)


def write_state(tmp_path, entries, name="state.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"amplitudes": entries}))
    return str(p)


# `python -m bargmann.cli` with every import of scipy failing
SCIPY_BLOCKED = ("import sys; sys.modules['scipy'] = None; "
                 "from bargmann import cli; sys.exit(cli.main(sys.argv[1:]))")


def run_cli(args, scipy_blocked=False):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    head = ["-c", SCIPY_BLOCKED] if scipy_blocked else ["-m", "bargmann.cli"]
    return subprocess.run([sys.executable, *head, *args], env=env, capture_output=True)


def reference_basis_listing(spec):
    """The `basis` text built state by state, as before the digit tables."""
    lines = []
    for i, m in enumerate(states(spec)):
        per_site = " ".join(f"(j={spec.spin}, m={site_magnetization(m, site)})"
                            for site in range(spec.n_sites))
        lines.append(f"{i}: {format_monomial(m)} | {per_site} | "
                     f"total_m = {total_magnetization(m, spec.n_sites)}")
    return "\n".join(lines) + "\n"


class TestBasis:
    @pytest.mark.parametrize("twos", range(5))
    def test_digit_tables_match_per_state_reference(self, tmp_path, capsys, twos):
        for n in range(1, 6):
            spec = write_spec(tmp_path, n_sites=n, spin=str(Fraction(twos, 2)))
            assert cli.main(["basis", "--spec", spec]) == 0
            assert capsys.readouterr() == (reference_basis_listing(ChainSpec.from_file(spec)), "")

    def test_spin_one_single_site(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_sites=1, spin="1")
        assert cli.main(["basis", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("0: w[0]^2")
        assert lines[1].startswith("1: z[0] * w[0]")
        assert lines[2].startswith("2: z[0]^2")

    def test_spin_zero_single_site(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_sites=1, spin="0")
        assert cli.main(["basis", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["0: 1 | (j=0, m=0) | total_m = 0"]

    def test_three_sites_order(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_sites=3)
        assert cli.main(["basis", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 8
        assert lines[0].split("|")[0].strip() == "0: w[0] * w[1] * w[2]"
        assert lines[7].split("|")[0].strip() == "7: z[0] * z[1] * z[2]"

    def test_dimension_cap_exit_3_before_building_states(self, tmp_path, capsys, monkeypatch):
        def fail(spec):
            raise AssertionError("basis built before the dimension check")

        monkeypatch.setattr(cli, "format_monomial", fail)
        spec = write_spec(tmp_path, n_sites=40)
        assert cli.main(["basis", "--spec", spec]) == 3
        assert capsys.readouterr() == ("", "error: dimension 1099511627776 exceeds cap 8192\n")
        monkeypatch.setenv("BARGMANN_MAX_DIM", "4")
        assert cli.main(["basis", "--spec", write_spec(tmp_path, n_sites=3)]) == 3
        monkeypatch.undo()
        monkeypatch.setenv("BARGMANN_MAX_DIM", "8")
        assert cli.main(["basis", "--spec", write_spec(tmp_path, n_sites=3)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 8


class TestDiag:
    def test_spectrum_json(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["diag", "--spec", spec]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["eigenvalues"] == pytest.approx([-0.75, 0.25, 0.25, 0.25])

    def test_zero_couplings(self, tmp_path, capsys):
        spec = write_spec(tmp_path, jx=0.0, jy=0.0, jz=0.0)
        assert cli.main(["diag", "--spec", spec]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["eigenvalues"] == [0.0, 0.0, 0.0, 0.0]

    def test_csv_format(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["diag", "--spec", spec, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5

    def test_out_file(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "spectrum.json"
        assert cli.main(["diag", "--spec", spec, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residual_bound"] >= 0

    def test_dimension_cap_exit_3(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, n_sites=16)
        assert cli.main(["diag", "--spec", spec]) == 3
        # env var override shrinks the cap below a tiny chain
        monkeypatch.setenv("BARGMANN_MAX_DIM", "2")
        small = write_spec(tmp_path, n_sites=2)
        assert cli.main(["diag", "--spec", small]) == 3

    def test_malformed_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["diag", "--spec", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"n_sites": 2}))
        assert cli.main(["diag", "--spec", str(missing)]) == 2
        assert cli.main(["diag", "--spec", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("n_sites", [2.7, True])
    def test_non_integer_n_sites_exit_2(self, tmp_path, capsys, n_sites):
        spec = write_spec(tmp_path, n_sites=n_sites)
        assert cli.main(["diag", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n_sites must be an integer, got {n_sites!r}\n"

    @pytest.mark.parametrize("field", ["spin", "jx", "jy", "jz", "hbar"])
    def test_boolean_number_field_exit_2(self, tmp_path, capsys, field):
        spec = write_spec(tmp_path, **{field: True})
        assert cli.main(["diag", "--spec", spec]) == 2
        assert capsys.readouterr() == ("", f"error: {field} must be a number, got True\n")

    @pytest.mark.parametrize("command", [["diag"], ["thermo", "--temps", "1"], ["verify"]])
    def test_overflowing_matrix_element_exit_2(self, tmp_path, capsys, command):
        # each S^z S^z amplitude is finite; the diagonal sums of three bonds are not
        spec = write_spec(tmp_path, n_sites=3, jx=0, jy=0, jz=1.7e308, hbar="19/10",
                          boundary="periodic")
        assert cli.main([*command, "--spec", spec]) == 2
        assert capsys.readouterr() == (
            "", "error: a summed matrix element is beyond the float range\n")

    @pytest.mark.parametrize("field,text,shown", [
        ("spin", "Infinity", "inf"), ("hbar", "1e400", "inf"),
        ("spin", '"1/0"', "'1/0'"), ("hbar", '"1/0"', "'1/0'")])
    def test_infinite_or_zero_denominator_exact_number_exit_2(self, tmp_path, capsys,
                                                               field, text, shown):
        spec = json.loads(Path(write_spec(tmp_path)).read_text())
        spec[field] = "@"
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(spec).replace('"@"', text))
        assert cli.main(["diag", "--spec", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {field} must be a finite number, "
                                           f"got {shown}\n")

    @pytest.mark.parametrize("command", [["diag"], ["verify"]])
    @pytest.mark.parametrize("field", ["jx", "jy", "jz"])
    def test_coupling_beyond_float_range_exit_2(self, tmp_path, capsys, command, field):
        path = tmp_path / "chain.json"
        path.write_text(Path(write_spec(tmp_path)).read_text()
                        .replace(f'"{field}": 1.0', f'"{field}": 1{"0" * 399}'))
        assert cli.main([*command, "--spec", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {field} must be a finite number, got one "
                                           f"beyond the float range\n")

    def test_bond_amplitude_overflow_exit_2(self, tmp_path, capsys, cold_bond_tables):
        # hbar^2 / 4 is beyond the float range, so a term of the unit bond is too
        assert cli.main(["diag", "--spec", write_spec(tmp_path, hbar=10 ** 200)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: amplitude of a term acting on")
        assert err.endswith("is beyond the float range\n")

    def test_sector_violation_exit_4(self, tmp_path, monkeypatch, cold_bond_tables):
        # the bond tables are filled from the patched bond
        import bargmann.chain as chainmod
        spec = write_spec(tmp_path)
        monkeypatch.setattr(chainmod, "_bond",
                            lambda couplings, hbar, mode: single_term(1, {z_var(0): 1}, {}))
        assert cli.main(["diag", "--spec", spec]) == 4


class TestThermo:
    def test_single_site_entropy_ln2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_sites=1)
        assert cli.main(["thermo", "--spec", spec, "--temps", "0.5,1,2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "T,Z,F,S,E_mean"
        for row in lines[1:]:
            s_col = float(row.split(",")[3])
            assert s_col == pytest.approx(math.log(2), rel=1e-9)

    def test_high_t_log_dim(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, "--temps", "1e6"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert float(row.split(",")[3]) == pytest.approx(math.log(4), rel=1e-6)

    def test_empty_grid_header_only(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, "--temps", ""]) == 0
        assert capsys.readouterr().out == "T,Z,F,S,E_mean\n"

    def test_log_grid(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, "--tmin", "0.1", "--tmax", "10",
                         "--tpoints", "5"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 6

    def test_nonpositive_temperature_exit_2(self, tmp_path):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, "--temps", "1,-2"]) == 2
        assert cli.main(["thermo", "--spec", spec, "--temps", "0"]) == 2

    def test_nonpositive_log_grid_end_exit_2_without_numpy_warning(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, "--tmin=-1", "--tmax", "10"]) == 2
        assert capsys.readouterr() == ("", "error: temperatures must be positive\n")

    @pytest.mark.parametrize("grid", [["--temps", "1,inf"], ["--temps", "inf"],
                                      ["--tmin", "1", "--tmax", "inf"],
                                      ["--tmin", "inf", "--tmax", "1e300"]])
    def test_infinite_temperature_exit_2(self, tmp_path, capsys, grid):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, *grid]) == 2
        assert capsys.readouterr() == ("", "error: temperatures must be finite\n")

    @pytest.mark.parametrize("grid", [["--temps", "abc"], ["--temps", "1,-2"],
                                      ["--tmin", "1"], ["--tmin", "1", "--tmax", "2",
                                                        "--tpoints", "0"]])
    def test_bad_grid_exit_2_before_solving(self, tmp_path, capsys, monkeypatch, grid):
        import bargmann.cli as climod

        def fail(*args):
            raise AssertionError("solve called before the grid was checked")

        monkeypatch.setattr(climod, "solve", fail)
        spec = write_spec(tmp_path, n_sites=12, jx=1.0, jy=0.7, jz=0.3, boundary="periodic")
        assert climod.main(["thermo", "--spec", spec, *grid]) == 2
        assert capsys.readouterr().out == ""

    def test_over_cap_with_bad_grid_exit_3(self, tmp_path, capsys, monkeypatch):
        import bargmann.cli as climod

        def fail(*args):
            raise AssertionError("solve called beyond the cap")

        monkeypatch.setattr(climod, "solve", fail)
        monkeypatch.setenv("BARGMANN_MAX_DIM", "8")
        spec = write_spec(tmp_path, n_sites=4)
        assert climod.main(["thermo", "--spec", spec, "--temps", "abc"]) == 3
        assert capsys.readouterr() == ("", "error: dimension 16 exceeds cap 8\n")

    def test_json_format(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["thermo", "--spec", spec, "--temps", "1",
                         "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["points"][0]["Z"] == pytest.approx(math.exp(0.75) + 3 * math.exp(-0.25))


class TestVerify:
    def test_pass(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["verify", "--spec", spec, "--random-trials", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True
        assert len(obj["random_trials"]) == 3
        assert all(t["passed"] for t in obj["random_trials"])

    def test_paper_literal_reports_difference(self, tmp_path, capsys):
        spec = write_spec(tmp_path, mode="paper_literal")
        code = cli.main(["verify", "--spec", spec])
        obj = json.loads(capsys.readouterr().out)
        assert obj["mode"] == "paper_literal"
        assert len(obj["term_difference"]) == 2  # one bond, two unmatched terms
        assert code == 1  # the literal z-line changes the spectrum

    def test_mode_override_flag(self, tmp_path, capsys):
        spec = write_spec(tmp_path, mode="compositional")
        assert cli.main(["verify", "--spec", spec, "--mode", "paper_literal"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert "term_difference" in obj

    def test_xxz_four_sites(self, tmp_path, capsys):
        spec = write_spec(tmp_path, n_sites=4, jx=1.0, jy=1.0, jz=0.5)
        assert cli.main(["verify", "--spec", spec, "--tol", "1e-9"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["max_abs_diff"] <= 1e-9

    def test_negative_random_trials_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        assert cli.main(["verify", "--spec", spec, "--random-trials", "-3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: random-trials must be >= 0\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-1e-300"])
    def test_nonsense_tolerance_exit_2(self, tmp_path, capsys, tol):
        spec = write_spec(tmp_path)
        assert cli.main(["verify", "--spec", spec, f"--tol={tol}"]) == 2
        assert capsys.readouterr() == ("", "error: tol must be a finite number >= 0\n")

    def test_zero_tolerance_accepted(self, tmp_path, capsys):
        spec = write_spec(tmp_path, jx=0.0, jy=0.0)   # diagonal: both spectra exact
        assert cli.main(["verify", "--spec", spec, "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("chain", [
        {"n_sites": 4, "spin": "1", "jx": 1e-8, "jy": 2e-8, "jz": 1e8},
        {"n_sites": 4, "spin": "3/2", "jx": 1e8, "jy": 7e7, "jz": 3e7, "boundary": "periodic"},
    ])
    def test_tolerance_scales_with_the_spectrum(self, tmp_path, capsys, chain):
        # eigenvalues near 1e9 agree to ~1e-15 relative, far beyond an
        # absolute 1e-9; the report keeps the tolerance as given
        spec = tmp_path / "chain.json"
        spec.write_text(json.dumps(chain))
        assert cli.main(["verify", "--spec", str(spec)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True and obj["tol"] == 1e-9
        assert 1e-9 < obj["max_abs_diff"] <= 1e-9 * max(abs(w[1]) for w in obj["worst"])

    def test_corrupted_pipeline_fails(self, tmp_path, capsys, monkeypatch):
        import bargmann.cli as climod
        from bargmann.oracle import oracle_hamiltonian as real_oracle
        spec = write_spec(tmp_path)
        monkeypatch.setattr(climod, "oracle_hamiltonian",
                            lambda s: real_oracle(s) * 1.5)
        assert climod.main(["verify", "--spec", spec]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is False
        assert obj["max_abs_diff"] > 0


class TestApply:
    def test_raising_operator(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0] * w[0]", "re": 1.0, "im": 0.0}])
        assert cli.main(["apply", "--operator", "z[0]*dw[0]", "--state", state]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["amplitudes"] == [
            {"monomial": "z[0]^2", "re": pytest.approx(math.sqrt(2)), "im": 0.0}]

    def test_zero_operator(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 1.0, "im": 0.0}])
        assert cli.main(["apply", "--operator", "0", "--state", state]) == 0
        assert json.loads(capsys.readouterr().out) == {"amplitudes": []}

    def test_casimir_expectation(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0]^2", "re": 1.0, "im": 0.0}])
        op = ("(1/2)*(z[0]*dw[0]*w[0]*dz[0] + w[0]*dz[0]*z[0]*dw[0])"
              " + (1/4)*(z[0]*dz[0] - w[0]*dw[0])^2")
        assert cli.main(["apply", "--operator", op, "--state", state, "--expect"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["expectation"]["re"] == pytest.approx(2.0)  # j=1 Casimir
        assert obj["expectation"]["im"] == pytest.approx(0.0)

    def test_parse_error_exit_2_with_span(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 1.0, "im": 0.0}])
        assert cli.main(["apply", "--operator", "z[0]*&", "--state", state]) == 2
        err = capsys.readouterr().err
        assert "^" in err and "5..6" in err

    def test_expectation_requires_normalized(self, tmp_path):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 2.0, "im": 0.0}])
        assert cli.main(["apply", "--operator", "z[0]*dz[0]", "--state", state,
                         "--expect"]) == 2

    def test_factorial_quotient_beyond_float_range(self, tmp_path, capsys):
        mono = "z[0]^64 * z[1]^64 * z[2]^64"
        state = write_state(tmp_path, [{"monomial": mono, "re": 1.0, "im": 0.0}])
        assert cli.main(["apply", "--operator", mono, "--state", state]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["amplitudes"]
        assert entry["monomial"] == "z[0]^128 * z[1]^128 * z[2]^128"
        assert entry["re"] == pytest.approx(5.3e189, rel=1e-2)

    def test_amplitude_overflow_exit_2(self, tmp_path, capsys):
        # z^384 on z^64: the root of 448!/64! is ~1e451, beyond the float range
        state = write_state(tmp_path, [{"monomial": "z[0]^64", "re": 1.0, "im": 0.0}])
        op = " * ".join(["z[0]^64"] * 6)
        assert cli.main(["apply", "--operator", op, "--state", state]) == 2
        assert cli.main(["apply", "--operator", "(2^64)^64 * z[0]", "--state", state]) == 2
        assert "error:" in capsys.readouterr().err


    def test_hbar_with_zero_denominator_exit_2(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 1.0, "im": 0.0}])
        assert cli.main(["apply", "--operator", "hbar*z[0]", "--state", state,
                         "--hbar", "1/0"]) == 2
        assert capsys.readouterr() == ("", "error: hbar must be a finite number, got '1/0'\n")


class TestStateFile:
    @pytest.mark.parametrize("command", [["apply", "--operator", "z[0]*dz[0]"],
                                         ["husimi", "--points", "points.json"]])
    def test_monomial_listed_twice_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # both entries parse to z[0] w[0]; keeping the later one would drop 0.6
        monkeypatch.chdir(tmp_path)
        Path("points.json").write_text(json.dumps({"points": [[[0.0, 0.0]]]}))
        state = write_state(tmp_path, [{"monomial": "z[0] * w[0]", "re": 0.6, "im": 0.0},
                                       {"monomial": "w[0] * z[0]", "re": 0.8, "im": 0.0}])
        assert cli.main([*command, "--state", state]) == 2
        assert capsys.readouterr() == (
            "", f"error: state file {state}: monomial z[0] * w[0] is listed twice "
                "(again as 'w[0] * z[0]')\n")


    @pytest.mark.parametrize("command", [["apply", "--operator", "z[0]*dz[0]"],
                                         ["husimi", "--points", "points.json"]])
    @pytest.mark.parametrize("text,shown", [("true", "True"), ('"1"', "'1'"),
                                            ("Infinity", "inf"), ("-Infinity", "-inf"),
                                            ("NaN", "nan"), ("1e400", "inf"), ("null", "None"),
                                            ("[1, 0]", "[1, 0]"),
                                            pytest.param("1" + "0" * 400, None, id="10**400")])
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_amplitude_not_a_finite_number_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  command, text, shown, field):
        monkeypatch.chdir(tmp_path)
        Path("points.json").write_text(json.dumps({"points": [[[0.0, 0.0]]]}))
        entry = json.dumps({"monomial": "z[0]", "re": 0.6, "im": 0.8, field: "@"})
        state = tmp_path / "state.json"
        state.write_text('{"amplitudes": [%s]}' % entry.replace('"@"', text))
        assert cli.main([*command, "--state", str(state)]) == 2
        amp = {"re": "0.6", "im": "0.8", field: shown or text}
        assert capsys.readouterr() == (
            "", f"error: state file {state}: the amplitude of 'z[0]' must be two finite "
                f"numbers re, im; got re={amp['re']}, im={amp['im']}\n")

    def test_integer_and_missing_amplitudes_read_as_floats(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 1}, {"monomial": "w[0]"}])
        assert cli.main(["apply", "--operator", "z[0]*dz[0]", "--state", state]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "amplitudes": [{"monomial": "z[0]", "re": 1.0, "im": 0.0}]}


class TestHusimi:
    def test_vacuum(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "1", "re": 1.0, "im": 0.0}])
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"variables": ["z[0]"],
                                      "points": [[[0.0, 0.0]], [[1.0, 0.0]]]}))
        assert cli.main(["husimi", "--state", state, "--points", str(points)]) == 0
        vals = json.loads(capsys.readouterr().out)
        assert vals[0] == pytest.approx(1 / math.pi, rel=1e-12)
        assert vals[1] == pytest.approx(math.exp(-1) / math.pi, rel=1e-12)

    def test_not_normalized_exit_2(self, tmp_path):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 3.0, "im": 0.0}])
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [[[0.0, 0.0]]]}))
        assert cli.main(["husimi", "--state", state, "--points", str(points)]) == 2

    @pytest.mark.parametrize("coordinate", [
        [1], [1, 2, 3], [], [math.inf, 0], [0, -math.inf], [math.nan, 0], [10 ** 400, 0],
        [True, 0], [0, False], ["1", 0], [None, 0], [[1], 0], 1.0, {"re": 1, "im": 0}])
    def test_malformed_coordinate_exit_2(self, tmp_path, capsys, coordinate):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 1.0, "im": 0.0}])
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"variables": ["z[0]"],
                                      "points": [[[0.5, 0.0]], [coordinate]]}))
        assert cli.main(["husimi", "--state", state, "--points", str(points)]) == 2
        assert capsys.readouterr() == (
            "", f"error: a point coordinate must be [re, im], two finite numbers; "
                f"got {json.loads(json.dumps(coordinate))!r}\n")

    def test_integer_coordinates_read_as_floats(self, tmp_path, capsys):
        state = write_state(tmp_path, [{"monomial": "z[0]", "re": 1.0, "im": 0.0}])
        out = []
        for pt in ([[1, -2]], [[1.0, -2.0]]):
            points = tmp_path / "points.json"
            points.write_text(json.dumps({"points": [pt]}))
            assert cli.main(["husimi", "--state", state, "--points", str(points)]) == 0
            out.append(capsys.readouterr())
        assert out[0] == out[1]
        assert json.loads(out[0].out) == [pytest.approx(5 * math.exp(-5) / math.pi, rel=1e-12)]


class TestParserReuse:
    RUNS = [["diag", "--format", "csv"], ["diag"], ["thermo", "--temps", "0.5,2"],
            ["thermo", "--tmin", "0.5", "--tmax", "4", "--tpoints", "3"]]

    def test_reused_parser_gives_fresh_parser_bytes(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, n_sites=3, jx=0.8, jy=-0.3, jz=0.5, boundary="periodic")
        argvs = [[*argv, "--spec", spec] for argv in self.RUNS * 2]
        reused = []
        for argv in argvs:
            assert cli.main(argv) == 0
            reused.append(capsys.readouterr())
        parser = cli._parser
        assert parser is not None
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_parser", None)
            assert cli.main(argv) == 0
            fresh.append(capsys.readouterr())
        assert reused == fresh
        assert len({r.out for r in reused}) == len(self.RUNS)

    def test_reused_parser_calls_patched_solve(self, tmp_path, capsys, monkeypatch):
        from bargmann.thermo import Spectrum

        spec = write_spec(tmp_path)
        assert cli.main(["diag", "--spec", spec]) == 0
        capsys.readouterr()
        calls = []

        def fake(s):
            calls.append(s)
            return Spectrum(eigenvalues=[1.0, 2.0])

        monkeypatch.setattr(cli, "solve", fake)
        assert cli.main(["diag", "--spec", spec, "--format", "csv"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == "index,eigenvalue\n0,1.00000000000e+00\n1,2.00000000000e+00\n"

    def test_no_parser_at_import(self):
        code = "import bargmann.cli as c; print(c._parser is None)"
        r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True)
        assert (r.returncode, r.stdout) == (0, b"True\n")


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        spec = write_spec(tmp_path, jx=0.83, jy=-1.2, jz=0.4, n_sites=3)
        args = ["verify", "--spec", spec, "--random-trials", "2", "--seed", "7"]
        r1 = run_cli(args)
        r2 = run_cli(args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        d1 = run_cli(["diag", "--spec", spec])
        d2 = run_cli(["diag", "--spec", spec])
        assert d1.stdout == d2.stdout and d1.returncode == 0

    def test_seed_changes_trials(self, tmp_path):
        spec = write_spec(tmp_path)
        a = run_cli(["verify", "--spec", spec, "--random-trials", "2", "--seed", "1"])
        b = run_cli(["verify", "--spec", spec, "--random-trials", "2", "--seed", "2"])
        assert a.stdout != b.stdout


class TestWithoutScipy:
    def test_import_leaves_scipy_out(self):
        code = "import sys, bargmann.cli; print('scipy' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                           capture_output=True)
        assert (r.returncode, r.stdout) == (0, b"False\n")

    def test_same_bytes_with_scipy_blocked(self, tmp_path):
        spec = write_spec(tmp_path, n_sites=3, jx=0.83, jy=-1.2, jz=0.4, boundary="periodic")
        for args in (["diag"], ["thermo", "--temps", "0.5,1,2"],
                     ["verify", "--random-trials", "1"]):
            args = [*args, "--spec", spec]
            free, blocked = run_cli(args), run_cli(args, scipy_blocked=True)
            assert free.returncode == 0 and free.stdout
            assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
                free.returncode, free.stdout, free.stderr)


class TestExitCodes:
    def test_distinct_documented_codes(self, tmp_path):
        # 0 covered above; 2/3/4 mapped to distinct classes
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert cli.main(["basis", "--spec", str(bad)]) == 2
        big = write_spec(tmp_path, n_sites=16)
        assert cli.main(["verify", "--spec", str(big)]) == 3

    def test_unknown_subcommand_nonzero(self):
        r = run_cli(["frobnicate"])
        assert r.returncode != 0


HUGE_CHAINS = [("2", 100000000, "5**100000000"), ("1/2", 20000, "2**20000")]
CHAIN_COMMANDS = [["basis"], ["diag"], ["thermo", "--temps", "1"], ["verify"]]


class TestOneCap:
    """The dimension cap of every subcommand is one function: it never forms
    an out-of-range power, and it reads BARGMANN_MAX_DIM on each call."""

    @pytest.mark.parametrize("spin,n_sites,shown", HUGE_CHAINS)
    @pytest.mark.parametrize("command", CHAIN_COMMANDS)
    def test_huge_chain_exit_3_without_building(self, tmp_path, capsys, monkeypatch,
                                                 cold_bond_tables, spin, n_sites, shown,
                                                 command):
        import bargmann.chain as chainmod
        import bargmann.oracle as oraclemod

        def fail(*args, **kwargs):
            raise AssertionError("built beyond the cap")

        for module, name in [(cli, "format_monomial"), (chainmod, "build_hamiltonian"),
                             (chainmod, "_bond"), (chainmod, "_bond_tables"),
                             (oraclemod, "spin_matrices"), (chainmod.ChainSpec, "dimension")]:
            monkeypatch.setattr(module, name, fail)
        spec = write_spec(tmp_path, spin=spin, n_sites=n_sites)
        start = time.perf_counter()
        assert cli.main([*command, "--spec", spec]) == 3
        assert time.perf_counter() - start < 2
        assert capsys.readouterr() == ("", f"error: dimension {shown} exceeds cap 8192\n")

    def test_huge_chain_subprocess(self, tmp_path):
        r = run_cli(["diag", "--spec", write_spec(tmp_path, spin="2", n_sites=100000000)])
        assert (r.returncode, r.stdout) == (3, b"")
        assert r.stderr == b"error: dimension 5**100000000 exceeds cap 8192\n"

    @pytest.mark.parametrize("value", ["abc", "-1", "1e4"])
    def test_bad_variable_exit_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("BARGMANN_MAX_DIM", value)
        assert cli.main(["diag", "--spec", write_spec(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: BARGMANN_MAX_DIM must be an integer >= 0, got {value!r}\n")
