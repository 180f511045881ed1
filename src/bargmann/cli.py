"""Batch command-line surface.

Subcommands: basis | diag | thermo | verify | apply | husimi.  All output is
deterministic on one machine, with one numpy build and one BLAS thread count:
identical inputs and seed produce byte-identical bytes.  LAPACK's last bits can
change with the thread count, and those of numpy's exp, log and power with the
SIMD code numpy dispatches to (AVX-512 or not), which `thermo` and `husimi` use.

Exit codes:
    0  success (for `verify`: spectra agree within tolerance)
    1  verification failure (spectra disagree)
    2  malformed input (bad spec/state/points file, a state monomial listed
       twice, a state amplitude or a point coordinate not two finite numbers
       re, im, parse error, bad grid, a negative trial count, a tolerance that
       is not a finite number >= 0, an amplitude, a summed matrix element or
       an eigenvalue beyond the float range)
    3  dimension over the cap (8192, or BARGMANN_MAX_DIM), checked before any build

Units: k_B = 1, temperatures in energy units; hbar defaults to 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import random
import sys

from .algebra import (
    MultiIndex,
    OperatorPolynomial,
    PolynomialState,
    apply,
    inner_product,
    w_var,
    z_var,
)
from .chain import (
    COMPOSITIONAL,
    OPEN,
    PAPER_LITERAL,
    PERIODIC,
    ChainSpec,
    check_dimension,
    exact_number,
    json_object,
    mode_difference,
    solve,
)
from .dsl import ParseError, format_monomial, format_operator, parse, parse_monomial
from .errors import DimensionTooLarge, NotNormalized
from .oracle import compare_spectra, oracle_matrix
from .thermo import (
    _f12,
    eigensolve,
    husimi_q,
    spectrum_to_json,
    thermo_sweep,
    thermo_to_csv,
    to_json,
)

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-9

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_DIM_TOO_LARGE = 3

_parser = None    # built by the first `main` call and reused: parsing keeps no state in it


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spec(args) -> ChainSpec:
    spec = ChainSpec.from_file(args.spec)
    overrides = {}
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "boundary", None):
        overrides["boundary"] = args.boundary
    return dataclasses.replace(spec, **overrides) if overrides else spec


def _finite_number(x) -> bool:
    """Whether x is a JSON number (not a boolean) that is finite as a float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _load_state(path) -> PolynomialState:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json_object(json.load(fh), f"state file {path}", ("amplitudes",))
    amps = {}
    for k, entry in enumerate(obj["amplitudes"]):
        json_object(entry, f"state file {path}: amplitude {k}", ("monomial",))
        try:
            m = parse_monomial(entry["monomial"])
        except ParseError as e:
            raise ValueError(f"state file {path}: bad monomial "
                             f"{entry['monomial']!r}: {e}") from None
        if m in amps:
            raise ValueError(f"state file {path}: monomial {format_monomial(m)} is listed "
                             f"twice (again as {entry['monomial']!r})")
        re, im = entry.get("re", 0.0), entry.get("im", 0.0)
        if not (_finite_number(re) and _finite_number(im)):
            raise ValueError(f"state file {path}: the amplitude of {entry['monomial']!r} must "
                             f"be two finite numbers re, im; got re={re!r}, im={im!r}")
        amps[m] = complex(float(re), float(im))
    return PolynomialState(amps)


def cmd_basis(args) -> int:
    spec = _load_spec(args)
    check_dimension(spec)
    n, s, twos = spec.n_sites, spec.spin, int(2 * spec.spin)
    # per (site, digit a): the text of z^a w^(2s-a); per a: the label, m = a - s;
    # per digit sum: total_m.  Spin 0 has the single state "1".
    factor = [[format_monomial(MultiIndex({z_var(site): a, w_var(site): twos - a}))
               for a in range(twos + 1)] for site in range(n)] if twos else []
    label = [f"(j={s}, m={a - s})" for a in range(twos + 1)]
    total = [f"total_m = {k - n * s}" for k in range(n * twos + 1)]
    lines = []
    for i, digits in enumerate(itertools.product(range(twos + 1), repeat=n)):
        monomial = " * ".join(f[a] for f, a in zip(factor, digits)) or "1"
        lines.append(f"{i}: {monomial} | {' '.join(label[a] for a in digits)} | "
                     f"{total[sum(digits)]}")
    _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_diag(args) -> int:
    s = solve(_load_spec(args))
    if args.format == "csv":
        lines = ["index,eigenvalue"]
        lines += [f"{i},{_f12(v)}" for i, v in enumerate(s.eigenvalues)]
        _write_out(args, "\n".join(lines) + "\n")
    else:
        _write_out(args, spectrum_to_json(s))
    return EXIT_OK


def _check_temperatures(temps):
    if any(not t > 0 for t in temps):
        raise ValueError("temperatures must be positive")
    if any(math.isinf(t) for t in temps):
        raise ValueError("temperatures must be finite")


def _log_grid(tmin: float, tmax: float, n: int) -> list[float]:
    """n temperatures from tmin to tmax, equally spaced in log T, in Python
    floats (no SIMD code path), both ends exact."""
    if n == 1:
        return [tmin]
    lo, hi = math.log(tmin), math.log(tmax)
    return [tmin, *(math.exp(lo + (hi - lo) * k / (n - 1)) for k in range(1, n - 1)), tmax]


def _parse_grid(args) -> list[float]:
    if args.temps is not None:
        toks = [t for t in args.temps.split(",") if t.strip()]
        grid = [float(t) for t in toks]
    elif args.tmin is not None and args.tmax is not None:
        if args.tpoints < 1:
            raise ValueError("tpoints must be >= 1")
        _check_temperatures([args.tmin, args.tmax])
        grid = _log_grid(args.tmin, args.tmax, args.tpoints)
    else:
        raise ValueError("give either --temps or --tmin/--tmax/--tpoints")
    _check_temperatures(grid)
    return sorted(grid)


def cmd_thermo(args) -> int:
    spec = _load_spec(args)
    check_dimension(spec)
    grid = _parse_grid(args)
    points = thermo_sweep(solve(spec), grid)
    if args.format == "json":
        rows = [{"T": p.temperature, "Z": p.Z, "F": p.free_energy, "S": p.entropy,
                 "E_mean": p.mean_energy} for p in points]
        _write_out(args, to_json({"points": rows}) + "\n")
    else:
        _write_out(args, thermo_to_csv(points))
    return EXIT_OK


def _verify_once(spec: ChainSpec, tol: float):
    sb = solve(spec)
    so = eigensolve(oracle_matrix(spec), compute_vectors=False)
    return compare_spectra(sb, so, tol)


def cmd_verify(args) -> int:
    if args.random_trials < 0:
        raise ValueError("random-trials must be >= 0")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("tol must be a finite number >= 0")
    spec = _load_spec(args)
    rep = _verify_once(spec, args.tol)
    all_pass = rep.passed
    report = {"dimension": rep.dimension, "tol": rep.tol, "max_abs_diff": rep.max_abs_diff,
              "passed": rep.passed, "mode": spec.mode, "worst": rep.worst}

    if spec.mode == PAPER_LITERAL:
        report["term_difference"] = [format_operator(OperatorPolynomial({k: c}))
                                     for k, c in mode_difference(spec).items()]

    if args.random_trials:
        rng = random.Random(args.seed)
        trials = []
        for k in range(args.random_trials):
            couplings = tuple(round(rng.uniform(-2.0, 2.0), 6) for _ in range(3))
            tspec = dataclasses.replace(spec, couplings=couplings)
            trep = _verify_once(tspec, args.tol)
            all_pass = all_pass and trep.passed
            trials.append({"trial": k, "couplings": couplings,
                           "max_abs_diff": trep.max_abs_diff, "passed": trep.passed})
        report["random_trials"] = trials

    _write_out(args, to_json(report) + "\n")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_apply(args) -> int:
    A = parse(args.operator, hbar=exact_number(args.hbar, "hbar"))
    state = _load_state(args.state)
    result = apply(A, state)
    out = {"amplitudes": [{"monomial": format_monomial(m), "re": a.real, "im": a.imag}
                          for m, a in result.items()]}
    if args.expect:
        if abs(state.norm() - 1.0) > 1e-10:
            raise NotNormalized(
                f"expectation requested but state norm is {state.norm()!r}")
        e = inner_product(state, result)
        out = {"state": out, "expectation": {"re": e.real, "im": e.imag}}
    _write_out(args, to_json(out) + "\n")
    return EXIT_OK


def _coordinate(c) -> complex:
    """One phase-space coordinate [re, im]: two finite JSON numbers (no booleans)."""
    if not (type(c) is list and len(c) == 2 and all(map(_finite_number, c))):
        raise ValueError(f"a point coordinate must be [re, im], two finite numbers; got {c!r}")
    return complex(*map(float, c))


def cmd_husimi(args) -> int:
    state = _load_state(args.state)
    with open(args.points, "r", encoding="utf-8") as fh:
        obj = json_object(json.load(fh), f"points file {args.points}", ("points",))
    variables = None
    if "variables" in obj:
        variables = []
        for name in obj["variables"]:
            try:
                m = parse_monomial(name)
            except ParseError as e:
                raise ValueError(f"bad variable name {name!r}: {e}") from None
            if [exp for _, exp in m.items()] != [1]:
                raise ValueError(f"bad variable name {name!r}; expected z[i] or w[i]")
            variables += m.variables()
    points = [[_coordinate(c) for c in pt] for pt in obj["points"]]
    qs = husimi_q(state, points, variables)
    _write_out(args, to_json(qs) + "\n")
    return EXIT_OK


def _echo_span(err: ParseError, text: str):
    sys.stderr.write(f"error: {err}\n")
    start, end = err.span
    if text and start <= len(text):
        sys.stderr.write("    " + text + "\n")
        width = max(1, min(end, len(text)) - start)
        sys.stderr.write("    " + " " * start + "^" * width + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bargmann",
        description="Holomorphic-representation spin chains: sector bases, exact "
                    "diagonalization, thermodynamics (k_B = 1), oracle verification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, spec=True):
        if spec:
            sp.add_argument("--spec", required=True, help="chain spec JSON file")
            sp.add_argument("--mode", choices=[COMPOSITIONAL, PAPER_LITERAL],
                            help="override the spec file's construction mode")
            sp.add_argument("--boundary", choices=[OPEN, PERIODIC],
                            help="override the spec file's boundary condition")
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("basis", help="list the ordered sector basis with (j, m) labels")
    common(sp)
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("diag", help="assemble, eigensolve, write the spectrum")
    common(sp)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_diag)

    sp = sub.add_parser("thermo", help="partition function and thermodynamics over a T grid")
    common(sp)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--temps", help="comma-separated temperatures (may be empty)")
    sp.add_argument("--tmin", type=float, help="log-grid start")
    sp.add_argument("--tmax", type=float, help="log-grid end")
    sp.add_argument("--tpoints", type=int, default=50, help="log-grid size")
    sp.set_defaults(func=cmd_thermo)

    sp = sub.add_parser("verify", help="cross-check the sector matrix against the "
                                       "tensor-product oracle")
    common(sp)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help="eigenvalues must agree to tol * max(1, max |eigenvalue|): "
                         "absolute within [-1, 1], relative beyond "
                         f"(default {DEFAULT_TOL:g})")
    sp.add_argument("--random-trials", type=int, default=0,
                    help="extra random-coupling comparisons")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"seed for random trials (default {DEFAULT_SEED})")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("apply", help="apply an operator expression to a state file")
    common(sp, spec=False)
    sp.add_argument("--operator", required=True, help="operator expression")
    sp.add_argument("--state", required=True, help="state JSON file")
    sp.add_argument("--hbar", default="1", help="value substituted for 'hbar'")
    sp.add_argument("--expect", action="store_true",
                    help="also print <s|A|s> (state must be normalized)")
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("husimi", help="evaluate the Husimi-Q density at phase-space points")
    common(sp, spec=False)
    sp.add_argument("--state", required=True, help="state JSON file")
    sp.add_argument("--points", required=True, help="points JSON file")
    sp.set_defaults(func=cmd_husimi)
    return p


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        _echo_span(e, getattr(args, "operator", ""))
        return EXIT_BAD_INPUT
    except DimensionTooLarge as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_DIM_TOO_LARGE
    except (ValueError, KeyError, TypeError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
