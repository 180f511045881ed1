"""Output checks against the references in the plan, plus the corruptions the
self-test feeds them.

A check takes the item's output (file text, or the value a direct call
returned) and its reference dict, and returns None when the output is right
or a one-line reason when it is not.  Nothing here imports `bargmann`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

_BASIS_LINE = re.compile(r"^(\d+): (.*) \| (.*) \| total_m = (\S+)$")
_SITE_LABEL = re.compile(r"\(j=(\S+), m=(\S+)\)")


def _max_excess(got, want, tol) -> float:
    """Largest |got - want| / tol; <= 1 means within tolerance."""
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)) / np.asarray(tol)))


def check_spectrum(text: str, ref: dict):
    got = json.loads(text)["eigenvalues"]
    if len(got) != len(ref["eigenvalues"]):
        return f"{len(got)} eigenvalues, expected {len(ref['eigenvalues'])}"
    excess = _max_excess(got, ref["eigenvalues"], ref["tol"])
    if not excess <= 1:
        return f"eigenvalues differ from the Kronecker reference by {excess:.3g} x tol"
    return None


def check_thermo(text: str, ref: dict):
    lines = text.splitlines()
    if lines[0] != "T,Z,F,S,E_mean":
        return f"unexpected header {lines[0]!r}"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    T = np.asarray(ref["T"])
    if rows.shape != (len(T), 5):
        return f"table shape {rows.shape}, expected {(len(T), 5)}"
    tol = ref["tol"]
    # Eigenvalue errors up to tol move F and E_mean by tol, S by 2 tol / T and
    # log Z by tol / T; the CSV's 12 significant digits add 1e-11 relative.
    fields = (
        ("T", rows[:, 0], T, 1e-10 * T),
        ("log Z", np.log(rows[:, 1]), ref["logZ"], tol / T + 1e-10 * np.maximum(1, np.abs(ref["logZ"]))),
        ("F", rows[:, 2], ref["F"], tol + 1e-10 * np.abs(ref["F"])),
        ("S", rows[:, 3], ref["S"], 2 * tol / T + 1e-10 * np.maximum(1, np.abs(ref["S"]))),
        ("E_mean", rows[:, 4], ref["E_mean"], tol + 1e-10 * np.abs(ref["E_mean"])),
    )
    for name, got, want, ftol in fields:
        excess = _max_excess(got, want, ftol)
        if not excess <= 1:
            return f"{name} differs from the reference by {excess:.3g} x tol"
    return None


def check_verify(text: str, ref: dict):
    obj = json.loads(text)
    if obj["passed"] is not True or obj["dimension"] != ref["dimension"]:
        return (f"passed={obj['passed']} dimension={obj['dimension']} "
                f"max_abs_diff={obj['max_abs_diff']}")
    return None


def check_basis(text: str, ref: dict):
    """One line per state; line i carries the mixed-radix digits of i
    (site 0 slowest) as z exponents and as m = digit - s."""
    n, twos = ref["n_sites"], ref["twos"]
    spin = Fraction(twos, 2)
    lines = text.splitlines()
    if len(lines) != (twos + 1) ** n:
        return f"{len(lines)} basis lines, expected {(twos + 1) ** n}"
    for i, line in enumerate(lines):
        match = _BASIS_LINE.match(line)
        if match is None or int(match.group(1)) != i:
            return f"line {i} malformed: {line!r}"
        digits = [(i // (twos + 1) ** (n - 1 - k)) % (twos + 1) for k in range(n)]
        want_m = [d - spin for d in digits]
        labels = _SITE_LABEL.findall(match.group(3))
        if [Fraction(m) for _, m in labels] != want_m or any(Fraction(j) != spin for j, _ in labels):
            return f"line {i}: labels {match.group(3)!r} do not match digits {digits}"
        if Fraction(match.group(4)) != sum(want_m):
            return f"line {i}: total_m {match.group(4)} != {sum(want_m)}"
        factors = []
        for k, d in enumerate(digits):
            factors += [f"z[{k}]" + (f"^{d}" if d > 1 else "")] if d else []
            factors += [f"w[{k}]" + (f"^{twos - d}" if twos - d > 1 else "")] if twos - d else []
        if match.group(2) != (" * ".join(factors) or "1"):
            return f"line {i}: monomial {match.group(2)!r} does not match digits {digits}"
    return None


def _spin_half_bits(monomial: str, n_sites: int) -> int:
    bits = 0
    for factor in monomial.split(" * "):
        site = int(factor[2:-1])
        if factor[0] == "z":
            bits |= 1 << (n_sites - 1 - site)
    return bits


def check_apply(text: str, ref: dict):
    obj = json.loads(text)
    n, tol = ref["n_sites"], ref["tol"]
    got = {_spin_half_bits(row["monomial"], n): complex(row["re"], row["im"])
           for row in obj["state"]["amplitudes"]}
    want = {b: complex(re_, im) for b, re_, im in ref["result"]}
    worst = max(abs(got.get(b, 0j) - want.get(b, 0j)) for b in got.keys() | want.keys())
    if not worst <= tol:
        return f"J^2 |psi> differs from the reference by {worst:.3g} (tol {tol:.3g})"
    e = complex(obj["expectation"]["re"], obj["expectation"]["im"])
    if not abs(e - ref["expectation"]) <= tol:
        return f"<psi|J^2|psi> = {e}, expected {ref['expectation']!r} (tol {tol:.3g})"
    return None


def check_husimi(text: str, ref: dict):
    got = json.loads(text)
    want = ref["q"]
    if len(got) != len(want):
        return f"{len(got)} values, expected {len(want)}"
    for k, (a, b) in enumerate(zip(got, want)):
        if not abs(a - b) <= 1e-9 * abs(b) + 1e-300:
            return f"point {k}: Q = {a!r}, closed form {b!r}"
    return None


def check_call(result: dict, ref: dict):
    bad = [name for name, ok in result.items() if ok is not True]
    return f"identities not exact: {bad}" if bad else None


CHECKS = {"spectrum": check_spectrum, "thermo": check_thermo, "verify": check_verify,
          "basis": check_basis, "apply": check_apply, "husimi": check_husimi,
          "call": check_call}


def check(kind: str, output, ref: dict):
    """Run the check for `kind`; a malformed output is a failed check."""
    try:
        return CHECKS[kind](output, ref)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"


# ------------------------------------------------------------- self-test only

def _nudge(x: float) -> float:
    return x * (1 + 1e-6) + 1e-6


def corrupt(kind: str, output):
    """Return `output` with one value made wrong in the way a bug might."""
    if kind == "call":
        first = next(iter(output))
        return {**output, first: False}
    if kind == "spectrum":
        obj = json.loads(output)
        obj["eigenvalues"][0] = _nudge(obj["eigenvalues"][0])
        return json.dumps(obj)
    if kind == "thermo":
        lines = output.splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(_nudge(float(cells[2])))
        return "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    if kind == "verify":
        return output.replace('"passed": true', '"passed": false')
    if kind == "basis":
        return output.replace("m=", "m=-", 1).replace("m=--", "m=", 1)
    if kind == "apply":
        obj = json.loads(output)
        obj["expectation"]["re"] = _nudge(obj["expectation"]["re"])
        return json.dumps(obj)
    if kind == "husimi":
        vals = json.loads(output)
        vals[0] = vals[0] * (1 + 1e-6)
        return json.dumps(vals)
    raise ValueError(f"no corruption for check kind {kind!r}")
