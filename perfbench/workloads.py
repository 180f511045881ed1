"""Seeded inputs, item lists and independent references for each workload.

Everything here runs in the orchestrating process before any timing starts.
References come from this file's own Kronecker matrices and closed-form sums,
never from `bargmann`; the program is imported only to produce one input,
the canonical text of J^2 that the `apply` items pass on the command line.

An item is a dict:
    id     short unique name
    argv   CLI argument list (or None for a direct call into the algebra)
    call   {"fn": name, "n": sites} for a direct call (or None)
    check  {"kind": ..., reference data} read by checks.py
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp

THERMO_TMIN = 0.25
THERMO_TMAX = 100.0
REL_TOL = 1e-9

# (label, n_sites, spin, (jx, jy, jz), boundary): the four mid-size chains.
DENSE_CHAINS = (
    ("s1_2-N10-xxz", 10, "1/2", (1.0, 1.0, 0.5), "periodic"),
    ("s3_2-N5-xyz", 5, "3/2", (1.0, 0.7, 0.3), "open"),
    ("s1-N6-xyz", 6, "1", (0.8, 1.1, -0.6), "periodic"),
    ("s2-N4-xxx", 4, "2", (1.0, 1.0, 1.0), "periodic"),
)
SCAN_SIZES = (("1/2", range(2, 9)), ("1", range(2, 6)), ("3/2", range(2, 5)), ("2", range(2, 4)))
SCAN_DRAWS = 3
ALGEBRA_SITES = (4, 6, 8, 10, 12)
CLI_SITES_MAX = 10
STATE_MONOMIALS = 128
SPIN_POINTS = 100
OSC_STATES = (("exp", 24), ("exp", 48), ("cosh", 24), ("cosh", 48))
OSC_POINTS = 1000


# ----------------------------------------------------------------- references

def _spin_ops(spin: Fraction):
    """Real (S+ + S-)/2, (S+ - S-), Sz for one site, m = -s..+s.

    Sy x Sy = -(S+ - S-) x (S+ - S-) / 4 is real, so the whole chain matrix is.
    """
    d = int(2 * spin) + 1
    s = float(spin)
    m = [-s + k for k in range(d)]
    up = np.zeros((d, d))
    for k in range(d - 1):
        up[k + 1, k] = math.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    return (up + up.T) / 2, up - up.T, np.diag(m)


def _reference_matrix(n_sites, spin, couplings, boundary) -> np.ndarray:
    spin = Fraction(spin)
    sx, a, sz = _spin_ops(spin)
    d = sx.shape[0]
    bonds = [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == "periodic":
        bonds.append((0, n_sites - 1))
    pairs = ((couplings[0], sx, sx), (-couplings[1] / 4, a, a), (couplings[2], sz, sz))
    H = sp.csr_matrix((d ** n_sites, d ** n_sites))
    for i, j in bonds:
        for J, op_i, op_j in pairs:
            out = sp.identity(d ** i, format="csr")
            for mid in (op_i, sp.identity(d ** (j - i - 1)), op_j, sp.identity(d ** (n_sites - j - 1))):
                out = sp.kron(out, mid, format="csr")
            H = H + J * out
    return H.toarray()


def _spectrum_ref(n_sites, spin, couplings, boundary) -> dict:
    evals = np.linalg.eigvalsh(_reference_matrix(n_sites, spin, couplings, boundary))
    norm = float(np.abs(evals).max())
    return {"eigenvalues": evals.tolist(), "tol": REL_TOL * max(1.0, norm)}


def _thermo_ref(evals, tpoints) -> dict:
    E = np.asarray(evals)
    T = np.geomspace(THERMO_TMIN, THERMO_TMAX, tpoints)
    e0 = E[0]
    w = np.exp(-np.outer(1.0 / T, E - e0))
    W = w.sum(axis=1)
    F = e0 - T * np.log(W)
    mean_E = (w * E).sum(axis=1) / W
    return {"T": T.tolist(), "logZ": (-F / T).tolist(), "F": F.tolist(),
            "S": ((mean_E - F) / T).tolist(), "E_mean": mean_E.tolist()}


# --------------------------------------------------------------- input files

def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _spin_items(label, n_sites, spin, couplings, boundary, cmds, tpoints, inputs, outputs):
    spec = {"n_sites": n_sites, "spin": spin, "jx": couplings[0], "jy": couplings[1],
            "jz": couplings[2], "boundary": boundary}
    spec_path = _write_json(inputs / f"{label}.json", spec)
    ref = _spectrum_ref(n_sites, spin, couplings, boundary)
    twos = int(2 * Fraction(spin))
    items = []
    for cmd in cmds:
        out = str(outputs / f"{label}.{cmd}.out")
        argv = [cmd, "--spec", spec_path, "--out", out]
        if cmd == "basis":
            check = {"kind": "basis", "n_sites": n_sites, "twos": twos}
        elif cmd == "diag":
            check = {"kind": "spectrum", **ref}
        elif cmd == "thermo":
            argv += ["--tmin", str(THERMO_TMIN), "--tmax", str(THERMO_TMAX),
                     "--tpoints", str(tpoints)]
            check = {"kind": "thermo", "tol": ref["tol"], **_thermo_ref(ref["eigenvalues"], tpoints)}
        else:
            check = {"kind": "verify", "dimension": len(ref["eigenvalues"])}
        items.append({"id": f"{label}:{cmd}", "argv": argv, "call": None, "check": check})
    return items


def dense_spectrum(rng: random.Random, inputs: Path, outputs: Path) -> dict:
    """diag, thermo (200 points) and verify on four chains of dim 625-1024.

    The seed scales each chain's couplings by a dyadic factor in [1/2, 2]: the
    spectra change, the anisotropy and the exact rationals' sizes do not.
    """
    items = []
    for label, n, spin, couplings, boundary in DENSE_CHAINS:
        scale = rng.randint(8, 32) / 16
        items += _spin_items(label, n, spin, tuple(scale * J for J in couplings), boundary,
                             ("diag", "thermo", "verify"), 200, inputs, outputs)
    warmup = next(it for it in items if it["id"] == "s2-N4-xxx:diag")
    return {"items": items, "warmup": warmup}


def chain_scan(rng: random.Random, inputs: Path, outputs: Path) -> dict:
    """basis, diag, thermo (50 points) and verify on 48 seeded chains, dim <= 256."""
    items = []
    for spin, sizes in SCAN_SIZES:
        for n in sizes:
            for draw in range(SCAN_DRAWS):
                couplings = tuple(round(rng.uniform(-2.0, 2.0), 6) for _ in range(3))
                boundary = rng.choice(("open", "periodic"))
                label = f"s{spin.replace('/', '_')}-N{n}-d{draw}"
                items += _spin_items(label, n, spin, couplings, boundary,
                                     ("basis", "diag", "thermo", "verify"), 50, inputs, outputs)
    return {"items": items, "warmup": items[3]}


def _bits_monomial(bits: int, n_sites: int) -> str:
    return " * ".join(f"z[{q}]" if (bits >> (n_sites - 1 - q)) & 1 else f"w[{q}]"
                      for q in range(n_sites))


def _j2_apply(state: dict, n_sites: int) -> dict:
    """J^2 on a spin-1/2 state {bits: amp}, bit 1 = up, site 0 the highest bit.

    J^2 = 3N/4 + sum_{i<j} [ (1/2) s_i s_j  +  swap(i, j) if the spins differ ].
    """
    out: dict = {}
    for bits, amp in state.items():
        spins = [1 if (bits >> (n_sites - 1 - q)) & 1 else -1 for q in range(n_sites)]
        diag = 0.75 * n_sites
        for i in range(n_sites):
            for j in range(i + 1, n_sites):
                diag += 0.5 * spins[i] * spins[j]
                if spins[i] != spins[j]:
                    flipped = bits ^ (1 << (n_sites - 1 - i)) ^ (1 << (n_sites - 1 - j))
                    out[flipped] = out.get(flipped, 0j) + amp
        out[bits] = out.get(bits, 0j) + diag * amp
    return out


def _spin_state(rng: random.Random, n_sites: int) -> dict:
    chosen = rng.sample(range(2 ** n_sites), min(STATE_MONOMIALS, 2 ** n_sites))
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in chosen]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return {b: a / norm for b, a in zip(chosen, amps)}


def _state_file(path: Path, amps: dict, monomial) -> str:
    rows = [{"monomial": monomial(k), "re": a.real, "im": a.imag} for k, a in amps.items()]
    return _write_json(path, {"amplitudes": rows})


def _husimi(psi: complex, coords) -> float:
    r2 = sum(abs(c) ** 2 for c in coords)
    return math.pi ** (-len(coords)) * math.exp(-r2) * abs(psi) ** 2


def _spin_cli_items(rng, n, j2_text, inputs, outputs) -> list[dict]:
    """CLI `apply --expect` with J^2 and `husimi` on one seeded spin-1/2 state."""
    state = _spin_state(rng, n)
    state_path = _state_file(inputs / f"N{n}.state.json", state,
                             lambda b: _bits_monomial(b, n))
    result = _j2_apply(state, n)
    apply_item = {
        "id": f"N{n}:apply", "call": None,
        "argv": ["apply", "--operator", j2_text, "--state", state_path, "--expect",
                 "--out", str(outputs / f"N{n}.apply.out")],
        "check": {"kind": "apply", "n_sites": n,
                  "tol": REL_TOL * max(1.0, (n / 2) * (n / 2 + 1)),
                  "result": [[b, a.real, a.imag] for b, a in result.items()],
                  "expectation": sum(a.conjugate() * result.get(b, 0j)
                                     for b, a in state.items()).real}}
    # Coordinates are ordered z[0], w[0], z[1], w[1], ...; every exponent is 1,
    # so psi is a plain sum of products.
    variables = [f"{f}[{q}]" for q in range(n) for f in "zw"]
    points = [[complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7)) for _ in variables]
              for _ in range(SPIN_POINTS)]
    q = []
    for pt in points:
        psi = 0j
        for bits, amp in state.items():
            for site in range(n):
                amp *= pt[2 * site] if (bits >> (n - 1 - site)) & 1 else pt[2 * site + 1]
            psi += amp
        q.append(_husimi(psi, pt))
    return [apply_item, _husimi_item(f"N{n}:husimi", state_path, variables, points, q,
                                     inputs, outputs)]


def _oscillator_item(rng, kind, n_max, inputs, outputs) -> dict:
    """`husimi` on the normalized partial sum of e^z (or cosh z) up to z^n_max."""
    keep = [n for n in range(n_max + 1) if kind == "exp" or n % 2 == 0]
    norm = math.sqrt(sum(1 / math.factorial(n) for n in keep))
    amps = {n: 1 / math.sqrt(math.factorial(n)) / norm for n in keep}
    label = f"osc-{kind}{n_max}"
    state_path = _state_file(inputs / f"{label}.state.json", amps,
                             lambda n: "1" if n == 0 else ("z[0]" if n == 1 else f"z[0]^{n}"))
    points = [[complex(rng.gauss(0, 1), rng.gauss(0, 1))] for _ in range(OSC_POINTS)]
    q = []
    for (z,) in points:
        psi, term = 0j, 1 + 0j  # term = z^n / n!
        for n in range(n_max + 1):
            if n in amps:
                psi += term / norm
            term *= z / (n + 1)
        q.append(_husimi(psi, [z]))
    return _husimi_item(f"{label}:husimi", state_path, ["z[0]"], points, q, inputs, outputs)


def _husimi_item(item_id, state_path, variables, points, q, inputs, outputs) -> dict:
    stem = item_id.replace(":", ".")
    points_path = _write_json(inputs / f"{stem}.points.json", {
        "variables": variables, "points": [[[c.real, c.imag] for c in pt] for pt in points]})
    return {"id": item_id, "call": None,
            "argv": ["husimi", "--state", state_path, "--points", points_path,
                     "--out", str(outputs / f"{stem}.out")],
            "check": {"kind": "husimi", "q": q}}


def exact_algebra(rng: random.Random, inputs: Path, outputs: Path) -> dict:
    """Operator identities and DSL round trips for N = 4..12, CLI apply and
    husimi on seeded spin-1/2 states for N <= 10, husimi on oscillator series."""
    import bargmann

    items = [{"id": f"N{n}:{fn}", "argv": None, "call": {"fn": fn, "n": n},
              "check": {"kind": "call"}}
             for n in ALGEBRA_SITES for fn in ("identities", "roundtrip")]
    for n in ALGEBRA_SITES:
        if n <= CLI_SITES_MAX:
            j2_text = bargmann.format_operator(bargmann.total_operator("squared", range(n)))
            items += _spin_cli_items(rng, n, j2_text, inputs, outputs)
    items += [_oscillator_item(rng, kind, n_max, inputs, outputs) for kind, n_max in OSC_STATES]
    warmup = next(it for it in items if it["id"] == "N4:apply")
    return {"items": items, "warmup": warmup}


WORKLOADS = {"dense_spectrum": dense_spectrum, "chain_scan": chain_scan,
             "exact_algebra": exact_algebra}


def build_plan(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the workload's input files under run_dir and return its plan.

    run_dir is relative to the directory the items run from, and so are the
    paths in their argv.
    """
    inputs, outputs = run_dir / "inputs", run_dir / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir()
    plan = WORKLOADS[workload](random.Random(seed), inputs, outputs)
    return {"workload": workload, "seed": seed, **plan}
