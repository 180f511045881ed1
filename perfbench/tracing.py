"""Per-layer tracing installed from outside the program.

Each listed function is replaced, in every loaded `bargmann` module that binds
it, by a wrapper that records a span (name, start, end, parent span, item id)
and adds work counts computed from the call's arguments and return value.
Self time is a span's duration minus the durations of its direct child spans.

`apply_term` and `partition_function` are not wrapped: they run hundreds of
thousands of times per pass, so a wrapper would distort the run.  Their work
shows in the `attempts` counts of `assemble_matrix` and `apply`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time


def _out_bytes(args, kwargs, result):
    argv = args[0]
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {"out_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


def _assemble(args, kwargs, result):
    H, basis = args[:2]
    return {"nnz": result.nnz, "attempts": len(H) * len(basis)}


def _dense(args, kwargs, result):
    n = args[0].shape[0]
    return {"dim_sum": n, "n3_sum": n ** 3, "dense_bytes": 16 * n * n}


def _length(counter):
    return lambda args, kwargs, result: {counter: len(result)}


def _none(args, kwargs, result):
    return {}


# module -> function -> (counter names, counter function).  Names follow
# `<module>.<function>.<counter>`; every function also gets calls and self_s.
LAYERS = {
    "cli": {"main": (("out_bytes",), _out_bytes)},
    "chain": {
        "sector_basis": (("states",), _length("states")),
        "build_hamiltonian": (("terms",), _length("terms")),
        "assemble_matrix": (("nnz", "attempts"), _assemble),
    },
    "thermo": {
        "eigensolve": (("dim_sum", "n3_sum", "dense_bytes"), _dense),
        "thermo_sweep": (("points",), _length("points")),
        "spectrum_to_json": (("bytes",), _length("bytes")),
        "thermo_to_csv": (("bytes",), _length("bytes")),
        "husimi_q": (("evals",), lambda a, k, r: {"evals": len(a[1]) * len(a[0])}),
    },
    "oracle": {
        "oracle_hamiltonian": (("dim_sum", "dense_bytes"),
                               lambda a, k, r: {"dim_sum": r.shape[0], "dense_bytes": r.nbytes}),
        "compare_spectra": ((), _none),
    },
    "algebra": {
        "compose": (("terms_out",), _length("terms_out")),
        "commutator": ((), _none),
        "adjoint": ((), _none),
        "apply": (("attempts",), lambda a, k, r: {"attempts": len(a[0]) * len(a[1])}),
        "inner_product": ((), _none),
    },
    "angular": {
        "total_operator": (("terms",), _length("terms")),
        "j_operator": ((), _none),
    },
    "dsl": {
        "parse": (("chars",), lambda a, k, r: {"chars": len(a[0])}),
        "format_operator": (("chars",), _length("chars")),
        "parse_monomial": ((), _none),
        "format_monomial": ((), _none),
    },
}

# Functions each workload is predicted to reach; a zero count on one of these
# is reported as a missing span.
_SPECTRUM_PATH = {"cli.main", "chain.sector_basis", "chain.build_hamiltonian",
                  "chain.assemble_matrix", "thermo.eigensolve", "thermo.thermo_sweep",
                  "thermo.spectrum_to_json", "thermo.thermo_to_csv",
                  "oracle.oracle_hamiltonian", "oracle.compare_spectra",
                  "algebra.compose", "angular.j_operator"}
EXPECTED = {
    "dense_spectrum": _SPECTRUM_PATH,
    "chain_scan": _SPECTRUM_PATH | {"dsl.format_monomial"},
    "exact_algebra": {"cli.main", "algebra.compose", "algebra.commutator", "algebra.adjoint",
                      "algebra.apply", "algebra.inner_product", "angular.total_operator",
                      "angular.j_operator", "dsl.parse", "dsl.format_operator",
                      "dsl.parse_monomial", "dsl.format_monomial", "thermo.husimi_q"},
}


class Tracer:
    """Spans and per-function totals for one traced run."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, item id)
        self.stack: list = []          # [span index, child seconds] per open call
        self.item = None
        self.totals = {}               # name -> {"calls", "self_s", counters...}
        self.replaced: list = []       # (module, attribute, original function)
        self.missing: list[str] = []   # listed functions not found in the program

    def _wrap(self, name, fn, count):
        totals = self.totals[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (name, start, end, parent, self.item)
                totals["calls"] += 1
                totals["self_s"] += end - start - frame[1]
            for key, value in count(args, kwargs, result).items():
                totals[key] += value
            return result
        return wrapper

    def install(self):
        """Replace every binding of each listed function in loaded bargmann modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bargmann" or n.startswith("bargmann.")]
        for module, funcs in LAYERS.items():
            try:
                home = importlib.import_module(f"bargmann.{module}")
            except ImportError:
                home = None
            for func, (counters, count) in funcs.items():
                name = f"{module}.{func}"
                original = getattr(home, func, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                self.totals[name] = dict.fromkeys(("calls", "self_s") + counters, 0)
                wrapper = self._wrap(name, original, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in self.replaced:
            setattr(mod, attr, original)
        self.replaced.clear()

    def per_layer(self, passes: int) -> dict:
        """Every listed metric, per traced pass; zeros for functions never called."""
        out = {}
        for module, funcs in LAYERS.items():
            for func, (counters, _) in funcs.items():
                name = f"{module}.{func}"
                totals = self.totals.get(name) or dict.fromkeys(("calls", "self_s") + counters, 0)
                for key, value in totals.items():
                    out[f"{name}.{key}"] = value / passes
                if func == "assemble_matrix":
                    out[f"{name}.useful_ratio"] = (totals["nnz"] / totals["attempts"]
                                                   if totals["attempts"] else 0.0)
        return out

    def coverage_gaps(self, workload: str) -> list[str]:
        """Listed functions predicted for this workload that recorded no call."""
        return sorted(name for name in EXPECTED[workload]
                      if name in self.missing or not self.totals.get(name, {}).get("calls"))

    def stage_table(self, item_id: str) -> dict:
        """Inclusive seconds per pipeline stage inside one item, median over passes.

        The first eigensolve of a `verify` item is the sector matrix's; the
        second is the oracle's and is not a pipeline stage.
        """
        stages = {"chain.sector_basis": "basis", "chain.build_hamiltonian": "build",
                  "chain.assemble_matrix": "assemble", "thermo.eigensolve": "eigensolve",
                  "oracle.oracle_hamiltonian": "oracle build"}
        per_pass: list[dict] = []
        for name, start, end, _, item in self.spans:
            if item != item_id or name not in stages:
                continue
            if name == "chain.sector_basis" or not per_pass:
                per_pass.append({})
            per_pass[-1].setdefault(stages[name], end - start)
        table = {}
        for stage in stages.values():
            vals = sorted(p[stage] for p in per_pass if stage in p)
            table[stage] = vals[len(vals) // 2] if vals else None
        return table

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{item}\n")
