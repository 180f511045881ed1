"""One benchmark process: import bargmann, warm up, then run the plan's items
in a closed loop, one after another, until the time budget is spent.

    python3 perfbench/worker.py --plan PLAN --result OUT [--setup-only]
                                [--seconds S] [--trace] [--corrupt]

Whole passes over the item list are run, so every pass has the same mix.
Each item is timed around the call alone; its output is then checked against
the plan's reference outside the timed region.  With --trace, the first half
of the budget runs untraced and the second half with per-layer wrappers
installed.  --corrupt (self-test) runs two passes and damages, in the first,
the output of the first item of each check kind before it is checked.
Results go to the --result file; the orchestrator (run.py) reads them.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bargmann  # noqa: E402
import bargmann.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


def identities(n: int) -> dict:
    sites = range(n)
    jx, jy, jz, j2 = (bargmann.total_operator(k, sites) for k in ("x", "y", "z", "squared"))
    return {"[Jx,Jy]=iJz": bargmann.commutator(jx, jy) == jz.scaled(bargmann.RationalComplex(0, 1)),
            "[J2,Jz]=0": bargmann.commutator(j2, jz).is_zero(),
            "adjoint(J2)=J2": bargmann.adjoint(j2) == j2}


def roundtrip(n: int) -> dict:
    j2 = bargmann.total_operator("squared", range(n))
    return {"parse(format(J2))=J2": bargmann.parse(bargmann.format_operator(j2)) == j2}


CALLS = {"identities": identities, "roundtrip": roundtrip}


def run_item(item: dict, corrupt: bool = False):
    """Run one item; return (seconds, failure reason or None)."""
    argv = item["argv"]
    out_path = argv[argv.index("--out") + 1] if argv else None
    if out_path and os.path.exists(out_path):
        os.unlink(out_path)  # a stale output must not pass the check
    start = time.perf_counter()
    try:
        if argv:
            output = bargmann.cli.main(list(argv))
        else:
            output = CALLS[item["call"]["fn"]](item["call"]["n"])
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        return elapsed, "raised " + traceback.format_exc().strip().splitlines()[-1]
    elapsed = time.perf_counter() - start
    if argv:
        if output != 0:
            return elapsed, f"exit code {output}"
        try:
            with open(out_path, encoding="utf-8") as fh:
                output = fh.read()
        except OSError as e:
            return elapsed, f"no output: {e}"
    kind = item["check"]["kind"]
    if corrupt:
        output = checks.corrupt(kind, output)
    return elapsed, checks.check(kind, output, item["check"])


def run_passes(items, budget, record, tracer=None, corrupt_ids=(), min_passes=1):
    """Whole passes until `budget` seconds have elapsed; returns the pass count."""
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < budget:
        for item in items:
            if tracer is not None:
                tracer.item = item["id"]
            corrupt = passes == 0 and item["id"] in corrupt_ids
            elapsed, failure = run_item(item, corrupt)
            rec = record[item["id"]]
            rec["latencies"].append(elapsed)
            if failure:
                rec["failures"].append({"pass": passes, "reason": failure})
        passes += 1
    return passes


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    _, warmup_failure = run_item(plan["warmup"])
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready, "warmup_failure": warmup_failure}
    if not args.setup_only:
        items = plan["items"]
        record = {it["id"]: {"latencies": [], "failures": []} for it in items}
        corrupt_ids = set()
        if args.corrupt:
            by_kind = {}
            for it in items:
                by_kind.setdefault(it["check"]["kind"], it["id"])
            corrupt_ids = set(by_kind.values())
        budget = args.seconds / 2 if args.trace else args.seconds
        result["passes"] = run_passes(items, budget, record, corrupt_ids=corrupt_ids,
                                      min_passes=2 if args.corrupt else 1)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["blas_threads"] = blas_threads()
        result["corrupted"] = sorted(corrupt_ids)
        if args.trace:
            traced = {it["id"]: {"latencies": [], "failures": []} for it in items}
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result["traced_passes"] = run_passes(items, budget, traced, tracer=tracer)
            finally:
                tracer.uninstall()
            result["traced_items"] = traced
            result["per_layer"] = tracer.per_layer(result["traced_passes"])
            result["coverage_gaps"] = tracer.coverage_gaps(plan["workload"])
            if plan["workload"] == "dense_spectrum":
                result["stage_table"] = tracer.stage_table("s1_2-N10-xxz:verify")
            tracer.write_spans(Path(args.result).with_name("spans.csv"))
        result["items"] = record
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
