#!/usr/bin/env python3
"""Benchmark for bargmann: batch workloads timed end to end, plus a traced
per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--workload NAME]

The run builds the workload's inputs and references from the seed, times the
set-up of fresh worker processes, then has one worker run the items in a
closed loop for S seconds.  The last line of stdout is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
BENCHMARK.json at the repository root declares the gated workloads, the run
length and the metrics; exact_algebra is not declared there (see README.md)
but runs the same way by name.

Everything the run writes goes under .perfbench_runs/<workload>-seed<N>-trace<T>/:
the generated inputs, each item's argv, latencies and failures, the
environment, and (traced) the spans.  An item is replayed from the
repository root with `bargmann <argv>` or `PYTHONPATH=src python3 -m
bargmann.cli <argv>`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, build_plan

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path(".perfbench_runs")
SETUP_PROBES = 4          # set-ups timed besides the measuring worker's own
DEADLINE_S = 170.0        # the whole run must end within 180 s
TAIL_BEYOND = 10          # samples required beyond the tail percentile
# Every end-to-end metric a run prints.  BENCHMARK.json declares, with a bound,
# only those steady enough across runs to gate a change; see README.md.
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s",
         "peak_rss_mb": "MB", "failed_frac": "ratio"}


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"git_commit": git_commit(ROOT), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


class RunError(RuntimeError):
    pass


def spawn_worker(run_dir: Path, name: str, deadline: float, *flags) -> tuple[float, dict]:
    """Start a worker and wait for it; return (seconds from spawn to ready, result)."""
    result_path = run_dir / f"{name}.json"
    cmd = [sys.executable, "perfbench/worker.py", "--plan", str(run_dir / "plan.json"),
           "--result", str(result_path), *flags]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {name} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker {name} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ready"] - spawned, result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt: bool = False) -> dict:

    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = build_plan(workload, seed, run_dir)
    (run_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    probes = 0 if trace or corrupt else SETUP_PROBES
    setups = [spawn_worker(run_dir, f"setup{k}", deadline, "--setup-only")[0] for k in range(probes)]
    flags = ["--seconds", str(seconds)] + ["--trace"] * trace + ["--corrupt"] * corrupt
    setup, res = spawn_worker(run_dir, "worker", deadline, *flags)
    setups.append(setup)

    items = plan["items"]
    rec = res["items"]
    per_item = [statistics.median(rec[it["id"]]["latencies"]) for it in items]
    total_s = sum(sum(rec[it["id"]]["latencies"]) for it in items)
    attempted = len(items) * res["passes"]
    failed = sum(len(rec[it["id"]]["failures"]) for it in items)
    tail_s, tail_pct = tail(per_item)
    out = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": {**environment(), "blas_threads": res["blas_threads"]},
        "passes": res["passes"], "attempted": attempted, "failed": failed,
        "warmup_failure": res["warmup_failure"], "corrupted": res["corrupted"],
        "tail_percentile": tail_pct, "setup_samples_s": setups,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "items_per_s": (attempted - failed) / total_s,
            "item_p50_s": statistics.median(per_item),
            "item_tail_s": tail_s,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "failed_frac": failed / attempted,
        },
        "items": [{"id": it["id"], "argv": it["argv"], "call": it["call"],
                   **rec[it["id"]]} for it in items],
    }
    if trace:
        traced = res["traced_items"]
        traced_s = sum(sum(traced[it["id"]]["latencies"]) for it in items)
        out["traced_passes"] = res["traced_passes"]
        out["attempted"] += len(items) * res["traced_passes"]
        out["failed"] += sum(len(traced[it["id"]]["failures"]) for it in items)
        out["per_layer"] = {**res["per_layer"], "trace.overhead_frac":
                            (traced_s / res["traced_passes"]) / (total_s / res["passes"]) - 1}
        out["coverage_gaps"] = res["coverage_gaps"]
        out["stage_table"] = res.get("stage_table")
    (run_dir / "result.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    return out


def report(out: dict, declared: dict) -> None:
    """Print the metrics by name and unit, then the JSON result line."""
    e2e = out["end_to_end"]
    n = len(out["items"])
    print(f"workload {out['workload']}  seed {out['seed']}  commit {out['environment']['git_commit']}")
    print(f"  {out['passes']} passes of {n} items, one client, closed loop; "
          f"results in {RUNS}/{out['workload']}-seed{out['seed']}-trace{int(out['trace'])}/")
    notes = {"setup_s": f"median of {len(out['setup_samples_s'])} set-ups",
             "item_p50_s": f"median of {n} items, each the median of its passes",
             "item_tail_s": f"p{out['tail_percentile']:.1f} of {n} items, "
                            f"{TAIL_BEYOND} samples beyond it",
             "failed_frac": f"{out['failed']} of {out['attempted']} attempted"}
    for name, value in e2e.items():
        print(f"  {name:<13} {value:12.6g} {UNITS[name]:<6} {notes.get(name, '')}")
    if out["warmup_failure"]:
        print(f"  warm-up item failed: {out['warmup_failure']}")
    for item in out["items"]:
        for failure in item["failures"]:
            print(f"  FAILED {item['id']} (pass {failure['pass']}): {failure['reason']}")
    if out["trace"]:
        print(f"  traced: {out['traced_passes']} passes, overhead "
              f"{out['per_layer']['trace.overhead_frac']:+.3%} of untraced wall time")
        for name in out["coverage_gaps"]:
            print(f"  MISSING SPAN: {name} recorded no call on {out['workload']}")
        for name, value in out["per_layer"].items():
            if value:
                print(f"  {name:<40} {value:14.6g}")
        if out["stage_table"]:
            print_stage_table(out["stage_table"])
        metrics = {m["name"]: {"value": out["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    correct = out["failed"] == 0 and out["warmup_failure"] is None
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def print_stage_table(table: dict) -> None:
    """The spin-1/2 N=10 verify item in the shape of the ROADMAP baseline table."""
    cells = " | ".join("-" if v is None else f"{v:.3g} s" for v in table.values())
    print("  | N, s | dim | " + " | ".join(table) + " |")
    print("  |---|---|" + "---|" * len(table))
    print("  | 10, 1/2 (hand-measured baseline) | 1024 | 0.06 s | 0.02 s | 0.48 s | 1.6 s | 1.1 s |")
    print(f"  | 10, 1/2 (traced verify item) | 1024 | {cells} |")


def selftest(workloads: list[str]) -> int:
    """Corrupt the first output of each check kind and require exactly those to fail."""
    ok = True
    for workload in workloads:
        out = run(workload, seed=1, seconds=0.0, trace=False, corrupt=True)
        failed_ids = sorted({it["id"] for it in out["items"] for f in it["failures"]})
        by_pass = [sum(1 for it in out["items"] for f in it["failures"] if f["pass"] == p)
                   / len(out["items"]) for p in range(out["passes"])]
        good = failed_ids == out["corrupted"] and by_pass[-1] == 0 and out["warmup_failure"] is None
        ok &= good
        print(f"self-test {workload}: corrupted {len(out['corrupted'])} outputs; "
              f"failed_frac per pass {by_pass}; failed items match: {good}")
    return 0 if ok else 1


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show that corrupted outputs are counted as failures")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bargmann" / "__init__.py").is_file():
        print(f"perfbench: no bargmann sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        if args.selftest:
            return selftest(workloads)
        for workload in workloads:
            report(run(workload, args.seed, args.seconds, bool(args.trace)), declared)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
