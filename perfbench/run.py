"""Layered benchmark for nslab.

    python3 perfbench/run.py --workload {inverse,crosscheck,nonlocal} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` and nowhere else, and the run fails (non-zero exit, no result) when
``src/nslab`` is missing.  Every iteration of a workload runs in a fresh
process (worker.py), so each starts with the cold caches a user's `nsl` call
starts with.  A run first times set-up alone a few times, then repeats the
workload until `--seconds` have been measured (at least twice, so reruns can
be compared byte for byte), and reports medians.  Iterations are kept short
so that a run holds several.

Times are reported at a reference speed (see worker.py): on a shared host the
raw time of the same iteration varies by tens of percent from one minute to
the next, and scaling each operation by a probe timed next to it takes most of
that out.  ``ref_wall_s`` and ``ref_cpu_s`` are the ops' wall and CPU time so
scaled, and ``setup_s`` is the set-up time scaled by the probe right after
it; the raw medians are in the report line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced iterations alternate and it carries the
per-layer metrics, including the tracing overhead.  The line before it is a
report with the environment, per-op outcomes and sample counts.  Outputs go to
``.bench_out/`` in the checkout and are removed at the end of the run; the
bytecode cache there is kept.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import COLD_WARM, LAYERS, WORK_NAMES  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_RUNS = 5          # set-up-only processes per run, besides each iteration's
MIN_ITERATIONS = 2
RUN_LIMIT_S = 150.0     # no iteration starts that could end past this
E2E = {"ref_wall_s": "s", "ref_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
       "accuracy_digits": "digits"}


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            name = f"{mod}.{fn}"
            units.update({f"{name}.calls": "count", f"{name}.total_s": "s",
                          f"{name}.self_s": "s"})
            if fn in WORK_NAMES:
                units[f"{name}.{WORK_NAMES[fn]}"] = "count"
            if name in COLD_WARM:
                units.update({f"{name}.p50_s": "s", f"{name}.max_s": "s"})
    units["cli.artifacts.total_s"] = "s"
    for ops in WORKLOADS.values():
        for op, call, _, _ in ops:
            if call != "slice":
                units[f"cli.{op}.wall_s"] = "s"
    units.update({"trace.overhead_s": "s", "trace.top_level_share": "ratio"})
    return units


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import numpy  # noqa: F401  (loads its OpenBLAS)
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "openblas_threads": openblas_threads(), "seed": seed,
            "computed_counts": "points and matrix_elems are computed from "
                               "argument shapes, not measured traffic"}


class Runner:
    def __init__(self, root, workload, seed, out):
        self.root, self.workload, self.seed, self.out = root, workload, seed, out
        drop = ("NSL_THREADS", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # bytecode is written inside the checkout, never next to the installed
        # packages, and kept across runs: the first run in a checkout compiles
        # and later ones load the cache, as an installed nsl does
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_out", "pycache")
        self.count = 0

    def spawn(self, mode: str, timeout: float):
        """One worker process; returns (result dict or None, its out dir)."""
        out = os.path.join(self.out, f"{self.count:03d}-{mode}")
        self.count += 1
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.root,
               self.workload, str(self.seed), out, repr(time.time()), mode]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err += f"\nworker killed after {timeout:.0f} s"
        if err.strip():
            sys.stderr.write(err)
        path = os.path.join(out, "result.json")
        if proc.returncode != 0 or not os.path.exists(path):
            return None, out
        with open(path) as fh:
            return json.load(fh), out


def same_bytes(ref_dir, ref_rec, out_dir, rec) -> bool:
    if rec["files"] != ref_rec["files"]:
        return False
    return all(filecmp.cmp(os.path.join(ref_dir, f), os.path.join(out_dir, f),
                           shallow=False) for f in rec["files"])


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nslab", "cli.py")):
        sys.exit(f"no nslab sources under {root}/src: run from a checkout root")
    out_root = os.path.join(root, ".bench_out",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    try:
        result, report = run(Runner(root, args.workload, args.seed, out_root), args)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    report["environment"] = environment(args.seed)
    if result is None:
        sys.exit("no result: " + json.dumps(report, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))


def run(runner: Runner, args):
    t_start = time.perf_counter()
    elapsed = lambda: time.perf_counter() - t_start  # noqa: E731
    n_ops = len(WORKLOADS[args.workload])

    setups = []
    for i in range(SETUP_RUNS + 1):
        res, _ = runner.spawn("setup", RUN_LIMIT_S - elapsed())
        if res is None:
            return None, {"error": "set-up failed"}
        if i > 0:  # the first one fills the bytecode and file caches
            setups.append(res)

    plain, traced, iter_times = [], [], []
    attempted = failed = 0
    ref = None          # (out dir, op records) of the first iteration
    op_failures = {}
    while True:
        mode = "traced" if args.trace and len(plain) > len(traced) else "plain"
        t0 = elapsed()
        res, out = runner.spawn(mode, RUN_LIMIT_S + 25 - t0)
        iter_times.append(elapsed() - t0)
        attempted += n_ops
        if res is None:
            failed += n_ops
            op_failures["worker"] = op_failures.get("worker", 0) + 1
        else:
            setups.append(res)
            (traced if mode == "traced" else plain).append(res)
            if ref is None:
                ref = (out, res["ops"])
            for i, rec in enumerate(res["ops"]):
                bad = rec["error"]
                if bad is None and not same_bytes(ref[0], ref[1][i], out, rec):
                    bad = "artifacts differ from the first iteration"
                if bad is not None:
                    failed += 1
                    op_failures[rec["op"]] = bad
        enough = len(iter_times) >= MIN_ITERATIONS and (traced or not args.trace)
        # another iteration if it ends nearer to --seconds than stopping now
        if enough and elapsed() + median(iter_times) / 2 > args.seconds:
            break
        if elapsed() + max(iter_times) > RUN_LIMIT_S:
            break

    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "iterations": len(iter_times),
              "untraced_samples": len(plain), "traced_samples": len(traced),
              "setup_samples": len(setups), "op_failures": op_failures,
              "iteration_wall_s": [r["wall_s"] for r in plain + traced],
              "raw_median": {k: median([r[k] for r in rs]) for k, rs in
                             (("wall_s", plain), ("cpu_s", plain), ("setup_s", setups))},
              "op_wall_s": {rec["op"]: median([r["ops"][i]["wall_s"] for r in plain])
                            for i, rec in enumerate(plain[0]["ops"])} if plain else {}}
    if not plain or (args.trace and not traced):
        return None, report

    if args.trace:
        metrics = trace_metrics(plain, traced)
        report["absent"] = traced[0]["absent"]
    else:
        digits = [r["accuracy_digits"] for r in plain if r["accuracy_digits"] is not None]
        vals = {"ref_wall_s": median([r["ref_wall_s"] for r in plain]),
                "ref_cpu_s": median([r["ref_cpu_s"] for r in plain]),
                "setup_s": median([r["ref_setup_s"] for r in setups]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
                "accuracy_digits": median(digits)}
        metrics = {k: {"value": v, "unit": E2E[k]} for k, v in vals.items()}
    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def trace_metrics(plain, traced):
    units = layer_units()
    vals = {}
    for name in units:
        if name in ("trace.overhead_s", "trace.top_level_share"):
            continue
        if name.startswith("cli.") and name.endswith(".wall_s"):
            op = name[len("cli."):-len(".wall_s")]
            per = [next((o["wall_s"] for o in r["ops"] if o["op"] == op), 0.0)
                   for r in traced]
        else:
            per = [r["layers"].get(name, 0) for r in traced]
        vals[name] = median(per)
    # traced[k] ran right after plain[k]: pairing them cancels slow drift
    vals["trace.overhead_s"] = median(
        [t["ref_wall_s"] - p["ref_wall_s"] for p, t in zip(plain, traced)])
    vals["trace.top_level_share"] = median(
        [r["top_level_s"] / r["wall_s"] for r in traced])
    return {k: {"value": v, "unit": units[k]} for k, v in vals.items()}


if __name__ == "__main__":
    main()
