"""One cold run of a workload's operations in a fresh process.

Started by run.py as ``python3 perfbench/worker.py <root> <workload> <seed>
<out_dir> <spawn_time> <mode>`` with mode ``setup``, ``plain`` or ``traced``.
Writes its measurements to ``<out_dir>/result.json``.

Set-up is everything before the first operation: interpreter start, imports
and input/config generation.  Each operation is one `nsl` subcommand run
in-process through ``cli.main`` or one named library call; after it, a gate
checks its output against the thresholds the acceptance tests pin.  A failed
gate or a non-zero exit is recorded, never raised.

The speed of a shared host's cores swings by half and more within seconds, so
each time is also given at a reference speed: a fixed probe of benchmark code
(no `nslab` in it) is timed after set-up and after every operation, and an
operation's time is scaled by ``PROBE_REF_S`` over the mean of the probes on
either side of it.  The probe does the same work whatever program is measured,
so a change to the program moves the scaled time as it moves the raw one,
unless it changes what runs beside the probe (BLAS threads left spinning).
Set-up is scaled by the probe right after it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import sys
import time


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _load_json(out, name):
    with open(os.path.join(out, f"{name}.json")) as fh:
        return json.load(fh)


def _load_csv(out, name):
    with open(os.path.join(out, f"{name}.csv")) as fh:
        next(fh)  # schema / config-hash header
        return list(csv.DictReader(fh))


# A round figure near the probe's time on a 2-vCPU Xeon VM; it only sets the
# scale of the reference-speed times.
PROBE_REF_S = 0.06


def _speed_probe() -> float:
    """Seconds taken by fixed work: interpreter loop, FFTs and allocating
    array arithmetic, each ~20 ms, the host's speed now."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    x = np.arange(1 << 14, dtype=float)
    for _ in range(20):
        np.fft.ifft(np.fft.fft(x))
    rows, cols = np.linspace(1.0, 2.0, 16), np.linspace(-3.0, 3.0, 4096)
    for _ in range(20):
        np.exp(1j * np.outer(rows, cols))
    return time.perf_counter() - t0


class GateError(Exception):
    """An operation's output broke a correctness threshold."""


def _require(cond: bool, what: str):
    if not cond:
        raise GateError(what)


# ---------------------------------------------------------------------------
# Gates: each returns the op's worst relative error (or None) or raises
# ---------------------------------------------------------------------------

def gate_sweep(out):
    s = _load_json(out, "reconstruct_sweep")
    _require(s["model"]["form"] == "log", f"model form {s['model']['form']}")
    _require(s["model"]["exponent"] > 0, f"exponent {s['model']['exponent']}")
    pairs = sorted(s["pairs"])
    _require(pairs[0][1] <= pairs[-1][1],
             f"error at smallest noise {pairs[0][1]} > at largest {pairs[-1][1]}")
    return pairs[0][1]


def gate_growth(out):
    rates = _load_json(out, "hilbert_growth")["tail_rates"]
    _require(rates and all(3.2 <= r <= 3.7 for r in rates), f"tail rates {rates}")


def gate_bounds(out):
    v = _load_json(out, "verify_bounds")["violations"]
    _require(v == 0, f"{v} violations")


def gate_crosscheck(out):
    worst = _load_json(out, "operators_crosscheck")["worst_rel_err"]
    _require(worst <= 1e-10, f"worst_rel_err {worst}")
    return worst


_DEFECTS = ("support_defect_b1", "support_defect_b2", "imag_defect_b1", "imag_defect_b2")


def gate_defects(out):
    rows = _load_csv(out, "branchcut_defects")
    n0 = min(int(r["n"]) for r in rows)
    coarse = {r["s"]: r for r in rows if int(r["n"]) == n0}
    fine = {r["s"]: r for r in rows if int(r["n"]) == 2 * n0}
    worst = 0.0
    for s, r in coarse.items():
        for col in _DEFECTS:
            d0, d1 = float(r[col]), float(fine[s][col])
            _require(d0 <= 1e-6, f"s={s} {col} {d0} at n={n0}")
            _require(d1 <= 0.5 * d0, f"s={s} {col} not halved: {d0} -> {d1}")
            worst = max(worst, d0)
    return worst


def gate_fraclap(out):
    model = _load_json(out, "branchcut_stability")["model"]
    _require(model["form"] == "exp" and math.isfinite(model["exponent"]),
             f"model {model}")


def gate_three_balls(out):
    n1, n2, n4 = _load_json(out, "continuation_three_balls")["norms"]
    _require(n1 <= n2 <= n4, f"norms {n1}, {n2}, {n4}")


def gate_propagate(out):
    s = _load_json(out, "continuation_propagate")
    _require(math.isfinite(s["best_bound"]) and s["best_bound"] > 0,
             f"best_bound {s['best_bound']}")


def gate_cost_curve(out):
    for r in _load_csv(out, "runge_cost_curve"):
        _require(float(r["achieved"]) <= float(r["eps"]),
                 f"achieved {r['achieved']} > eps {r['eps']}")
    mu = _load_json(out, "runge_cost_curve")["fit"]["mu_hat"]
    _require(mu > 0, f"mu_hat {mu}")


def gate_dual_ucp(out):
    d = _load_json(out, "runge_dual_ucp")["reciprocity_defect"]
    _require(d <= 1e-8, f"reciprocity_defect {d}")


def gate_slice(out):
    s = _load_json(out, "slice_experiment_2d")
    _require(s["rows"] and math.isfinite(s["aggregate"]) and s["aggregate"] > 0,
             f"aggregate {s['aggregate']} over {len(s['rows'])} rows")


# ---------------------------------------------------------------------------
# Workloads: (op name, nsl arguments or library call, config, gate)
# ---------------------------------------------------------------------------

# Every iteration is a cold process and a run reports the median of its
# iterations, so short iterations make steadier figures.  The default sweep
# (64 samples on a 4096 grid, J=(1.05,2.05)) runs ~85 s cold.  This one keeps
# its shape (Hilbert, I=(0,1), 5 noise levels x 3 trials, N_max=10, 256 bits)
# in ~2 s: 18 samples cap every fit at 8 + 1 columns, so each run builds
# exactly one design whatever orders the noise draws select, and a window at
# distance 0.25 from I needs a ~860-term far-field tail instead of ~3,900.
SWEEP_CONFIG = {"num_samples": "18", "grid_n": "2048", "J": "1.25,2.25"}
# 12 crosscheck points and one s in the defects op (the default has two).
CROSSCHECK_CONFIG = {"points": "12"}
DEFECTS_CONFIG = {"s_values": "0.75"}
RUNGE_CONFIG = {"grid_n": "2048"}

WORKLOADS = {
    "inverse": [
        ("reconstruct-sweep", ["reconstruct", "sweep"], SWEEP_CONFIG, gate_sweep),
        ("moments-hilbert-growth", ["moments", "hilbert-growth", "--nmax", "20"],
         None, gate_growth),
        ("moments-verify-bounds", ["moments", "verify-bounds"], None, gate_bounds),
    ],
    "crosscheck": [
        ("operators-crosscheck", ["operators", "crosscheck"], CROSSCHECK_CONFIG,
         gate_crosscheck),
    ],
    "nonlocal": [
        ("branchcut-defects", ["branchcut", "defects"], DEFECTS_CONFIG, gate_defects),
        ("branchcut-stability", ["branchcut", "stability"], None, gate_fraclap),
        ("slice-experiment-2d", "slice", None, gate_slice),
        ("continuation-three-balls", ["continuation", "three-balls"], None,
         gate_three_balls),
        ("continuation-propagate", ["continuation", "propagate"], None,
         gate_propagate),
        ("runge-cost-curve", ["runge", "cost-curve"], RUNGE_CONFIG, gate_cost_curve),
        ("runge-dual-ucp", ["runge", "dual-ucp"], RUNGE_CONFIG, gate_dual_ucp),
    ],
}


def _slice_input():
    import numpy as np
    from nslab.gridfn import Grid, Interval, make_bump
    grid = Grid(8.0, 1024)
    g2 = np.outer(make_bump(Interval(-1.0, 1.0), 0.0, 1.0, grid).values,
                  make_bump(Interval(-0.8, 0.8), 0.0, 1.0, grid).values)
    return grid, g2


def _run_slice(inputs, out):
    from nslab import branchcut
    from nslab.gridfn import Interval
    grid, g2 = inputs
    res = branchcut.slice_experiment_2d(
        g2, grid, 0.75, "neg_dxx1", Interval(-0.5, 0.5), Interval(-0.8, 0.8),
        Interval(-3.0, -1.5), Interval(1.5, 3.0))
    with open(os.path.join(out, "slice_experiment_2d.json"), "w") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _run_cli(main, argv) -> int:
    import click
    try:
        main.main(argv, standalone_mode=False)
    except click.ClickException as exc:
        print(f"{argv}: {exc.format_message()}", file=sys.stderr)
        return exc.exit_code
    return 0


def main(argv):
    root, workload, seed, out, spawn, mode = argv
    seed, spawn = int(seed), float(spawn)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nslab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"nslab imported from {cli.__file__}, not from {src}")

    ops = []
    for name, call, config, gate in WORKLOADS[workload]:
        if call == "slice":
            inputs = _slice_input()
            ops.append((name, lambda inputs=inputs: _run_slice(inputs, out), gate))
            continue
        args = ["--seed", str(seed), "--out", out]
        if config:
            path = os.path.join(out, f"{name}.cfg")
            with open(path, "w") as fh:
                fh.writelines(f"{k}={v}\n" for k, v in config.items())
            args = ["--config", path] + args
        ops.append((name, lambda argv=args + call: _run_cli(cli.main, argv), gate))
    setup = time.time() - spawn
    _speed_probe()  # the first call pays numpy's FFT set-up
    probe = _speed_probe()
    result = {"setup_s": setup, "ref_setup_s": setup * PROBE_REF_S / probe}

    if mode != "setup":
        tracer = None
        if mode == "traced":
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        records, worst_err = [], 0.0
        wall = cpu = ref_wall = ref_cpu = 0.0
        for name, run, gate in ops:
            before = set(os.listdir(out))
            c0, t0 = _cpu(), time.perf_counter()
            try:
                code = run()
            except Exception as exc:  # counted as a failed op; the run goes on
                print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            dt, dc = time.perf_counter() - t0, _cpu() - c0
            prev, probe = probe, _speed_probe()
            scale = 2 * PROBE_REF_S / (prev + probe)
            wall, cpu = wall + dt, cpu + dc
            ref_wall, ref_cpu = ref_wall + dt * scale, ref_cpu + dc * scale
            rec = {"op": name, "wall_s": dt, "cpu_s": dc, "ref_scale": scale,
                   "exit": code,
                   "files": sorted(set(os.listdir(out)) - before), "error": None}
            if code == 0:
                try:
                    err = gate(out)
                    if err is not None:
                        worst_err = max(worst_err, err)
                except Exception as exc:  # a missing or malformed artifact fails too
                    rec["error"] = f"{type(exc).__name__}: {exc}"
            else:
                rec["error"] = f"exit code {code}"
            records.append(rec)
        result.update(
            wall_s=wall, cpu_s=cpu, ref_wall_s=ref_wall, ref_cpu_s=ref_cpu,
            ops=records,
            accuracy_digits=-math.log10(worst_err) if worst_err > 0 else None,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result.update(layers=tracer.metrics(), absent=tracer.absent,
                          top_level_s=tracer.top_level_s)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
