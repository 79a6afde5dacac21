"""Experiment runner: every module exposed as reproducible commands.

Each subcommand reads a flat key=value config (plus CLI overrides), runs one
experiment, and writes CSV (with a schema-version/config-hash header row),
a JSON summary, and a static SVG plot into the output directory.  Its config
keys and their defaults are declared in one table (`_experiment`), which
`nsl <group> <cmd> --help` lists; an undeclared key, a malformed value or a
non-finite float is a validation error.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 64 usage.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os

import click
import numpy as np

from . import branchcut, continuation, moments, multiplier, reconstruct, runge
from .gridfn import Grid, Interval, SampledFunction, make_bump, norm

SCHEMA_VERSION = "nsl-csv-1"

click.UsageError.exit_code = 64


# ---------------------------------------------------------------------------
# Config and artifact plumbing
# ---------------------------------------------------------------------------

def _load_config(path) -> dict:
    cfg = {}
    if path is None:
        return cfg
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _Invalid(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _cast(kind, raw: str):
    """raw as `kind`: an Interval from 'a,b', else int, float or str; a float
    must be finite."""
    if kind is Interval:
        parts = raw.split(",")
        if len(parts) != 2:
            raise ValueError("expected 'a,b'")
        return Interval(*(_cast(float, v) for v in parts))
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw}")
    return value


def _read_keys(cfg: dict, keys: dict) -> dict:
    """Every declared key, cast from cfg to its default's type or defaulted; a
    bare type declares a key without default, left out unless set."""
    p = {k: d for k, d in keys.items() if not isinstance(d, type)}
    for key, raw in cfg.items():
        if key not in keys:
            raise _Invalid(f"config key {key!r} is not read by this command; "
                           f"its keys are: {', '.join(keys) or 'none'}")
        kind = keys[key] if isinstance(keys[key], type) else type(keys[key])
        try:
            p[key] = _cast(kind, raw)
        except ValueError as exc:
            raise _Invalid(f"config key {key!r}: {exc}")
    return p


def _config_hash(cfg: dict, seed: int, opts: dict) -> str:
    """Hash of the config, the seed and the command's options."""
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    canon += f"\nseed={seed}"
    canon += "".join(f"\n--{k}={opts[k]}" for k in sorted(opts))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class _Invalid(click.ClickException):
    exit_code = 2


def _at_least(name: str, value: int, low: int) -> int:
    """value, or a validation error (exit 2) naming the option and its bound."""
    if value < low:
        raise _Invalid(f"{name}: must be >= {low}, got {value}")
    return value


def _nonzero(key: str, size: float, where: str) -> float:
    """size, or a validation error (exit 2) naming the key whose bump it measures."""
    if size == 0:
        raise _Invalid(f"{key}: the bump vanishes at every grid node of {where}")
    return size


class _NumericalFailure(click.ClickException):
    exit_code = 3


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


class Artifacts:
    """Single collector for all output files of one experiment run."""

    def __init__(self, out_dir: str, name: str, cfg_hash: str):
        self.dir = out_dir
        self.name = name
        self.hash = cfg_hash
        os.makedirs(out_dir, exist_ok=True)

    def _path(self, ext: str) -> str:
        return os.path.join(self.dir, f"{self.name}.{ext}")

    def csv(self, columns, rows):
        with open(self._path("csv"), "w") as fh:
            fh.write(f"# schema={SCHEMA_VERSION} config_hash={self.hash}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")

    def json(self, summary: dict):
        payload = {"schema": SCHEMA_VERSION, "config_hash": self.hash,
                   **summary}
        with open(self._path("json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")

    def svg(self, x, y, xlabel: str, ylabel: str, logx=False, logy=False):
        """Hand-rolled static polyline plot; no plotting dependency."""
        x = [math.log10(v) for v in x] if logx else list(map(float, x))
        y = [math.log10(v) for v in y] if logy else list(map(float, y))
        W, H, m = 480, 320, 50
        x0, x1 = min(x), max(x)
        y0, y1 = min(y), max(y)
        sx = (W - 2 * m) / (x1 - x0) if x1 > x0 else 1.0
        sy = (H - 2 * m) / (y1 - y0) if y1 > y0 else 1.0
        pts = " ".join(f"{m + (a - x0) * sx:.1f},{H - m - (b - y0) * sy:.1f}"
                       for a, b in zip(x, y))
        lx = ("log10 " if logx else "") + xlabel
        ly = ("log10 " if logy else "") + ylabel
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">\n'
            f'<rect width="{W}" height="{H}" fill="white"/>\n'
            f'<line x1="{m}" y1="{H - m}" x2="{W - m}" y2="{H - m}" stroke="black"/>\n'
            f'<line x1="{m}" y1="{m}" x2="{m}" y2="{H - m}" stroke="black"/>\n'
            f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
            f'<text x="{W // 2}" y="{H - 12}" font-size="12" text-anchor="middle">{lx}</text>\n'
            f'<text x="14" y="{H // 2}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 14 {H // 2})">{ly}</text>\n'
            f'<text x="{W - m}" y="{m - 8}" font-size="9" text-anchor="end">'
            f'config {self.hash}</text>\n</svg>\n')
        with open(self._path("svg"), "w") as fh:
            fh.write(svg)


def _show(default) -> str:
    if isinstance(default, type):
        return f"{default.__name__}, no default"
    if isinstance(default, Interval):
        return f"{default.a!r},{default.b!r}"
    return _fmt(default)


def _experiment(group, command: str, name: str, keys: dict, *options):
    """Register run(obj, art, p, **options) as `nsl <group> <command>`.

    `keys` maps each config key the command reads to its default (see
    `_read_keys`); p holds their values and `--help` lists them.  The summary
    run returns is written as JSON; ValueError exits 2 and numerical failure
    exits 3.
    """
    def register(run):
        table = "\n".join(f"  {k} = {_show(d)}" for k, d in keys.items())
        doc = (f"{inspect.getdoc(run)}\n\n\b\nConfig keys and defaults:\n"
               f"{table or '  none'}")

        @click.pass_obj
        def cmd(obj, **opts):
            p = _read_keys(obj["cfg"], keys)
            art = Artifacts(obj["out"], name, _config_hash(obj["cfg"], obj["seed"], opts))
            try:
                summary = run(obj, art, p, **opts)
            except ValueError as exc:
                raise _Invalid(str(exc))
            except (np.linalg.LinAlgError, ArithmeticError, FloatingPointError) as exc:
                raise _NumericalFailure(str(exc))
            art.json(summary)
            click.echo(f"{name}: wrote artifacts to {art.dir} (config {art.hash})")

        return group.command(command, help=doc, params=list(options))(cmd)
    return register


@click.group()
@click.option("--config", type=click.Path(exists=True), default=None,
              help="flat key=value config file")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.pass_context
def main(ctx, config, seed, out):
    """Moment-inversion, comparison-operator, continuation, and
    exterior-approximation experiments."""
    ctx.obj = {"cfg": _load_config(config), "seed": seed, "out": out}


# config keys shared by several commands
_GRID = {"grid_L": 8.0, "grid_n": 4096}
_FIELD = {"grid_L": 8.0, "grid_n": 1024, "support": Interval(1.0, 2.0),
          "sharpness": 1.0, "y_top": 1.0, "y_levels": 129}
_RUNGE = {"grid_L": 4.0, "grid_n": 512, "s": 0.6, "q": 0.0,
          "Omega": Interval(-1.0, 1.0), "W": Interval(1.02, 3.8)}


@main.group("moments")
def moments_grp():
    """Exact moment algebra and conditioning diagnostics."""


@_experiment(moments_grp, "hilbert-growth", "hilbert_growth", {},
             click.Option(["--nmax"], type=int, default=20, show_default=True))
def hilbert_growth(obj, art, p, nmax):
    """Growth rate of sigma_max(H_N^{-1}) against N.

    The final CSV column is the per-step growth rate of log sigma_max as N+1
    increases by one; the raw quotient log(sigma)/(N+1) converges to the same
    limit but carries a subexponential-prefactor bias of order log(N)/N that
    keeps it visibly below the limit in this N range.
    """
    _at_least("--nmax", nmax, 0)
    rows, prev = [], None
    for N in range(nmax + 1):
        # 64 bits, the least width: the stop test certifies the printed double at every width
        sig = float(moments.hilbert_inverse_sigma_max(N, moments.PrecisionConfig(bits=64)))
        rate = math.log(sig) - math.log(prev) if prev else 0.0
        rows.append({"N": N, "sigma_max": sig, "log_sigma_over_Nplus1": rate})
        prev = sig
    art.csv(["N", "sigma_max", "log_sigma_over_Nplus1"], rows)
    art.svg([r["N"] for r in rows], [r["sigma_max"] for r in rows],
            "N", "sigma_max(H_N^-1)", logy=True)
    tail = [r["log_sigma_over_Nplus1"] for r in rows if r["N"] >= 10]
    return {"nmax": nmax, "tail_rates": tail,
            "tail_rate_range": [min(tail), max(tail)] if tail else None}


@_experiment(moments_grp, "verify-bounds", "verify_bounds",
             {"interval": Interval(0.1, 0.9)},
             click.Option(["--npoly"], type=int, default=50, show_default=True),
             click.Option(["--degree"], type=int, default=10, show_default=True))
def verify_bounds(obj, art, p, npoly, degree):
    """Moment stability bound over random polynomials."""
    _at_least("--npoly", npoly, 1)
    _at_least("--degree", degree, 0)
    rng = np.random.default_rng(obj["seed"])
    coeffs = [rng.standard_normal(degree + 1).tolist() for _ in range(npoly)]
    rows, violations = [], 0
    for k, bounds in enumerate(moments.verify_festmom_stack(coeffs, p["interval"], 8)):
        for N in range(1, 9):
            lhs, rhs, holds = bounds[N]
            violations += 0 if holds else 1
            rows.append({"poly": k, "N": N, "lhs": float(lhs),
                         "rhs": float(rhs), "holds": int(holds)})
    art.csv(["poly", "N", "lhs", "rhs", "holds"], rows)
    return {"npoly": npoly, "degree": degree, "violations": violations}


@main.group("reconstruct")
def reconstruct_grp():
    """Moment recovery from remote operator samples."""


@_experiment(reconstruct_grp, "sweep", "reconstruct_sweep", {
    "I": Interval(0.0, 1.0), "J": Interval(1.05, 2.05), "operator": "Hilbert",
    "delta": float, "alpha": float, "beta": float, **_GRID,
    "support": Interval(0.2, 0.8), "center_offset": 0.0, "sharpness": 1.0,
    "noise_levels": 5, "trials": 3, "num_samples": 64, "N_max": 10,
    "tau": 1.5})
def sweep_cmd(obj, art, p):
    """Noise sweep of the inversion pipeline with a log-modulus fit; the symbol
    parameters delta, alpha and beta are passed to the operator when set."""
    I, J = p["I"], p["J"]
    if not (I.b <= J.a or J.b <= I.a):
        raise _Invalid(
            "I and J overlap: the remote-sampling hypothesis (data taken "
            "at positive distance from the source interval) is violated")
    grid = Grid(p["grid_L"], p["grid_n"])
    f = make_bump(p["support"], p["center_offset"], p["sharpness"], grid)
    f = SampledFunction(grid, f.values / _nonzero("support", norm(f, "L2", region=I), "I"))
    levels = [10.0 ** (-2 - k) for k in range(p["noise_levels"])]
    curve = reconstruct.stability_sweep(
        p["operator"], f, I, J, levels, trials=p["trials"], seed=obj["seed"],
        num_samples=p["num_samples"], N_max=p["N_max"], tau=p["tau"],
        **{k: p[k] for k in ("delta", "alpha", "beta") if k in p})
    art.csv(["operator", "delta_noise", "trial", "N", "error_L2"], curve.rows)
    deltas, errs = zip(*curve.pairs)
    art.svg(deltas, errs, "delta_noise", "error_L2", logx=True, logy=True)
    return {"operator": p["operator"], "model": curve.model,
            "r_squared": curve.r_squared, "pairs": curve.pairs}


@main.group("operators")
def operators_grp():
    """Multiplier/quadrature cross-checks."""


@_experiment(operators_grp, "crosscheck", "operators_crosscheck", {
    "I": Interval(-1.0, 1.0), "J": Interval(1.5, 3.5), **_GRID,
    "sharpness": 1.0, "points": 16})
def crosscheck(obj, art, p):
    """FFT multiplier vs independent quadrature on remote sample points."""
    I, J, grid = p["I"], p["J"], Grid(p["grid_L"], p["grid_n"])
    f = make_bump(I, 0.0, p["sharpness"], grid)
    _nonzero("I", np.abs(f.values).max(), "I")
    # the sample points are grid nodes, where the dealiased output is read directly
    idx = np.flatnonzero(J.contains(grid.x))
    if not idx.size:
        raise ValueError(f"J = [{J.a}, {J.b}] holds no grid node")
    num = _at_least("config key 'points'", p["points"], 1)
    nodes = np.linspace(idx[0], idx[-1], num).astype(int)
    pts = grid.x[nodes]
    cases = [("Hilbert", multiplier.symbol("HilbertSign")),
             ("ModifiedHilbert_0.1", multiplier.symbol("ModifiedCoth", delta=0.1)),
             ("ModifiedHilbert_1", multiplier.symbol("ModifiedCoth", delta=1.0)),
             ("RieszInverse_0.25", multiplier.symbol("RieszInverse", alpha=0.25)),
             ("RieszInverse_0.75", multiplier.symbol("RieszInverse", alpha=0.75))]
    oracle = multiplier.oracle_symbols([spec for _, spec in cases], f, I, pts)
    rows, worst = [], 0.0
    for (name, spec), ov in zip(cases, oracle):
        fv = multiplier.apply_dealiased(spec, f).values[nodes]
        scale = float(np.max(np.abs(ov)))
        for x, a, b in zip(pts, fv, ov):
            rel = abs(a - b) / scale
            worst = max(worst, rel)
            rows.append({"operator": name, "x": float(x),
                         "fft": float(np.real(a)), "oracle": float(np.real(b)),
                         "rel_err": float(rel)})
    art.csv(["operator", "x", "fft", "oracle", "rel_err"], rows)
    return {"worst_rel_err": worst, "operators": [c[0] for c in cases]}


@main.group("branchcut")
def branchcut_grp():
    """Branch-cut comparison operators for the fractional Laplacian."""


@_experiment(branchcut_grp, "defects", "branchcut_defects", {
    "I": Interval(-1.0, 1.0), **_GRID, "s_values": "0.6,0.75",
    "J_left": Interval(-3.0, -2.0), "J_right": Interval(2.0, 3.0),
    "sharpness": 1.0})
def defects_cmd(obj, art, p):
    """Support and imaginary-part defects under grid refinement."""
    n0 = p["grid_n"]
    try:
        s_list = [_cast(float, v) for v in p["s_values"].split(",")]
    except ValueError as exc:
        raise _Invalid(f"config key 's_values': {exc}")
    rows = []
    for n in (n0, 2 * n0):
        g = make_bump(p["I"], 0.0, p["sharpness"], Grid(p["grid_L"], n))
        for s in s_list:
            pair = branchcut.comparison_pair(g, s)
            rows.append({"n": n, "s": s,
                         **branchcut.defects(pair, p["J_left"], p["J_right"]),
                         "sum_identity_residual": pair.sum_identity_residual()})
    art.csv(["n", "s", "support_defect_b1", "support_defect_b2",
             "imag_defect_b1", "imag_defect_b2", "sum_identity_residual"],
            rows)
    return {"s_values": s_list, "grids": [n0, 2 * n0]}


@_experiment(branchcut_grp, "stability", "branchcut_stability", {
    "I": Interval(-1.0, 1.0), **_GRID, "s": 0.75,
    "J_left": Interval(-3.0, -1.5), "J_right": Interval(1.5, 3.0)})
def bc_stability(obj, art, p):
    """Exterior-smallness exponent over a modulated-bump family."""
    grid = Grid(p["grid_L"], p["grid_n"])
    fam = branchcut.modulated_family(p["I"], grid, range(2, 9))
    _nonzero("I", np.abs(fam[0].values).max(), "I")
    curve = branchcut.stability_experiment_fraclap(
        fam, p["s"], p["I"], p["J_left"], p["J_right"])
    art.csv(["k", "F", "r"], curve.rows)
    art.svg([r["F"] for r in curve.rows], [r["r"] for r in curve.rows],
            "F", "r", logx=True, logy=True)
    return {"s": p["s"], "model": curve.model, "r_squared": curve.r_squared}


@main.group("continuation")
def continuation_grp():
    """Half-plane extension and propagation of smallness."""


def _field(p):
    grid = Grid(p["grid_L"], p["grid_n"])
    h = make_bump(p["support"], 0.0, p["sharpness"], grid)
    _nonzero("support", np.abs(h.values).max(), "its support")
    ys = np.linspace(0.0, p["y_top"], _at_least("config key 'y_levels'", p["y_levels"], 2))
    return continuation.extend(h, ys)


@_experiment(continuation_grp, "three-balls", "continuation_three_balls", {
    **_FIELD, "center_x": 1.5, "center_y": 0.5, "radius": 0.1})
def three_balls_cmd(obj, art, p):
    """Three-balls norms and realized exponent for a harmonic extension."""
    cx, cy, r = p["center_x"], p["center_y"], p["radius"]
    n1, n2, n4, alpha = continuation.three_balls_report(_field(p), (cx, cy), r)
    if alpha is None:  # the balls hold too few distinct lattice nodes
        raise ValueError(f"radius: {r} leaves alpha_hat undefined, with ball "
                         f"norms n_r = {n1}, n_2r = {n2}, n_4r = {n4}")
    rows = [{"radius": r, "n_r": n1, "n_2r": n2, "n_4r": n4, "alpha_hat": alpha}]
    art.csv(["radius", "n_r", "n_2r", "n_4r", "alpha_hat"], rows)
    return {"center": [cx, cy], "radius": r, "norms": [n1, n2, n4],
            "alpha_hat": alpha}


@_experiment(continuation_grp, "propagate", "continuation_propagate", {
    **_FIELD, "I": Interval(-2.0, -1.0), "J": Interval(1.0, 2.0),
    "decades": 2.0})
def propagate_cmd(obj, art, p):
    """Smallness certificate: strip + chained three-balls bound over tau."""
    field = _field(p)
    tau, bound, rows = continuation.smallness_certificate(
        field, p["I"], p["J"], decades=p["decades"])
    art.csv(["tau", "strip", "chain", "count", "bound"], rows)
    art.svg([r["tau"] for r in rows], [r["count"] for r in rows],
            "tau", "ball count", logx=True)
    direct = field.strip_norm(p["I"], tau)
    return {"best_tau": tau, "best_bound": bound, "direct_norm": direct}


@main.group("runge")
def runge_grp():
    """Exterior-value problem and quantitative approximation cost."""


def _runge_problem(p):
    grid = Grid(p["grid_L"], p["grid_n"])
    return runge.build(p["s"], p["q"], p["Omega"], p["W"], grid), grid


@_experiment(runge_grp, "cost-curve", "runge_cost_curve", {
    **_RUNGE, "target_support": Interval(-0.9, 0.9), "target_sharpness": 0.5})
def cost_curve(obj, art, p):
    """Exterior-control cost against target accuracy eps."""
    prob, grid = _runge_problem(p)
    v = make_bump(p["target_support"], 0.0, p["target_sharpness"],
                  grid).values[prob.omega_idx]
    v = v / (math.sqrt(grid.dx) * _nonzero("target_support", np.linalg.norm(v), "Omega"))
    svd = runge.poisson_svd(prob)
    rows, fit = runge.epsilon_sweep(prob, v, svd=svd)
    art.csv(["eps", "achieved", "cost", "k", "floor"],
            [{**r, "floor": int(r["floor"])} for r in rows])
    art.svg([r["eps"] for r in rows], [r["cost"] for r in rows],
            "eps", "cost", logx=True, logy=True)
    slope, r2 = runge.sigma_decay_fit(svd)
    return {"fit": fit, "sigma_decay_slope": slope, "sigma_decay_r2": r2,
            "condition_number": prob.condition_number}


@_experiment(runge_grp, "dual-ucp", "runge_dual_ucp", _RUNGE,
             click.Option(["--trials"], type=int, default=50, show_default=True))
def dual_ucp(obj, art, p, trials):
    """Dual unique-continuation ratios over random interior targets."""
    _at_least("--trials", trials, 1)
    prob, grid = _runge_problem(p)
    rng = np.random.default_rng(obj["seed"])
    V = rng.standard_normal((trials, prob.omega_idx.size))  # row t: trial t's draw
    rows = []
    for t, (v, rep) in enumerate(zip(V, runge.dual_ucp_experiment(prob, V))):
        vnorm = math.sqrt(grid.dx) * float(np.linalg.norm(v))
        rows.append({"trial": t, "lhs": rep["lhs"], "rhs": rep["rhs"],
                     "rhs_over_vnorm": rep["rhs"] / vnorm,
                     "equivalence_constant": rep["equivalence_constant"]})
    art.csv(["trial", "lhs", "rhs", "rhs_over_vnorm",
             "equivalence_constant"], rows)
    ratios = [r["rhs_over_vnorm"] for r in rows]
    return {"trials": trials, "min_rhs_over_vnorm": min(ratios),
            "reciprocity_defect": runge.reciprocity_defect(prob, obj["seed"])}


if __name__ == "__main__":
    main()
