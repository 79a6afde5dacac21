"""Experiment runner: every module exposed as reproducible commands.

Each subcommand reads a flat key=value config (plus CLI overrides), runs one
experiment, and writes CSV (with a schema-version/config-hash header row),
a JSON summary, and a static SVG plot into the output directory.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 64 usage.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import click
import numpy as np

from . import branchcut, continuation, moments, multiplier, reconstruct, runge
from .gridfn import Grid, Interval, SampledFunction, make_bump, norm
from .moments import PrecisionConfig

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


def _get(cfg: dict, key: str, cast, default):
    if key not in cfg:
        return default
    try:
        if cast is bool:
            return cfg[key].lower() in ("1", "true", "yes")
        return cast(cfg[key])
    except ValueError as exc:
        raise _Invalid(f"config key {key!r}: {exc}")


def _interval(cfg: dict, key: str, default: Interval) -> Interval:
    if key not in cfg:
        return default
    parts = cfg[key].split(",")
    if len(parts) != 2:
        raise _Invalid(f"config key {key!r}: expected 'a,b'")
    return Interval(float(parts[0]), float(parts[1]))


def _config_hash(cfg: dict, seed: int, bits: int) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    canon += f"\nseed={seed}\nprecision_bits={bits}"
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class _Invalid(click.ClickException):
    exit_code = 2


def _at_least(name: str, value: int, low: int) -> int:
    """value, or a validation error (exit 2) naming the option and its bound."""
    if value < low:
        raise _Invalid(f"{name}: must be >= {low}, got {value}")
    return value


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
        return self._path("csv")

    def json(self, summary: dict):
        payload = {"schema": SCHEMA_VERSION, "config_hash": self.hash,
                   **summary}
        with open(self._path("json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        return self._path("json")

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
        return self._path("svg")


def _run(ctx, name, compute):
    """Dispatch wrapper: validation -> exit 2, numerical failure -> exit 3."""
    obj = ctx.obj
    art = Artifacts(obj["out"], name,
                    _config_hash(obj["cfg"], obj["seed"], obj["bits"]))
    try:
        summary = compute(obj, art)
    except (_Invalid, _NumericalFailure):
        raise
    except ValueError as exc:
        raise _Invalid(str(exc))
    except (np.linalg.LinAlgError, ArithmeticError, FloatingPointError) as exc:
        raise _NumericalFailure(str(exc))
    art.json(summary)
    click.echo(f"{name}: wrote artifacts to {art.dir} (config {art.hash})")


@click.group()
@click.option("--config", type=click.Path(exists=True), default=None,
              help="flat key=value config file")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@click.option("--precision-bits", type=int, default=256, show_default=True)
@click.pass_context
def main(ctx, config, seed, out, precision_bits):
    """Moment-inversion, comparison-operator, continuation, and
    exterior-approximation experiments."""
    ctx.obj = {"cfg": _load_config(config), "seed": seed, "out": out,
               "bits": precision_bits}


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@main.group("moments")
def moments_grp():
    """Exact moment algebra and conditioning diagnostics."""


@moments_grp.command("hilbert-growth")
@click.option("--nmax", type=int, default=20, show_default=True)
@click.pass_context
def hilbert_growth(ctx, nmax):
    """Growth rate of sigma_max(H_N^{-1}) against N.

    The final CSV column is the per-step growth rate of log sigma_max as N+1
    increases by one; the raw quotient log(sigma)/(N+1) converges to the same
    limit but carries a subexponential-prefactor bias of order log(N)/N that
    keeps it visibly below the limit in this N range.
    """
    def compute(obj, art):
        _at_least("--nmax", nmax, 0)
        prec = PrecisionConfig(bits=obj["bits"])
        rows = []
        prev = None
        for N in range(nmax + 1):
            sig = float(moments.hilbert_inverse_sigma_max(N, prec))
            rate = math.log(sig) - math.log(prev) if prev else 0.0
            rows.append({"N": N, "sigma_max": sig,
                         "log_sigma_over_Nplus1": rate})
            prev = sig
        art.csv(["N", "sigma_max", "log_sigma_over_Nplus1"], rows)
        art.svg([r["N"] for r in rows], [r["sigma_max"] for r in rows],
                "N", "sigma_max(H_N^-1)", logy=True)
        tail = [r["log_sigma_over_Nplus1"] for r in rows if r["N"] >= 10]
        return {"nmax": nmax, "tail_rates": tail,
                "tail_rate_range": [min(tail), max(tail)] if tail else None}
    _run(ctx, "hilbert_growth", compute)


@moments_grp.command("verify-bounds")
@click.option("--npoly", type=int, default=50, show_default=True)
@click.option("--degree", type=int, default=10, show_default=True)
@click.pass_context
def verify_bounds(ctx, npoly, degree):
    """Moment stability bound over random polynomials."""
    def compute(obj, art):
        _at_least("--npoly", npoly, 1)
        _at_least("--degree", degree, 0)
        I = _interval(obj["cfg"], "interval", Interval(0.1, 0.9))
        rng = np.random.default_rng(obj["seed"])
        rows, violations = [], 0
        for p in range(npoly):
            coeffs = rng.standard_normal(degree + 1).tolist()
            bounds = moments.verify_festmom(coeffs, I, 8)
            for N in range(1, 9):
                lhs, rhs, holds = bounds[N]
                violations += 0 if holds else 1
                rows.append({"poly": p, "N": N, "lhs": float(lhs),
                             "rhs": float(rhs), "holds": int(holds)})
        art.csv(["poly", "N", "lhs", "rhs", "holds"], rows)
        return {"npoly": npoly, "degree": degree, "violations": violations}
    _run(ctx, "verify_bounds", compute)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

@main.group("reconstruct")
def reconstruct_grp():
    """Moment recovery from remote operator samples."""


# the symbol parameters each operator reads from the config
_SWEEP_PARAMS = {"ModifiedHilbert": ("delta",), "RieszInverse": ("alpha",),
                 "FourierLaplace": ("alpha", "beta")}


@reconstruct_grp.command("sweep")
@click.pass_context
def sweep_cmd(ctx):
    """Noise sweep of the inversion pipeline with a log-modulus fit."""
    def compute(obj, art):
        cfg = obj["cfg"]
        I = _interval(cfg, "I", Interval(0.0, 1.0))
        J = _interval(cfg, "J", Interval(1.05, 2.05))
        if not (I.b <= J.a or J.b <= I.a):
            raise _Invalid(
                "I and J overlap: the remote-sampling hypothesis (data taken "
                "at positive distance from the source interval) is violated")
        kind = _get(cfg, "operator", str, "Hilbert")
        params = {k: _get(cfg, k, float, None) for k in _SWEEP_PARAMS.get(kind, ())}
        grid = Grid(_get(cfg, "grid_L", float, 8.0), _get(cfg, "grid_n", int, 4096))
        f = make_bump(_interval(cfg, "support", Interval(0.2, 0.8)),
                      _get(cfg, "center_offset", float, 0.0),
                      _get(cfg, "sharpness", float, 1.0), grid)
        nl2 = norm(f, "L2", region=I)
        f = SampledFunction(grid, f.values / nl2)
        n_levels = _get(cfg, "noise_levels", int, 5)
        levels = [10.0 ** (-2 - k) for k in range(n_levels)]
        curve = reconstruct.stability_sweep(
            kind, f, I, J, levels,
            trials=_get(cfg, "trials", int, 3), seed=obj["seed"],
            num_samples=_get(cfg, "num_samples", int, 64),
            N_max=_get(cfg, "N_max", int, 10),
            prec=PrecisionConfig(bits=obj["bits"]),
            tau=_get(cfg, "tau", float, 1.5), **params)
        art.csv(["operator", "delta_noise", "trial", "N", "error_L2"], curve.rows)
        deltas = [d for d, _ in curve.pairs]
        errs = [e for _, e in curve.pairs]
        art.svg(deltas, errs, "delta_noise", "error_L2", logx=True, logy=True)
        return {"operator": kind, "model": curve.model,
                "r_squared": curve.r_squared, "pairs": curve.pairs}
    _run(ctx, "reconstruct_sweep", compute)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@main.group("operators")
def operators_grp():
    """Multiplier/quadrature cross-checks."""


@operators_grp.command("crosscheck")
@click.pass_context
def crosscheck(ctx):
    """FFT multiplier vs independent quadrature on remote sample points."""
    def compute(obj, art):
        cfg = obj["cfg"]
        I = _interval(cfg, "I", Interval(-1.0, 1.0))
        J = _interval(cfg, "J", Interval(1.5, 3.5))
        grid = Grid(_get(cfg, "grid_L", float, 8.0), _get(cfg, "grid_n", int, 4096))
        f = make_bump(I, 0.0, _get(cfg, "sharpness", float, 1.0), grid)
        # grid-aligned sample points: trigonometric interpolation of the
        # dealiased output is exact on the grid, off-grid it carries the
        # periodization tail's interpolation error
        idx = np.flatnonzero(J.contains(grid.x))
        if not idx.size:
            raise ValueError(f"J = [{J.a}, {J.b}] holds no grid node")
        num = _at_least("config key 'points'", _get(cfg, "points", int, 16), 1)
        pts = grid.x[np.linspace(idx[0], idx[-1], num).astype(int)]
        cases = [("Hilbert", multiplier.symbol("HilbertSign")),
                 ("ModifiedHilbert_0.1", multiplier.symbol("ModifiedCoth", delta=0.1)),
                 ("ModifiedHilbert_1", multiplier.symbol("ModifiedCoth", delta=1.0)),
                 ("RieszInverse_0.25", multiplier.symbol("RieszInverse", alpha=0.25)),
                 ("RieszInverse_0.75", multiplier.symbol("RieszInverse", alpha=0.75))]
        oracle = multiplier.oracle_symbols([spec for _, spec in cases], f, I, pts)
        rows = []
        worst = 0.0
        for (name, spec), ov in zip(cases, oracle):
            fv = multiplier.trig_interp(multiplier.apply_dealiased(spec, f), pts)
            scale = float(np.max(np.abs(ov)))
            for x, a, b in zip(pts, fv, ov):
                rel = abs(a - b) / scale
                worst = max(worst, rel)
                rows.append({"operator": name, "x": float(x),
                             "fft": float(np.real(a)), "oracle": float(np.real(b)),
                             "rel_err": float(rel)})
        art.csv(["operator", "x", "fft", "oracle", "rel_err"], rows)
        return {"worst_rel_err": worst, "operators": [c[0] for c in cases]}
    _run(ctx, "operators_crosscheck", compute)


# ---------------------------------------------------------------------------
# branchcut
# ---------------------------------------------------------------------------

@main.group("branchcut")
def branchcut_grp():
    """Branch-cut comparison operators for the fractional Laplacian."""


@branchcut_grp.command("defects")
@click.pass_context
def defects_cmd(ctx):
    """Support and imaginary-part defects under grid refinement."""
    def compute(obj, art):
        cfg = obj["cfg"]
        I = _interval(cfg, "I", Interval(-1.0, 1.0))
        L = _get(cfg, "grid_L", float, 8.0)
        n0 = _get(cfg, "grid_n", int, 4096)
        s_list = [float(v) for v in _get(cfg, "s_values", str, "0.6,0.75").split(",")]
        J1 = _interval(cfg, "J_left", Interval(-3.0, -2.0))
        J2 = _interval(cfg, "J_right", Interval(2.0, 3.0))
        rows = []
        for n in (n0, 2 * n0):
            grid = Grid(L, n)
            g = make_bump(I, 0.0, _get(cfg, "sharpness", float, 1.0), grid)
            for s in s_list:
                pair = branchcut.comparison_pair(g, s)
                rows.append({"n": n, "s": s, **branchcut.defects(pair, J1, J2),
                             "sum_identity_residual": pair.sum_identity_residual()})
        art.csv(["n", "s", "support_defect_b1", "support_defect_b2",
                 "imag_defect_b1", "imag_defect_b2", "sum_identity_residual"],
                rows)
        return {"s_values": s_list, "grids": [n0, 2 * n0]}
    _run(ctx, "branchcut_defects", compute)


@branchcut_grp.command("stability")
@click.pass_context
def bc_stability(ctx):
    """Exterior-smallness exponent over a modulated-bump family."""
    def compute(obj, art):
        cfg = obj["cfg"]
        I = _interval(cfg, "I", Interval(-1.0, 1.0))
        grid = Grid(_get(cfg, "grid_L", float, 8.0), _get(cfg, "grid_n", int, 4096))
        s = _get(cfg, "s", float, 0.75)
        fam = branchcut.modulated_family(I, grid, range(2, 9))
        curve = branchcut.stability_experiment_fraclap(
            fam, s, I, _interval(cfg, "J_left", Interval(-3.0, -1.5)),
            _interval(cfg, "J_right", Interval(1.5, 3.0)))
        art.csv(["k", "F", "r"], curve.rows)
        art.svg([r["F"] for r in curve.rows], [r["r"] for r in curve.rows],
                "F", "r", logx=True, logy=True)
        return {"s": s, "model": curve.model, "r_squared": curve.r_squared}
    _run(ctx, "branchcut_stability", compute)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

@main.group("continuation")
def continuation_grp():
    """Half-plane extension and propagation of smallness."""


def _default_field(cfg):
    grid = Grid(_get(cfg, "grid_L", float, 8.0), _get(cfg, "grid_n", int, 1024))
    h = make_bump(_interval(cfg, "support", Interval(1.0, 2.0)), 0.0,
                  _get(cfg, "sharpness", float, 1.0), grid)
    ys = np.linspace(0.0, _get(cfg, "y_top", float, 1.0),
                     _get(cfg, "y_levels", int, 129))
    return continuation.extend(h, ys, mode="poisson")


@continuation_grp.command("three-balls")
@click.pass_context
def three_balls_cmd(ctx):
    """Three-balls norms and realized exponent for a harmonic extension."""
    def compute(obj, art):
        cfg = obj["cfg"]
        field = _default_field(cfg)
        cx = _get(cfg, "center_x", float, 1.5)
        cy = _get(cfg, "center_y", float, 0.5)
        r = _get(cfg, "radius", float, 0.1)
        n1, n2, n4, alpha = continuation.three_balls_report(field, (cx, cy), r)
        rows = [{"radius": r, "n_r": n1, "n_2r": n2, "n_4r": n4,
                 "alpha_hat": alpha if alpha is not None else float("nan")}]
        art.csv(["radius", "n_r", "n_2r", "n_4r", "alpha_hat"], rows)
        return {"center": [cx, cy], "radius": r, "norms": [n1, n2, n4],
                "alpha_hat": alpha}
    _run(ctx, "continuation_three_balls", compute)


@continuation_grp.command("propagate")
@click.pass_context
def propagate_cmd(ctx):
    """Smallness certificate: strip + chained three-balls bound over tau."""
    def compute(obj, art):
        cfg = obj["cfg"]
        field = _default_field(cfg)
        I = _interval(cfg, "I", Interval(-2.0, -1.0))
        J = _interval(cfg, "J", Interval(1.0, 2.0))
        tau, bound, rows = continuation.smallness_certificate(
            field, I, J, decades=_get(cfg, "decades", float, 2.0))
        art.csv(["tau", "strip", "chain", "count", "bound"], rows)
        art.svg([r["tau"] for r in rows], [r["count"] for r in rows],
                "tau", "ball count", logx=True)
        direct = field.rectangle_norm(
            continuation.HalfPlaneRectangle(I, 0.0, tau))
        return {"best_tau": tau, "best_bound": bound, "direct_norm": direct}
    _run(ctx, "continuation_propagate", compute)


# ---------------------------------------------------------------------------
# runge
# ---------------------------------------------------------------------------

@main.group("runge")
def runge_grp():
    """Exterior-value problem and quantitative approximation cost."""


def _runge_problem(cfg):
    grid = Grid(_get(cfg, "grid_L", float, 4.0), _get(cfg, "grid_n", int, 512))
    return runge.build(_get(cfg, "s", float, 0.6), _get(cfg, "q", float, 0.0),
                       _interval(cfg, "Omega", Interval(-1.0, 1.0)),
                       _interval(cfg, "W", Interval(1.02, 3.8)), grid), grid


@runge_grp.command("cost-curve")
@click.pass_context
def cost_curve(ctx):
    """Exterior-control cost against target accuracy eps."""
    def compute(obj, art):
        cfg = obj["cfg"]
        p, grid = _runge_problem(cfg)
        v = make_bump(_interval(cfg, "target_support", Interval(-0.9, 0.9)),
                      0.0, _get(cfg, "target_sharpness", float, 0.5),
                      grid).values[p.omega_idx]
        v = v / (math.sqrt(grid.dx) * np.linalg.norm(v))
        svd = runge.poisson_svd(p)
        rows, fit = runge.epsilon_sweep(p, v, svd=svd)
        art.csv(["eps", "achieved", "cost", "k", "floor"],
                [{**r, "floor": int(r["floor"])} for r in rows])
        art.svg([r["eps"] for r in rows], [r["cost"] for r in rows],
                "eps", "cost", logx=True, logy=True)
        slope, r2 = runge.sigma_decay_fit(svd)
        return {"fit": fit, "sigma_decay_slope": slope, "sigma_decay_r2": r2,
                "condition_number": p.condition_number}
    _run(ctx, "runge_cost_curve", compute)


@runge_grp.command("dual-ucp")
@click.option("--trials", type=int, default=50, show_default=True)
@click.pass_context
def dual_ucp(ctx, trials):
    """Dual unique-continuation ratios over random interior targets."""
    def compute(obj, art):
        _at_least("--trials", trials, 1)
        cfg = obj["cfg"]
        p, grid = _runge_problem(cfg)
        rng = np.random.default_rng(obj["seed"])
        V = rng.standard_normal((trials, p.omega_idx.size))  # row t: trial t's draw
        rows = []
        for t, (v, rep) in enumerate(zip(V, runge.dual_ucp_experiment(p, V))):
            vnorm = math.sqrt(grid.dx) * float(np.linalg.norm(v))
            rows.append({"trial": t, "lhs": rep["lhs"], "rhs": rep["rhs"],
                         "rhs_over_vnorm": rep["rhs"] / vnorm,
                         "equivalence_constant": rep["equivalence_constant"]})
        art.csv(["trial", "lhs", "rhs", "rhs_over_vnorm",
                 "equivalence_constant"], rows)
        ratios = [r["rhs_over_vnorm"] for r in rows]
        return {"trials": trials, "min_rhs_over_vnorm": min(ratios),
                "reciprocity_defect": runge.reciprocity_defect(p, obj["seed"])}
    _run(ctx, "runge_dual_ucp", compute)


if __name__ == "__main__":
    main()
