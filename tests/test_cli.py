import filecmp
import json
import math
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from nslab import moments, multiplier
from nslab.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _read(path):
    with open(path) as fh:
        return fh.read()


class TestPlumbing:
    def test_unknown_subcommand_usage_exit(self, runner):
        res = runner.invoke(main, ["no-such-command"])
        assert res.exit_code == 64

    def test_unknown_option_usage_exit(self, runner):
        for argv in (["--bogus-flag"],
                     ["--threads", "2", "operators", "crosscheck"]):
            res = runner.invoke(main, argv)
            assert res.exit_code == 64, argv

    def test_malformed_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("this line has no equals sign\n")
        res = runner.invoke(main, ["--config", str(cfg), "moments",
                                   "hilbert-growth", "--nmax", "3"])
        assert res.exit_code == 2

    def test_overlapping_regions_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("I=0,1\nJ=0.5,1.5\n")
        res = runner.invoke(main, ["--config", str(cfg), "--out",
                                   str(tmp_path), "reconstruct", "sweep"])
        assert res.exit_code == 2

    def test_csv_header_schema_and_hash(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "moments",
                                   "hilbert-growth", "--nmax", "3"])
        assert res.exit_code == 0
        head = _read(tmp_path / "hilbert_growth.csv").splitlines()[0]
        assert head.startswith("# schema=nsl-csv-1 config_hash=")
        summary = json.loads(_read(tmp_path / "hilbert_growth.json"))
        assert summary["config_hash"] == head.split("config_hash=")[1]

    def test_byte_deterministic_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = runner.invoke(main, ["--out", str(out), "--seed", "3",
                                       "moments", "verify-bounds",
                                       "--npoly", "3", "--degree", "4"])
            assert res.exit_code == 0
        assert filecmp.cmp(a / "verify_bounds.csv", b / "verify_bounds.csv",
                           shallow=False)

    def test_seed_changes_hash(self, runner, tmp_path):
        # the seed and the command's options each move the hash
        heads = []
        for seed, nmax in (("0", "2"), ("1", "2"), ("0", "3")):
            out = tmp_path / f"{seed}-{nmax}"
            res = runner.invoke(main, ["--out", str(out), "--seed", seed,
                                       "moments", "hilbert-growth",
                                       "--nmax", nmax])
            assert res.exit_code == 0
            heads.append(_read(out / "hilbert_growth.csv").splitlines()[0])
        assert len(set(heads)) == 3

    def test_svg_artifact_written(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "moments",
                                   "hilbert-growth", "--nmax", "3"])
        assert res.exit_code == 0
        svg = _read(tmp_path / "hilbert_growth.svg")
        assert svg.startswith("<svg") and "polyline" in svg


def test_cli_import_loads_no_scipy():
    # importing scipy.linalg takes about as long as the whole CLI import
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    code = ("import sys, nslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_propagate_tiny_y_top_exit_2_under_memory_cap(tmp_path):
    # y_top = 1e-6 plans ~2e7 balls on the leg from J to I for every tau; the
    # cap on the address space makes an unbounded plan fail here, not the host
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("y_top=1e-6\n")
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
            "from nslab.cli import main; main(sys.argv[1:])")
    res = subprocess.run([sys.executable, "-c", code, "--config", str(cfg), "--out",
                          str(tmp_path), "continuation", "propagate"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert "y_top: 1e-06 plans" in res.stderr
    assert not list(tmp_path.glob("continuation_propagate.*"))


# the config keys each subcommand reads, with their defaults as --help shows them
_GRID = {"grid_L": "8.0", "grid_n": "4096"}
_FIELD = {"grid_L": "8.0", "grid_n": "1024", "support": "1.0,2.0",
          "sharpness": "1.0", "y_top": "1.0", "y_levels": "129"}
_RUNGE = {"grid_L": "4.0", "grid_n": "512", "s": "0.6", "q": "0.0",
          "Omega": "-1.0,1.0", "W": "1.02,3.8"}
DECLARED = {
    ("moments", "hilbert-growth"): {},
    ("moments", "verify-bounds"): {"interval": "0.1,0.9"},
    ("reconstruct", "sweep"): {
        "I": "0.0,1.0", "J": "1.05,2.05", "operator": "Hilbert",
        "delta": "float, no default", "alpha": "float, no default",
        "beta": "float, no default", **_GRID, "support": "0.2,0.8",
        "center_offset": "0.0", "sharpness": "1.0", "noise_levels": "5",
        "trials": "3", "num_samples": "64", "N_max": "10", "tau": "1.5"},
    ("operators", "crosscheck"): {"I": "-1.0,1.0", "J": "1.5,3.5", **_GRID,
                                  "sharpness": "1.0", "points": "16"},
    ("branchcut", "defects"): {"I": "-1.0,1.0", **_GRID, "s_values": "0.6,0.75",
                               "J_left": "-3.0,-2.0", "J_right": "2.0,3.0",
                               "sharpness": "1.0"},
    ("branchcut", "stability"): {"I": "-1.0,1.0", **_GRID, "s": "0.75",
                                 "J_left": "-3.0,-1.5", "J_right": "1.5,3.0"},
    ("continuation", "three-balls"): {**_FIELD, "center_x": "1.5",
                                      "center_y": "0.5", "radius": "0.1"},
    ("continuation", "propagate"): {**_FIELD, "I": "-2.0,-1.0", "J": "1.0,2.0",
                                    "decades": "2.0"},
    ("runge", "cost-curve"): {**_RUNGE, "target_support": "-0.9,0.9",
                              "target_sharpness": "0.5"},
    ("runge", "dual-ucp"): _RUNGE,
}


# an undeclared key for every subcommand, and values the library rejects
BAD_CONFIGS = [
    *[(command, "grid_N=2048", "config key 'grid_N' is not read by this command")
      for command in DECLARED],
    (("reconstruct", "sweep"), "trials=0", "trials must be >= 1, got 0"),
    (("reconstruct", "sweep"), "N_max=-1", "N_max must be >= 0, got -1"),
    (("reconstruct", "sweep"), "tau=0", "tau must be > 0, got 0"),
    (("reconstruct", "sweep"), "tau=-1", "tau must be > 0, got -1"),
    (("reconstruct", "sweep"), "num_samples=1", "num_samples must be >= 2, got 1"),
    (("reconstruct", "sweep"), "num_samples=0", "num_samples must be >= 2, got 0"),
    # Hilbert reads none of delta, alpha, beta
    (("reconstruct", "sweep"), "alpha=0.25", "operator Hilbert does not read 'alpha'"),
    # a bump that vanishes at every grid node where it is read: its norm is 0
    (("reconstruct", "sweep"), "support=3,4", "support: the bump vanishes at every grid node of I"),
    (("runge", "cost-curve"), "target_support=2,3",
     "target_support: the bump vanishes at every grid node of Omega"),
    (("operators", "crosscheck"), "I=0.001,0.002", "I: the bump vanishes at every grid node of I"),
    (("branchcut", "stability"), "I=0.001,0.002", "I: the bump vanishes at every grid node of I"),
    *[(command, "Omega=0.001,0.002", "interior region Omega contains no grid points")
      for command in (("runge", "cost-curve"), ("runge", "dual-ucp"))],
    *[(command, "support=0.0011,0.0019", "support: the bump vanishes at every grid node")
      for command in (("continuation", "three-balls"), ("continuation", "propagate"))],
    (("continuation", "propagate"), "y_levels=1", "config key 'y_levels': must be >= 2, got 1"),
    (("continuation", "three-balls"), "y_levels=0", "config key 'y_levels': must be >= 2, got 0"),
    (("continuation", "three-balls"), "y_levels=-1",
     "config key 'y_levels': must be >= 2, got -1"),
    # the r-, 2r- and 4r-balls hold the same lattice nodes: alpha_hat undefined
    (("continuation", "three-balls"), "radius=0.001",
     "radius: 0.001 leaves alpha_hat undefined"),
    *[(command, f"{key}={value}", f"config key '{key}': must be finite, got {value}")
      for command, key, value in [
          (("operators", "crosscheck"), "sharpness", "inf"),
          (("branchcut", "defects"), "grid_L", "inf"),
          (("continuation", "three-balls"), "grid_L", "inf"),
          (("continuation", "propagate"), "grid_L", "inf"),
          (("continuation", "three-balls"), "sharpness", "inf"),
          (("continuation", "three-balls"), "y_top", "nan"),
          (("continuation", "three-balls"), "center_x", "nan"),
          (("continuation", "three-balls"), "center_y", "nan"),
          (("continuation", "three-balls"), "radius", "nan"),
          (("runge", "cost-curve"), "q", "inf"),
          (("runge", "cost-curve"), "target_sharpness", "inf")]],
]


# a small config for each subcommand that declares keys, and options that keep
# its run short; each must exit 0 as it stands
FUZZ_BASE = {
    ("moments", "verify-bounds"): ({}, ["--npoly", "1", "--degree", "2"]),
    ("reconstruct", "sweep"): ({"grid_n": "512", "num_samples": "12", "N_max": "3",
                                "noise_levels": "4", "trials": "1"}, []),
    ("operators", "crosscheck"): ({"grid_n": "512", "points": "4"}, []),
    ("branchcut", "defects"): ({"grid_n": "512", "s_values": "0.75"}, []),
    ("branchcut", "stability"): ({"grid_n": "512"}, []),
    ("continuation", "three-balls"): ({"grid_n": "256", "y_levels": "33"}, []),
    ("continuation", "propagate"): ({"grid_n": "256", "y_levels": "33"}, []),
    ("runge", "cost-curve"): ({"grid_n": "128"}, []),
    ("runge", "dual-ucp"): ({"grid_n": "128"}, ["--trials", "2"]),
}


def _edge_values(command, key, base):
    """Edge values of one declared key on top of `base`.  An interval is
    reversed, empty, given a NaN or an infinite end, or made 1e-3 wide between
    two nodes of the command's grid (of the default grid, for a command with
    none); `operator` gets an unknown name; every other key, `s_values` too,
    is numeric."""
    default = DECLARED[command][key]
    if key == "operator":
        return ["Mellin"]
    if key == "s_values" or "no default" in default or "," not in default:
        return ["0", "-1", "nan", "inf", "-inf", "1e-300"]
    a, b = default.split(",")
    L = float(base.get("grid_L", DECLARED[command].get("grid_L", "8.0")))
    dx = 2 * L / int(base.get("grid_n", DECLARED[command].get("grid_n", "4096")))
    t = -L + round((float(a) + L) / dx) * dx + dx / 4
    return [f"{b},{a}", f"{a},{a}", f"nan,{b}", f"{a},inf", f"{t!r},{t + 1e-3!r}"]


def _finite_artifact(path):
    """No NaN or infinity among the numbers of a CSV, JSON or SVG artifact."""
    text = path.read_text()
    if path.suffix == ".svg":
        return not re.search(r"\b(nan|inf)\b", text)
    if path.suffix == ".json":
        stack = [json.loads(text)]
        while stack:
            item = stack.pop()
            if isinstance(item, float) and not math.isfinite(item):
                return False
            if isinstance(item, (dict, list)):
                stack.extend(item.values() if isinstance(item, dict) else item)
        return True
    for cell in ",".join(text.splitlines()[2:]).split(","):  # below the headers
        try:
            if not math.isfinite(float(cell)):
                return False
        except ValueError:  # a label
            pass
    return True


# runs each argv list read from stdin in one process whose address space is
# capped, so a case that allocates without bound fails here, not the host
_FUZZ_RUNNER = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from click.testing import CliRunner
from nslab.cli import main
runner = CliRunner()
for argv in json.load(sys.stdin):
    res = runner.invoke(main, argv)
    print(json.dumps([res.exit_code, res.output[-200:], repr(res.exception)]), flush=True)
"""


def test_config_fuzz_every_declared_key(tmp_path):
    # every declared key at its edge values exits 0, 2 or 3; exit 2 or 3
    # writes no artifact, and exit 0 writes only finite numbers
    cases = []
    for command, (base, opts) in FUZZ_BASE.items():
        for key, value in [(None, None)] + [(k, v) for k in DECLARED[command]
                                             for v in _edge_values(command, k, base)]:
            cfg = tmp_path / f"{len(cases)}.cfg"
            cfg.write_text("".join(f"{k}={v}\n" for k, v in {**base, key: value}.items()
                                   if k is not None))
            out = tmp_path / str(len(cases))
            cases.append((command, key, value, out,
                          ["--config", str(cfg), "--out", str(out), *command, *opts]))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    res = subprocess.run([sys.executable, "-c", _FUZZ_RUNNER], env=env, text=True,
                         input=json.dumps([case[-1] for case in cases]),
                         capture_output=True, timeout=300)
    results = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(results) == len(cases), res.stderr[-2000:]
    bad = []
    for (command, key, value, out, _), (code, output, exc) in zip(cases, results):
        arts = sorted(out.glob("*")) if out.exists() else []
        if key is None and code != 0:
            why = "its base config does not run"
        elif code not in (0, 2, 3):
            why = f"exit {code}"
        elif code != 0 and arts:
            why = f"exit {code} wrote {[a.name for a in arts]}"
        elif code == 0 and not all(_finite_artifact(a) for a in arts):
            why = "exit 0 wrote a NaN or an infinity"
        else:
            continue
        bad.append(f"{' '.join(command)} {key}={value}: {why}; {output.strip()} {exc}")
    assert not bad, "\n".join(bad)


def test_help_lists_each_declared_key_and_default(runner):
    for command, declared in DECLARED.items():
        res = runner.invoke(main, [*command, "--help"])
        assert res.exit_code == 0, command
        table = res.output.split("Config keys and defaults:\n", 1)[1]
        table = table.split("\n\n", 1)[0].splitlines()
        listed = dict(line.strip().split(" = ", 1) for line in table
                      if line.strip() != "none")
        assert listed == declared, command


class TestExperiments:
    def test_hilbert_growth_tail_rate_window(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "moments",
                                   "hilbert-growth", "--nmax", "14"])
        assert res.exit_code == 0
        summary = json.loads(_read(tmp_path / "hilbert_growth.json"))
        lo, hi = summary["tail_rate_range"]
        assert 3.2 <= lo <= hi <= 3.7

    def test_hilbert_growth_prints_the_256_bit_doubles(self, runner, tmp_path):
        # the 64-bit certificate that `nsl` runs prints every sigma_max that
        # the default 256 bits round to, up to the largest supported N
        res = runner.invoke(main, ["--out", str(tmp_path), "moments",
                                   "hilbert-growth", "--nmax", "40"])
        assert res.exit_code == 0, res.output
        rows = _read(tmp_path / "hilbert_growth.csv").splitlines()[2:]
        assert len(rows) == 41
        for row in rows:
            N, sigma, _ = row.split(",")
            assert float(sigma) == float(moments.hilbert_inverse_sigma_max(int(N)))
        res = runner.invoke(main, ["--precision-bits", "64", "--out", str(tmp_path),
                                   "moments", "hilbert-growth"])
        assert res.exit_code == 64

    def test_verify_bounds_no_violations(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "moments",
                                   "verify-bounds", "--npoly", "5"])
        assert res.exit_code == 0
        summary = json.loads(_read(tmp_path / "verify_bounds.json"))
        assert summary["violations"] == 0

    def test_verify_bounds_one_exact_pass_per_polynomial(self, runner, tmp_path,
                                                         monkeypatch):
        # orders 1..8 of all 50 default polynomials from one pass over their stack
        calls = []
        original = moments._hilbert_sums

        def counted(F, factors, N):
            calls.append(N)
            return original(F, factors, N)

        monkeypatch.setattr(moments, "_hilbert_sums", counted)
        res = runner.invoke(main, ["--out", str(tmp_path), "moments",
                                   "verify-bounds"])
        assert res.exit_code == 0, res.output
        assert calls == [8]

    def test_operators_crosscheck_small(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "operators",
                                   "crosscheck"])
        assert res.exit_code == 0
        summary = json.loads(_read(tmp_path / "operators_crosscheck.json"))
        assert summary["worst_rel_err"] <= 1e-10

    def test_operators_crosscheck_one_oracle_pass(self, runner, tmp_path,
                                                  monkeypatch):
        # one shared oracle pass over the panels of the five kernels (seven
        # panels); the dealiased outputs are read at their grid nodes
        calls = []
        original = multiplier.trig_interp

        def counted(f, pts):
            calls.append(pts)
            return original(f, pts)

        monkeypatch.setattr(multiplier, "trig_interp", counted)
        res = runner.invoke(main, ["--out", str(tmp_path), "operators",
                                   "crosscheck"])
        assert res.exit_code == 0
        assert len(calls) == 7

    def test_operators_crosscheck_J_without_grid_node_exit_2(self, runner,
                                                              tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("J=9.5,10\n")   # the default grid ends at x = 8
        res = runner.invoke(main, ["--config", str(cfg), "--out",
                                   str(tmp_path), "operators", "crosscheck"])
        assert res.exit_code == 2
        assert "J = [9.5, 10.0]" in res.output

    @pytest.mark.parametrize("points", [0, -3])
    def test_operators_crosscheck_nonpositive_points_exit_2(self, runner,
                                                             tmp_path, points):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"points={points}\n")
        res = runner.invoke(main, ["--config", str(cfg), "--out",
                                   str(tmp_path), "operators", "crosscheck"])
        assert res.exit_code == 2
        assert f"config key 'points': must be >= 1, got {points}" in res.output

    @pytest.mark.parametrize("argv, message", [
        (["moments", "verify-bounds", "--degree", "-1"], "--degree: must be >= 0, got -1"),
        (["moments", "verify-bounds", "--npoly", "0"], "--npoly: must be >= 1, got 0"),
        (["moments", "hilbert-growth", "--nmax", "-1"], "--nmax: must be >= 0, got -1"),
        (["runge", "dual-ucp", "--trials", "0"], "--trials: must be >= 1, got 0"),
    ], ids=["degree", "npoly", "nmax", "trials"])
    def test_option_below_bound_exit_2(self, runner, tmp_path, argv, message):
        res = runner.invoke(main, ["--out", str(tmp_path)] + argv)
        assert res.exit_code == 2
        assert message in res.output
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, cfg, message", [
        pytest.param(command, cfg, message, id="-".join([*command, cfg]))
        for command, cfg, message in BAD_CONFIGS])
    def test_bad_config_exit_2(self, runner, tmp_path, command, cfg, message):
        path = tmp_path / "cfg.txt"
        path.write_text(cfg + "\n")
        res = runner.invoke(main, ["--config", str(path), "--out", str(tmp_path),
                                   *command])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not list(tmp_path.glob("*.csv"))

    def test_reconstruct_sweep_small_reruns_identical(self, runner, tmp_path):
        # two runs in one process write the same bytes
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("num_samples=18\ngrid_n=2048\nJ=1.25,2.25\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            res = runner.invoke(main, ["--config", str(cfg), "--out", str(out),
                                       "reconstruct", "sweep"])
            assert res.exit_code == 0
        for ext in ("csv", "json", "svg"):
            assert filecmp.cmp(outs[0] / f"reconstruct_sweep.{ext}",
                               outs[1] / f"reconstruct_sweep.{ext}",
                               shallow=False)

    def test_reconstruct_sweep_riesz_reads_alpha(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("num_samples=18\ngrid_n=2048\nJ=1.25,2.25\n"
                       "operator=RieszInverse\nalpha=0.25\n")
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path),
                                   "reconstruct", "sweep"])
        assert res.exit_code == 0, res.output
        summary = json.loads(_read(tmp_path / "reconstruct_sweep.json"))
        assert summary["operator"] == "RieszInverse"
        assert len(summary["pairs"]) == 5
        # residuals and noise thresholds compared in the same units
        assert all(err <= 1.0 for _, err in summary["pairs"])

    def test_reconstruct_sweep_riesz_without_alpha_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("num_samples=18\ngrid_n=2048\nJ=1.25,2.25\n"
                       "operator=RieszInverse\n")
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path),
                                   "reconstruct", "sweep"])
        assert res.exit_code == 2
        assert "alpha" in res.output

    def test_continuation_three_balls(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "continuation",
                                   "three-balls"])
        assert res.exit_code == 0
        summary = json.loads(_read(tmp_path / "continuation_three_balls.json"))
        n1, n2, n4 = summary["norms"]
        assert n1 <= n2 <= n4
        assert 0.0 < summary["alpha_hat"] <= 1.0 + 1e-12

    def test_runge_cost_curve(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "runge",
                                   "cost-curve"])
        assert res.exit_code == 0
        summary = json.loads(_read(tmp_path / "runge_cost_curve.json"))
        assert summary["fit"]["mu_hat"] > 0
        body = _read(tmp_path / "runge_cost_curve.csv").splitlines()
        assert body[1].split(",")[0] == "eps"
        for line in body[2:]:
            eps, achieved = map(float, line.split(",")[:2])
            assert achieved <= eps

    @pytest.mark.parametrize("argv,name", [
        (["cost-curve"], "runge_cost_curve"),
        (["dual-ucp", "--trials", "10"], "runge_dual_ucp")])
    def test_runge_reruns_identical(self, runner, tmp_path, argv, name):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            res = runner.invoke(main, ["--out", str(out), "runge", *argv])
            assert res.exit_code == 0, res.output
        for ext in ("csv", "json"):
            assert filecmp.cmp(outs[0] / f"{name}.{ext}", outs[1] / f"{name}.{ext}",
                               shallow=False)

    def test_runge_dual_ucp_positive_ratios(self, runner, tmp_path):
        res = runner.invoke(main, ["--out", str(tmp_path), "runge",
                                   "dual-ucp", "--trials", "10"])
        assert res.exit_code == 0
        summary = json.loads(_read(tmp_path / "runge_dual_ucp.json"))
        assert summary["min_rhs_over_vnorm"] >= 1e-12
        assert summary["reciprocity_defect"] <= 1e-8
