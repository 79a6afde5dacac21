"""Per-layer tracing installed from outside the program.

`Tracer.install` replaces public functions of the `nslab` modules with timing
wrappers.  A module that imported a function by name (``from .gridfn import
norm``) holds its own reference, so every loaded `nslab` module attribute that
is the original function object is rebound as well.  A listed function that
the program no longer defines is reported as absent, not as an error.

Each wrapped function records its call count, total time, self time (total
minus the time spent in wrapped callees) and per-call durations.  `points` and
`matrix_elems` are counts computed from argument shapes, not measured traffic.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np


# module -> {function: computed work count from the call's arguments, or None};
# the count functions name their parameters as the wrapped functions do
LAYERS = {
    "gridfn": {"norm": None},
    "multiplier": {
        "apply": None,
        # input grid points (the transform itself runs on a padded grid)
        "apply_dealiased": lambda spec, f, *a, **k: f.grid.n,
        # evaluation points integrated
        "oracle_quadrature": lambda spec, f, I, eval_points, *a, **k: int(np.size(eval_points)),
        # entries of the len(pts) x n complex-exponential matrix
        "trig_interp": lambda f, pts: int(np.size(pts)) * f.grid.n,
    },
    "moments": {"hilbert_inverse_sigma_max": None, "verify_festmom": None,
                "reconstruct_from_moments": None},
    "reconstruct": {"sample_remote": None, "select_order": None,
                    "recover_moments": None, "invert": None},
    "branchcut": {"comparison_pair": None, "support_defect": None,
                  "imag_defect": None, "stability_experiment_fraclap": None,
                  "slice_experiment_2d": None},
    "continuation": {"extend": None, "three_balls_report": None,
                     "smallness_certificate": None},
    "runge": {"build": None, "poisson_svd": None, "epsilon_sweep": None,
              "dual_ucp_experiment": None, "reciprocity_defect": None},
}

# the unit of each computed count, as named in the metric
WORK_NAMES = {"apply_dealiased": "points", "oracle_quadrature": "points",
              "trig_interp": "matrix_elems"}

# functions whose first (cold-cache) call differs from the rest
COLD_WARM = {"reconstruct.select_order", "reconstruct.recover_moments"}


class _Stat:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0
        self.durations = []


class Tracer:
    """Call statistics of wrapped functions; single-threaded callers only."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self.top_level_s = 0.0   # time in wrapped calls made by no wrapped caller
        self._child = []         # per active call: time spent in wrapped callees

    def _wrap(self, name: str, fn, work):
        stat = self.stats.setdefault(name, _Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child.pop()
                if self._child:
                    self._child[-1] += dt
                else:
                    self.top_level_s += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                stat.durations.append(dt)
                if work is not None:
                    stat.work += work(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every listed function and the artifact writers of `cli`."""
        import nslab.cli as cli
        targets = []
        for mod_name, funcs in LAYERS.items():
            module = sys.modules.get(f"nslab.{mod_name}")
            for fn_name, work in funcs.items():
                name = f"{mod_name}.{fn_name}"
                fn = getattr(module, fn_name, None) if module else None
                if not callable(fn):
                    self.absent.append(name)
                    self.stats.setdefault(name, _Stat())
                    continue
                targets.append((fn, self._wrap(name, fn, work)))
        loaded = [m for k, m in sys.modules.items()
                  if k == "nslab" or k.startswith("nslab.")]
        for original, wrapper in targets:
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        writers = getattr(cli, "Artifacts", None)
        for method in ("csv", "json", "svg"):
            fn = getattr(writers, method, None)
            if fn is None:
                self.absent.append(f"cli.Artifacts.{method}")
                continue
            setattr(writers, method, self._wrap("cli.artifacts", fn, None))

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, st in self.stats.items():
            if name == "cli.artifacts":
                out[f"{name}.total_s"] = st.total
                continue
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total
            out[f"{name}.self_s"] = st.self_time
            work = WORK_NAMES.get(name.split(".", 1)[1])
            if work:
                out[f"{name}.{work}"] = st.work
            if name in COLD_WARM:
                out[f"{name}.p50_s"] = statistics.median(st.durations) if st.durations else 0.0
                out[f"{name}.max_s"] = max(st.durations, default=0.0)
        return out
