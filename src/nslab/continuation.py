"""Harmonic extension into the upper half-plane, with
propagation-of-smallness instrumentation.

A boundary function h on the line is extended to y > 0 by Poisson evolution
e^{-y|xi|}.  On top of the extension the module measures three-balls triples,
plans ball chains whose radii shrink proportionally to the height, and chains
the three-balls bounds along them into a smallness certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import Grid, HalfPlaneRectangle, Interval, SampledFunction


@dataclass
class HalfPlaneField:
    """Samples of an extension on grid.x x y_levels (values[j] is level j)."""

    grid: Grid
    y_levels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.y_levels = np.atleast_1d(np.asarray(self.y_levels, dtype=float))
        self.values = np.asarray(self.values, dtype=complex)
        if self.y_levels.size < 2 or np.any(self.y_levels < 0):
            raise ValueError("need at least two y-levels, all nonnegative")
        if np.any(np.diff(self.y_levels) <= 0):
            raise ValueError("y-levels must be strictly increasing")
        if self.values.shape != (self.y_levels.size, self.grid.n):
            raise ValueError("values must have shape (#levels, grid.n)")
        # the |values|^2 and y-cell widths that ball_norm sums over
        self.power, self.wy = np.abs(self.values) ** 2, np.gradient(self.y_levels)

    def rectangle_norm(self, rect: HalfPlaneRectangle) -> float:
        """L2 norm over base x [y0, y1] by trapezoid-in-y Riemann sums."""
        ys = self.y_levels
        sel = (ys >= rect.y0 - 1e-12) & (ys <= rect.y1 + 1e-12)
        if np.count_nonzero(sel) < 2:
            raise ValueError("rectangle spans fewer than two y-levels")
        xmask = rect.base.contains(self.grid.x)
        rows = np.sum(self.power[sel][:, xmask], axis=1) * self.grid.dx
        return float(math.sqrt(max(np.trapezoid(rows, ys[sel]), 0.0)))

    def ball_norm(self, center: tuple[float, float], r: float) -> float:
        """L2 norm over the disc of radius r, by masked Riemann sums with
        cells snapped to the sample lattice (no sub-cell antialiasing); each
        level's mask is one run of the lattice, summed as a slice of power."""
        cx, cy = center
        ys = self.y_levels
        # levels outside [cy - r, cy + r] have dy2 <= 0 and add nothing
        j0, j1 = ys.searchsorted(cy - r), ys.searchsorted(cy + r, "right")
        dy2 = r * r - (ys[j0:j1] - cy) ** 2
        half = np.where(dy2 > 0, np.sqrt(dy2.clip(0.0)), -1.0)  # -1: no node
        mask = np.abs(self.grid.x - cx) <= half[:, None]
        dx, total = self.grid.dx, 0.0
        for row, lo, cnt, wy in zip(self.power[j0:j1], mask.argmax(axis=1),
                                    mask.sum(axis=1), self.wy[j0:j1]):
            total += row[lo:lo + cnt].sum() * dx * wy   # an empty run adds 0.0
        return float(math.sqrt(total))


def extend(h: SampledFunction, y_levels) -> HalfPlaneField:
    """Poisson extension of h to the requested y-levels: damping by e^{-y|xi|}."""
    ys = np.sort(np.atleast_1d(np.asarray(y_levels, dtype=float)))
    if np.any(ys < 0):
        raise ValueError("y-levels must be nonnegative")
    fhat = np.fft.fft(np.asarray(h.values, dtype=complex))
    return HalfPlaneField(h.grid, ys, np.fft.ifft(fhat * np.exp(-ys[:, None] * np.abs(h.grid.xi))))


def three_balls_report(u: HalfPlaneField, center: tuple[float, float], r: float):
    """(n_r, n_2r, n_4r, alpha_hat) with alpha_hat = None when undefined.

    alpha_hat = (log n_2r - log n_4r) / (log n_r - log n_4r), the exponent the
    multiplicative three-balls inequality n_2r <= n_r^a n_4r^(1-a) realizes
    with equality for the measured triple.
    """
    cx, cy = center
    if r <= 0:
        raise ValueError("radius must be positive")
    ys = u.y_levels
    if cy - 4 * r < -1e-12:
        raise ValueError("4r-ball must stay inside y > 0")
    if (cy - 4 * r < ys[0] - 1e-12 or cy + 4 * r > ys[-1] + 1e-12
            or cx - 4 * r < -u.grid.L or cx + 4 * r > u.grid.L):
        raise ValueError("4r-ball must lie inside the sampled rectangle")
    n1 = u.ball_norm(center, r)
    n2 = u.ball_norm(center, 2 * r)
    n4 = u.ball_norm(center, 4 * r)
    alpha = None
    if 0 < n1 < n4:
        alpha = (math.log(n2) - math.log(n4)) / (math.log(n1) - math.log(n4))
    return n1, n2, n4, alpha


@dataclass(frozen=True)
class BallChain:
    """Planned centers/radii: a horizontal leg at fixed height from above the
    small region to above the target, then a vertical descent with radius
    halving in proportion to the height."""

    centers: tuple
    radii: tuple

    @property
    def count(self) -> int:
        return len(self.centers)


_MAX_LEG_BALLS = 10_000  # the leg from J to I holds ~|I - J| / (0.15 y_top) balls


def plan_ball_chain(I: Interval, J: Interval, tau: float,
                    y_top: float = 1.0) -> BallChain:
    """Greedy horizontal-then-vertical chain from above J down to height tau
    above I; radius = y/2 at height y, so the count grows like -log(tau)."""
    if not (0.0 < tau < 0.5):
        raise ValueError("tau must lie in (0, 1/2)")
    xj = 0.5 * (J.a + J.b)
    xi_ = 0.5 * (I.a + I.b)
    y0 = 0.6 * y_top
    r0 = 0.5 * y0
    centers, radii = [], []
    # horizontal leg: step by half a radius for generous overlap
    nsteps = max(1, int(math.ceil(abs(xi_ - xj) / (0.5 * r0))))
    if nsteps >= _MAX_LEG_BALLS:
        raise ValueError(f"y_top: {y_top} plans {nsteps + 1} balls on the leg from J "
                         f"to I, more than {_MAX_LEG_BALLS}")
    for k in range(nsteps + 1):
        centers.append((xj + (xi_ - xj) * k / nsteps, y0))
        radii.append(r0)
    # vertical descent above I: geometric heights until the strip top
    y = y0
    while y > 2.0 * tau:
        y *= 0.75
        centers.append((xi_, y))
        radii.append(0.5 * y)
    return BallChain(tuple(centers), tuple(radii))


def smallness_certificate(field: HalfPlaneField, I: Interval, J: Interval,
                          decades: float):
    """Optimize strip + chain over a logarithmic tau grid (16 points per
    decade); returns (best_tau, best_bound, rows), one row per tau.

    strip: the measured L2 norm over I x [0, tau].
    chain: the three-balls estimates chained multiplicatively along the
    planned ball chain, seeded by the measured norm on the first ball above J;
    each link replaces the measured n_2r with n_r^a n_4r^(1-a) evaluated with
    the propagated smallness in place of n_r.
    count: the number of balls in the chain (grows ~ -log tau).
    One plan and one walk of the longest chain serve every tau: the chain for a larger
    tau is a prefix of it, and the chained bound after its last ball depends
    on that prefix only.
    """
    y1 = float(field.y_levels[1])
    taus = []
    t = 0.45
    npts = int(decades * 16)
    fac = 10.0 ** (-1.0 / 16.0)
    for _ in range(npts):
        if t < 2.0 * y1:
            break
        taus.append(t)
        t *= fac
    if not taus:
        raise ValueError("no admissible tau for this field's y-resolution")
    if not (I.b <= J.a or J.b <= I.a):
        raise ValueError("target and data regions must have disjoint closures")
    chain = plan_ball_chain(I, J, taus[-1], y_top=float(field.y_levels[-1]))
    # a larger tau's chain: the horizontal leg, then a ball per height above 2 tau
    ys = [cy for _, cy in chain.centers]
    leg = ys.count(ys[0])
    counts = [leg + sum(y > 2.0 * tau for y in ys[leg - 1:-1]) for tau in taus]
    small = None
    walk = []
    for cx, cy in chain.centers:
        # measurement radius y/8 keeps the 4r-ball inside y > 0
        n1, n2, n4, alpha = three_balls_report(field, (cx, cy), cy / 8.0)
        if small is None:
            small = n2
        elif alpha is None or n4 == 0.0:
            small = max(small, n2)
        else:
            carried = min(small, n1) if n1 > 0 else small
            small = min(n2, carried ** alpha * n4 ** (1.0 - alpha))
        walk.append(float(small))
    best = None
    rows = []
    for tau, count in zip(taus, counts):
        strip = field.rectangle_norm(HalfPlaneRectangle(I, 0.0, tau)) if tau >= y1 else 0.0
        bound = strip + walk[count - 1]
        rows.append({"tau": tau, "strip": strip, "chain": walk[count - 1],
                     "count": count, "bound": bound})
        if best is None or bound < best[1]:
            best = (tau, bound)
    return best[0], best[1], rows
