"""Argument-principle machinery: winding counts, valence reports, heatmaps.

The winding of theta -> f(r e^{i theta}) - w is computed by phase tracking:
unwrapped argument increments are accumulated over contour nodes, adaptively
bisecting any step whose phase jump is too large or that dips toward a zero.
The count of a holomorphic map equals the number of solutions of f(z) = w
inside |z| < r, with multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContourProximityError,
    InternalConsistencyError,
    RefinementOverflowError,
)
from .numerics import require_finite

TWO_PI = 2.0 * math.pi

# Cells of a heatmap that fall outside the queried disc / failed to resolve.
OUTSIDE_MARK = -1
ERROR_MARK = -2


# Winding engine.
INITIAL_NODES = 64
JUMP_THRESHOLD = math.pi / 2.0
PROXIMITY_REL = 1e-9     # floor relative to |f(z)| + |w| per node
DIP_RATIO = 1e-3         # refine steps with a sharp modulus dip
CHORD_RATIO = 0.8        # refine steps whose value moves further than its own
#                          distance from the origin: guards against aliased
#                          full phase turns
MAX_NODES = 2 ** 20
RESIDUAL_MAX = 1e-6

# Valence scan.
SCHEDULE_DEPTH = 20                   # radii 1 - 2^-j, j = 1..depth
PERTURB_BASE = 1e-4
PERTURB_STEPS = (1, -1, 2, -2, 3)
STOP_RUN = 3                          # consecutive equal counts
STOP_MIN_RADIUS = 1.0 - 2.0 ** -12    # only trust agreement out here


def default_schedule(depth: int = None) -> tuple:
    depth = SCHEDULE_DEPTH if depth is None else depth
    return tuple(1.0 - 2.0 ** -j for j in range(1, depth + 1))


@dataclass(frozen=True)
class ValenceReport:
    """Per-radius winding counts of f - w plus a stabilisation verdict.

    ``value`` is a certified lower bound for the valence of f at w in
    general, and the exact valence when f is a finite Blaschke product.
    Counts must be non-decreasing along the radii; a decrease means the
    winding engine failed and is raised as a hard error.
    """

    w: complex
    radii: tuple
    counts: tuple
    residuals: tuple
    stabilized: bool
    value: int
    failed_radius: float | None = None

    def __post_init__(self):
        for a, b in zip(self.counts, self.counts[1:]):
            if b < a:
                raise InternalConsistencyError(
                    f"winding counts decreased along radii: {self.counts}")


@dataclass
class HeatmapGrid:
    """resolution x resolution valence counts over the square [-1, 1]^2.

    Row-major, top row first: cell (row, col) is centred at
    x = -1 + (col + 0.5) * 2/res, y = 1 - (row + 0.5) * 2/res.
    Cells outside the queried disc hold OUTSIDE_MARK, unresolvable cells
    hold ERROR_MARK.
    """

    resolution: int
    radius: float
    cells: np.ndarray = field(repr=False)

    def counts_present(self) -> set:
        return set(int(c) for c in np.unique(self.cells) if c >= 0)


def _cell_axis(resolution: int) -> np.ndarray:
    return -1.0 + (np.arange(resolution) + 0.5) * 2.0 / resolution


def winding_number(f, w: complex, r: float, initial_nodes: int = None):
    """Winding count of f - w on |z| = r and its distance to an integer.

    Raises ContourProximityError when the image curve passes too close to
    w (the caller should perturb r) and RefinementOverflowError when the
    adaptive subdivision exceeds its node budget.
    """
    w = require_finite(w, "w")
    if not 0.0 < r < 1.0:
        raise ValueError(f"contour radius must lie in (0, 1), got {r!r}")
    nodes = INITIAL_NODES if initial_nodes is None else int(initial_nodes)
    if nodes < 16:
        raise ValueError("initial_nodes must be at least 16")

    # work in circle fractions t in [0, 1); the closing step wraps to t=0
    t = np.arange(nodes, dtype=float) / nodes

    def evaluate(ts):
        z = r * np.exp(2j * math.pi * ts)
        values, derivs = f.eval_many(z)
        v = values - w
        floors = PROXIMITY_REL * (np.abs(values) + abs(w))
        too_close = (np.abs(v) < floors) | (np.abs(v) == 0.0)
        if too_close.any():
            i = int(np.argmax(too_close))
            raise ContourProximityError(
                f"contour node at t={ts[i]:.6f} has |f-w| = {abs(v[i]):.3e}, "
                "below the proximity floor", radius=r,
                min_distance=float(np.min(np.abs(v))))
        # phase speed |d arg(f - w)/dt| <= 2 pi r |f'| / |f - w| at the node;
        # it bounds how far the argument can drift across an unseen arc
        speed = TWO_PI * r * np.abs(derivs) / np.abs(v)
        return v, speed

    v, speed = evaluate(t)
    while True:
        v_next = np.concatenate([v[1:], v[:1]])
        with np.errstate(invalid="ignore"):
            dphi = np.angle(v_next / v)
        dt = np.empty_like(t)
        dt[:-1] = t[1:] - t[:-1]
        dt[-1] = 1.0 + t[0] - t[-1]
        mags = np.abs(v)
        mags_next = np.concatenate([mags[1:], mags[:1]])
        lo = np.minimum(mags, mags_next)
        hi = np.maximum(mags, mags_next)
        chord = np.abs(v_next - v)
        speed_next = np.concatenate([speed[1:], speed[:1]])
        drift = dt * np.maximum(speed, speed_next)
        bad = ((np.abs(dphi) > JUMP_THRESHOLD)
               | (lo < DIP_RATIO * hi)
               | (chord > CHORD_RATIO * lo)
               | (drift > JUMP_THRESHOLD))
        if not bad.any():
            break
        if len(t) + int(bad.sum()) > MAX_NODES:
            raise RefinementOverflowError(
                f"contour refinement needs more than {MAX_NODES} nodes")
        idx = np.nonzero(bad)[0]
        t_hi = np.where(idx + 1 < len(t), t[(idx + 1) % len(t)], 1.0)
        t_mid = 0.5 * (t[idx] + t_hi)
        v_mid, speed_mid = evaluate(t_mid)
        t = np.concatenate([t, t_mid])
        v = np.concatenate([v, v_mid])
        speed = np.concatenate([speed, speed_mid])
        order = np.argsort(t, kind="stable")
        t = t[order]
        v = v[order]
        speed = speed[order]

    total = float(np.sum(dphi))
    wind = total / TWO_PI
    count = int(round(wind))
    residual = abs(wind - count)
    if residual > RESIDUAL_MAX:
        raise InternalConsistencyError(
            f"winding {wind!r} is {residual:.3e} from an integer")
    if count < 0:
        raise InternalConsistencyError(
            f"negative winding {count} for a holomorphic map")
    return count, residual


def _winding_with_perturbation(f, w, r, delta):
    """Try r, then the jitter ladder r + k*delta; returns (count, residual, r)."""
    last_error = None
    for k in (0,) + PERTURB_STEPS:
        radius = r + k * delta
        if not 0.0 < radius < 1.0 - 1e-12:
            continue
        try:
            count, residual = winding_number(f, w, radius)
            return count, residual, radius
        except ContourProximityError as err:
            last_error = err
    raise last_error if last_error is not None else ContourProximityError(
        "no admissible perturbed radius", radius=r)


def valence_at(f, w: complex, schedule=None) -> ValenceReport:
    """Valence report for f at w over an increasing radius schedule.

    Contour-proximity failures perturb the radius by +-1e-4 * 2^-j (up to
    five jitters).  The scan stops early once ``STOP_RUN`` consecutive
    counts agree at radii beyond ``STOP_MIN_RADIUS``; agreement closer to
    the centre proves nothing because preimages may still hide outside.
    """
    w = require_finite(w, "w")
    radii = default_schedule() if schedule is None else tuple(schedule)
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("schedule radii must lie in (0, 1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("schedule must be strictly increasing")

    counts, used, residuals = [], [], []
    stabilized = False
    failed_radius = None
    for j, r in enumerate(radii, start=1):
        delta = PERTURB_BASE * 2.0 ** -j
        try:
            count, residual, radius = _winding_with_perturbation(f, w, r, delta)
        except ContourProximityError:
            failed_radius = r
            break
        counts.append(count)
        used.append(radius)
        residuals.append(residual)
        if (len(counts) >= STOP_RUN and len(set(counts[-STOP_RUN:])) == 1
                and all(x >= STOP_MIN_RADIUS for x in used[-STOP_RUN:])):
            stabilized = True
            break
    if failed_radius is None and len(counts) >= STOP_RUN:
        stabilized = stabilized or len(set(counts[-STOP_RUN:])) == 1
    return ValenceReport(
        w=w, radii=tuple(used), counts=tuple(counts), residuals=tuple(residuals),
        stabilized=stabilized and failed_radius is None,
        value=counts[-1] if counts else 0,
        failed_radius=failed_radius)


def valence_profile(f, w: complex, radii) -> list:
    """Raw per-radius winding counts, no early stopping, no jitter."""
    w = require_finite(w, "w")
    radii = tuple(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    out = []
    for r in radii:
        count, _ = winding_number(f, w, r)
        out.append((r, count))
    return out


def valence_heatmap(f, resolution: int, radius: float, threads=None) -> HeatmapGrid:
    """Winding count at every grid cell w inside |w| < radius - 1e-3.

    Cells are filled in order on the calling thread; ``threads`` is
    accepted for compatibility and ignored.  Per-cell failures become
    ERROR_MARK, never an exception.
    """
    if not 16 <= resolution <= 4096:
        raise ValueError("resolution must lie in [16, 4096]")
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    margin = radius - 1e-3
    xs = _cell_axis(resolution)
    ys = -_cell_axis(resolution)  # top row first
    delta = PERTURB_BASE * (1.0 - radius)

    cells = np.empty((resolution, resolution), dtype=np.int16)
    for row, y in enumerate(ys):
        for col, x in enumerate(xs):
            w = complex(x, y)
            if abs(w) >= margin:
                cells[row, col] = OUTSIDE_MARK
                continue
            try:
                count, _, _ = _winding_with_perturbation(f, w, radius, delta)
                cells[row, col] = count
            except (ContourProximityError, RefinementOverflowError,
                    InternalConsistencyError):
                cells[row, col] = ERROR_MARK
    return HeatmapGrid(resolution=resolution, radius=radius, cells=cells)


def heatmap_to_csv(grid: HeatmapGrid) -> str:
    """Text rows "x,y,count"; outside cells -1, failed cells -2."""
    xs = [float(x) for x in _cell_axis(grid.resolution)]
    ys = [float(-y) for y in _cell_axis(grid.resolution)]
    lines = ["x,y,count"]
    for row in range(grid.resolution):
        for col in range(grid.resolution):
            lines.append(f"{xs[col]!r},{ys[row]!r},{int(grid.cells[row, col])}")
    return "\n".join(lines) + "\n"


def heatmap_to_pgm(grid: HeatmapGrid) -> str:
    """Plain (ASCII) PGM; counts clipped to 0..255, markers rendered as 0."""
    clipped = np.clip(grid.cells, 0, 255)
    lines = ["P2", f"{grid.resolution} {grid.resolution}", "255"]
    for row in range(grid.resolution):
        lines.append(" ".join(str(int(v)) for v in clipped[row]))
    return "\n".join(lines) + "\n"
