"""Argument-principle machinery: winding counts, valence reports, heatmaps.

The winding of theta -> f(r e^{i theta}) - w is computed by phase tracking:
unwrapped argument increments are accumulated over contour nodes, adaptively
bisecting any step flagged by the chord test or the speed test.
The count of a holomorphic map equals the number of solutions of f(z) = w
inside |z| < r, with multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContourProximityError,
    DomainError,
    InternalConsistencyError,
    RefinementOverflowError,
)
from .numerics import require_finite

TWO_PI = 2.0 * math.pi

# Cells of a heatmap that fall outside the queried disc / failed to resolve.
OUTSIDE_MARK = -1
ERROR_MARK = -2
CELL_ERRORS = (ContourProximityError, RefinementOverflowError,
               InternalConsistencyError, DomainError)


# Winding engine.
INITIAL_NODES = 64
JUMP_THRESHOLD = math.pi / 2.0   # phase drift the speed test allows a step
PROXIMITY_REL = 1e-9     # floor relative to |f(z)| + |w| per node
PROXIMITY_ABS = np.finfo(float).tiny   # and its absolute part: a subnormal
#                          |f - w| is a near miss, not a value to divide by
CHORD_RATIO = 0.8        # refine steps whose value moves further than its own
#                          distance from the origin: guards against aliased
#                          full phase turns; a phase jump over pi/2 or a
#                          1e-3-fold dip moves it over sqrt 2 times as far
MAX_NODES = 2 ** 20
WAVE_NODES = 6144        # admit contours into a wave while live nodes fit
ADMIT_MAX = 16           # contours one round admits; until a contour of the
#                          call resolves, each is projected at WAVE_NODES /
#                          ADMIT_MAX nodes
RESIDUAL_MAX = 1e-6

# Valence scan.
SCHEDULE_DEPTH = 20                   # radii 1 - 2^-j, j = 1..depth
PERTURB_BASE = 1e-4
PERTURB_STEPS = (1, -1, 2, -2, 3)
STOP_RUN = 3                          # consecutive equal counts
STOP_MIN_RADIUS = 1.0 - 2.0 ** -12    # only trust agreement out here


def default_schedule() -> tuple:
    return tuple(1.0 - 2.0 ** -j for j in range(1, SCHEDULE_DEPTH + 1))


@dataclass(frozen=True)
class ValenceReport:
    """Per-radius winding counts of f - w plus a stabilisation verdict.

    ``value`` is the winding count at the last radius reached: the exact
    valence for a finite Blaschke product, not a certified bound in general.
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


@dataclass(frozen=True)
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
        return {c for c in self.cells.ravel().tolist() if c >= 0}


def _cell_axis(resolution: int) -> np.ndarray:
    return -1.0 + (np.arange(resolution) + 0.5) * 2.0 / resolution


def _settle(total: float):
    """Count and residual from a contour's phase sum, or the error it raises."""
    wind = total / TWO_PI
    count = int(round(wind))
    residual = abs(wind - count)
    if residual > RESIDUAL_MAX:
        return InternalConsistencyError(
            f"winding {wind!r} is {residual:.3e} from an integer")
    if count < 0:
        return InternalConsistencyError(
            f"negative winding {count} for a holomorphic map")
    return count, residual


def _unwrap(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _evaluate(f, z, sizes):
    """``f.eval_many`` over consecutive blocks of z, each as if called alone.

    Blocks of two or more nodes share one call.  A one-node block gets its
    own call: numpy reduces a (degree, 1) Blaschke block with another
    summation kernel than a wide block, which moves the last bits.  When
    a call shared by several blocks raises (maps raise for a whole batch),
    every block is evaluated on its own so that each error lands on the
    contour that causes it.  Returns values, derivatives and
    {block: exception}; one call that evaluates every block returns its
    own arrays.
    """
    wide = (sizes > 1).nonzero()[0]
    alone = (sizes == 1).nonzero()[0]
    errors = {}
    wide_out = None
    if len(wide):
        try:
            if not len(alone):
                return (*f.eval_many(z), errors)
            shared = np.repeat(sizes > 1, sizes)
            wide_out = f.eval_many(z[shared])
        except Exception as err:
            if len(wide) == 1:
                errors[wide[0]] = err
            else:
                alone = np.arange(len(sizes))
    values, derivs = np.zeros((2, len(z)), dtype=complex)
    if wide_out is not None:
        values[shared], derivs[shared] = wide_out
    ends = sizes.cumsum()
    for b in alone:
        part = slice(ends[b] - sizes[b], ends[b])
        try:
            values[part], derivs[part] = f.eval_many(z[part])
        except Exception as err:
            errors[b] = err
    return values, derivs, errors


def _node_error(ts, values, derivs, gap, floors, r):
    """The error of a contour whose fresh nodes are non-finite or too close."""
    broken = ~(np.isfinite(values) & np.isfinite(derivs))
    if broken.any():
        i = int(np.argmax(broken))
        return DomainError(
            f"f or f' is not finite at the contour node t={ts[i]:.6f} "
            f"on |z| = {r!r}")
    mags = np.abs(gap)
    i = int(np.argmax(mags < floors))
    floor = ("proximity floor" if np.isfinite(floors[i])
             else "infinite proximity floor of a step too short to split")
    return ContourProximityError(
        f"contour node at t={ts[i]:.6f} has |f-w| = {abs(gap[i]):.3e}, "
        f"below the {floor}", radius=r,
        min_distance=float(np.min(mags)))


def _bisect(t, v, speed, sizes):
    """One refinement pass over the contours laid end to end in t, v, speed.

    Returns the number of steps of each contour that the chord or the speed
    test flags, (contour, phase sum) for each contour with none, and the
    midpoint of every flagged step, the index it goes before and whether it
    rounds onto an end of its step, which is then too short to split.  The
    closing step of a contour ends at its first node, t = 0, read as 1.
    """
    ends = sizes.cumsum()
    starts = ends - sizes
    nxt = np.arange(1, len(t) + 1)
    nxt[ends - 1] = starts
    t_next = t[nxt]
    t_next[ends - 1] += 1.0
    # the peak RSS of a wave is set here: each temporary goes as soon as it
    # is used, and both masks share one buffer of at least 1 KiB, since
    # numpy keeps up to seven freed buffers of every smaller size; without
    # the shared buffer, the theorem-a benchmark read about 0.7 MB more
    # peak RSS in each of 6 alternating pairs
    bad, test = np.empty((2, max(len(t), 512)), dtype=bool)[:, :len(t)]
    mags = np.abs(v)
    np.greater(np.abs(v[nxt] - v), CHORD_RATIO * np.minimum(mags, mags[nxt]), out=bad)
    del mags
    bad |= np.greater((t_next - t) * np.maximum(speed, speed[nxt]),
                      JUMP_THRESHOLD, out=test)
    nbad = np.add.reduceat(bad, starts, dtype=np.intp)
    # phase increments only at the nodes of the contours that resolve
    done = (nbad == 0).nonzero()[0]
    nodes = np.repeat(nbad == 0, sizes)
    with np.errstate(invalid="ignore"):
        ratio = v[nxt[nodes]] / v[nodes]
        dphi = np.arctan2(ratio.imag, ratio.real)
    # np.add.reduce on a contour's own slice keeps the pairwise order of
    # summing that contour alone, as np.sum does; np.add.reduceat does not
    lengths = sizes[done]
    sums = [(c, float(np.add.reduce(dphi[top - n:top]))) for c, n, top
            in zip(done.tolist(), lengths.tolist(), lengths.cumsum().tolist())]
    idx = bad.nonzero()[0]
    t_lo, t_hi = t[idx], t_next[idx]
    t_mid = 0.5 * (t_lo + t_hi)
    return nbad, sums, t_mid, idx + 1, (t_mid == t_lo) | (t_mid == t_hi)


def _merge(pos, n):
    """Indices into n nodes followed by new ones, in merged order: new node k
    goes before node pos[k], and pos never decreases, so it lands at pos[k] + k."""
    slots = pos + np.arange(len(pos))
    merged = np.ones(n + len(pos), dtype=np.intp)
    merged[slots] = 0
    merged = merged.cumsum() - 1
    merged[slots] = np.arange(n, len(merged))
    return merged


def _wind(f, ws, rs, initial_nodes: int = INITIAL_NODES) -> list:
    """Winding count of f - w on |z| = r for each w, r in ``zip(ws, rs)``.

    Each entry is ``(count, residual)`` or the exception that refining the
    contour on its own raises; the bits are the same either way.  Contours
    advance in lock-step: one round bisects the flagged steps of every live
    contour, and one ``f.eval_many`` call evaluates the new nodes of all of
    them.  A contour admitted in a round joins the live ones with no nodes
    and ``initial_nodes`` flagged steps, whose new nodes are its grid.
    Contours are admitted by the size they will reach: the mean final size
    of the contours of the call already resolved or, until one has, an
    ADMIT_MAX-th of WAVE_NODES, and never less than the grid.  A live
    contour counts at that projection until it outgrows it.  A round
    admits up to ADMIT_MAX contours while the live count plus each
    newcomer's projection stays within WAVE_NODES, which bounds the new
    nodes of one evaluation.  Every r must lie in (0, 1); callers check it.
    """
    out = [None] * len(rs)
    radius = np.array(rs, dtype=float)
    target = np.array(ws, dtype=complex)
    target_abs = np.array([abs(w) for w in ws])
    # phase speed |d arg(f - w)/dt| <= 2 pi r |f'| / |f - w| at a node; it
    # bounds how far the argument can drift across an unseen arc
    rate = TWO_PI * radius
    grid = np.arange(initial_nodes, dtype=float) / initial_nodes

    # live contours, in flat order; their nodes sorted by (contour, t)
    ids = np.empty(0, dtype=np.intp)
    sizes = np.empty(0, dtype=np.intp)
    t = np.empty(0)
    v = np.empty(0, dtype=complex)
    speed = np.empty(0)
    resolved = resolved_nodes = queued = 0
    while len(ids) or queued < len(rs):
        nbad, sums, ts, pos, unsplit = _bisect(t, v, speed, sizes)
        for c, total in sums:
            out[ids[c]] = _settle(total)
            resolved += 1
            resolved_nodes += int(sizes[c])
        over = sizes + nbad > MAX_NODES
        if over.any():
            for c in over.nonzero()[0]:
                out[ids[c]] = RefinementOverflowError(
                    f"contour refinement needs more than {MAX_NODES} nodes")
            steps = np.repeat(~over, nbad)
            ts, pos, unsplit = ts[steps], pos[steps], unsplit[steps]
            nbad[over] = 0

        projected = (resolved_nodes / resolved if resolved
                     else max(initial_nodes, WAVE_NODES / ADMIT_MAX))
        live = float(np.maximum(sizes + nbad, projected)[nbad > 0].sum())
        admitted = []
        while queued < len(rs) and len(admitted) < ADMIT_MAX and (
                live + projected <= WAVE_NODES or not (live or admitted)):
            admitted.append(queued)
            queued += 1
            live += projected
        if not (len(ts) or admitted):
            break
        if admitted:
            # a new contour's grid goes after every live node, and after the
            # midpoints of the closing step of the last live contour, which
            # share its position: _merge keeps such nodes in input order
            ids = np.concatenate([ids, np.array(admitted, dtype=np.intp)])
            sizes = np.concatenate([sizes, np.zeros(len(admitted), dtype=np.intp)])
            nbad = np.concatenate([nbad, np.full(len(admitted), initial_nodes, dtype=np.intp)])
            ts = np.concatenate([ts] + [grid] * len(admitted))
            pos = np.concatenate([pos, np.full(len(admitted) * initial_nodes, len(t))])

        grow = nbad > 0
        owners = ids[grow]
        block_sizes = nbad[grow]
        owner = np.repeat(owners, block_sizes)
        values, derivs, errors = _evaluate(
            f, radius[owner] * np.exp(2j * math.pi * ts), block_sizes)
        gap = values - target[owner]
        gap_abs = np.abs(gap)
        floors = (np.abs(values) + target_abs[owner]) * PROXIMITY_REL + PROXIMITY_ABS
        # a step too short to split is a near miss: the midpoints come first
        floors[:len(unsplit)][unsplit] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            speed_new = np.abs(derivs) * rate[owner] / gap_abs
        flagged = ((gap_abs < floors) | ~np.isfinite(values)
                   | ~np.isfinite(derivs))
        if errors or flagged.any():
            block_ends = block_sizes.cumsum()
            block_starts = block_ends - block_sizes
            suspects = set(errors).union(
                np.add.reduceat(flagged, block_starts).nonzero()[0])
            blocks = grow.nonzero()[0]
            for b in sorted(suspects):
                part = slice(block_starts[b], block_ends[b])
                out[owners[b]] = errors.get(b) or _node_error(
                    ts[part], values[part], derivs[part], gap[part],
                    floors[part], rs[owners[b]])
                grow[blocks[b]] = False

        # next round: the nodes of the contours still refining, new ones at pos
        source = _merge(pos, len(t))[np.repeat(grow, sizes + nbad)]
        t = np.concatenate([t, ts])[source]
        v = np.concatenate([v, gap])[source]
        speed = np.concatenate([speed, speed_new])[source]
        ids = ids[grow]
        sizes = (sizes + nbad)[grow]
    return out


def _check_radii(radii):
    """Raise ValueError unless there are contour radii, all in (0, 1) and increasing."""
    if not radii:
        raise ValueError("contour radius schedule must not be empty")
    for r in radii:
        if not 0.0 < r < 1.0:
            raise ValueError(f"contour radius must lie in (0, 1), got {r!r}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("contour radii must be strictly increasing")


def winding_number(f, w: complex, r: float, initial_nodes: int = INITIAL_NODES):
    """Winding count of f - w on |z| = r and its distance to an integer.

    Raises ContourProximityError when the image curve passes too close to
    w or a flagged step is too short to split (the caller should perturb r),
    RefinementOverflowError when the adaptive subdivision exceeds its node
    budget and DomainError when f or f' is not finite at a node.
    """
    w = require_finite(w, "w")
    _check_radii((r,))
    if initial_nodes < 16:
        raise ValueError("initial_nodes must be at least 16")
    return _unwrap(_wind(f, [w], [r], int(initial_nodes))[0])


def _wave(f, ws, rs) -> list:
    """``_wind`` outcomes for one wave of contours.

    A wave of one contour is a ``winding_number`` call, so that tools which
    wrap that public name (the benchmark tracer) still see one-contour work.
    """
    if len(rs) != 1:
        return _wind(f, ws, rs)
    return [_attempt(winding_number, f, ws[0], rs[0])]


def _ladders(f, ws, rs) -> list:
    """The jitter ladder r, r + k*delta of each contour, k in PERTURB_STEPS,
    with delta = PERTURB_BASE * (1 - r) worked out from r first.

    All ladders climb together, one ``_wave`` per rung.  Since |k| *
    PERTURB_BASE < 1/2, every rung lies below 1: only a rung at or below 0
    is skipped, and r itself is always tried.  Each entry is ``(radius,
    outcome)`` for the first rung whose outcome is not a
    ContourProximityError or, when every rung's is, ``(r, r's own error)``.
    """
    out = list(zip(rs, _wave(f, ws, rs)))
    pending = range(len(rs))
    for k in PERTURB_STEPS:
        pending = [j for j in pending if isinstance(out[j][1], ContourProximityError)]
        if not pending:
            break
        rung = [(j, r) for j in pending
                if (r := rs[j] + k * (PERTURB_BASE * (1.0 - rs[j]))) > 0.0]
        outcomes = _wave(f, [ws[j] for j, _ in rung], [r for _, r in rung])
        for (j, r), outcome in zip(rung, outcomes):
            if not isinstance(outcome, ContourProximityError):
                out[j] = (r, outcome)
    return out


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as err:
        return err


def _report(f, w, radii, rungs) -> ValenceReport:
    """The scan of one target, given the ladders of its first radii; each
    later radius gets its ladder when the walk reaches it."""
    counts, used, residuals = [], [], []
    failed_radius, stabilized = None, False
    for j, r in enumerate(radii):
        if j == len(rungs):
            rungs += _ladders(f, [w], [r])
        radius, outcome = rungs[j]
        if isinstance(outcome, ContourProximityError):
            failed_radius = r
            break
        count, residual = _unwrap(outcome)
        counts.append(count)
        used.append(radius)
        residuals.append(residual)
        if (len(counts) >= STOP_RUN and len(set(counts[-STOP_RUN:])) == 1
                and all(x >= STOP_MIN_RADIUS for x in used[-STOP_RUN:])):
            stabilized = True
            break
    return ValenceReport(
        w=w, radii=tuple(used), counts=tuple(counts), residuals=tuple(residuals),
        stabilized=stabilized, value=counts[-1] if counts else 0,
        failed_radius=failed_radius)


def _valences(f, ws, schedule=None) -> list:
    """For each target of ``ws``, the report ``valence_at(f, w, schedule)``
    returns or the exception it raises; a non-finite target or a bad
    schedule raises for the call.  The first-wave ladders of all targets
    climb in one ``_ladders`` call, then each target finishes its own scan."""
    ws = [require_finite(w, "w") for w in ws]
    radii = default_schedule() if schedule is None else tuple(schedule)
    _check_radii(radii)
    # the stop rule can fire first STOP_RUN - 1 radii after the first radius
    # at or beyond STOP_MIN_RADIUS
    first = radii[:next((i + STOP_RUN for i, r in enumerate(radii)
                         if r >= STOP_MIN_RADIUS), len(radii))]
    rungs = iter(_ladders(f, [w for w in ws for _ in first], first * len(ws)))
    return [_attempt(_report, f, w, radii, [next(rungs) for _ in first])
            for w in ws]


def _scan(f, ws):
    """Yield ``(w, outcome)`` for each target of ``ws`` in order, from
    ``_valences`` on chunks of 1, 2, 4, ... targets: a consumer that stops
    at target i has had at most 2i + 1 of them computed."""
    start = 0
    while start < len(ws):
        chunk = ws[start:2 * start + 1]
        yield from zip(chunk, _valences(f, chunk))
        start = 2 * start + 1


def valence_at(f, w: complex, schedule=None) -> ValenceReport:
    """Valence report for f at w over an increasing radius schedule.

    Contour-proximity failures perturb the radius r by +-1e-4 * (1 - r)
    (up to five jitters).  The scan stops early once ``STOP_RUN`` consecutive
    counts agree at radii beyond ``STOP_MIN_RADIUS``; agreement closer to
    the centre proves nothing because preimages may still hide outside.
    ``stabilized`` is true exactly when this stop rule fired.  This is the
    one-target case of ``_valences``.
    """
    return _unwrap(_valences(f, [w], schedule)[0])


def valence_profile(f, w: complex, radii) -> list:
    """Per-radius winding counts, no early stopping: each radius climbs the
    jitter ladder of ``valence_at``, and its pair holds the radius counted at."""
    w = require_finite(w, "w")
    radii = tuple(radii)
    _check_radii(radii)
    return [(r, _unwrap(outcome)[0]) for r, outcome in _ladders(f, [w] * len(radii), radii)]


class DerivativeView:
    """f', to count its zeros, and its central difference with step h, which
    feeds only the speed test.  Not a map handle: |f'| may exceed 1."""

    def __init__(self, f, h: float):
        self.f, self.h = f, h

    def eval_many(self, z):
        n, h = len(z), self.h
        _, derivs = self.f.eval_many(np.concatenate([z, z + h, z - h]))
        return derivs[:n], (derivs[n:2 * n] - derivs[2 * n:]) / (2.0 * h)


def _check_resolution(resolution):
    if not 16 <= resolution <= 4096:
        raise ValueError("resolution must lie in [16, 4096]")


def valence_heatmap(f, resolution: int, radius: float, threads=None) -> HeatmapGrid:
    """Winding count at every grid cell w inside |w| < radius - 1e-3.

    The jitter ladders of all cells climb together; ``threads`` is accepted
    for compatibility and ignored.  Per-cell failures become ERROR_MARK,
    never an exception.
    """
    _check_resolution(resolution)
    _check_radii((radius,))
    margin = radius - 1e-3
    xs = _cell_axis(resolution)
    ys = -_cell_axis(resolution)  # top row first

    inside = np.zeros(resolution * resolution, dtype=bool)
    ws = []
    for i, w in enumerate(complex(x, y) for y in ys for x in xs):
        if abs(w) < margin:
            inside[i] = True
            ws.append(w)
    rs = [radius] * len(ws)
    # the first cell goes alone: a map that raises there for another reason
    # than the contour (one that leaves the disc, say) fails the heatmap
    # before any other cell is computed
    ladders = _ladders(f, ws[:1], rs[:1])
    for _, outcome in ladders:
        if not isinstance(outcome, (tuple,) + CELL_ERRORS):
            raise outcome
    ladders += _ladders(f, ws[1:], rs[1:])
    cells = np.full(resolution * resolution, OUTSIDE_MARK, dtype=np.int16)
    cells[inside] = [ERROR_MARK if isinstance(outcome, CELL_ERRORS)
                     else _unwrap(outcome)[0] for _, outcome in ladders]
    cells = cells.reshape(resolution, resolution)
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
