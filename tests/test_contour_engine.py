"""The lock-step contour engine gives each contour the bits it gets alone.

``valence._wind`` refines many contours per ``eval_many`` call, and
``valence._ladders`` climbs many jitter ladders together.  These tests
compare one multi-contour call with one-contour calls, and the batched
``valence_at`` / ``valence_heatmap`` with the one-contour-at-a-time scans
they replaced, kept here as references.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blaschke_lab import valence
from blaschke_lab.errors import (
    ContourProximityError,
    DiscPreservationError,
    DomainError,
    InternalConsistencyError,
    PoleError,
    RefinementOverflowError,
)
from blaschke_lab.gallery import frostman_shift, make_atomic_inner, make_slit_power
from blaschke_lab.maps import BlaschkeProduct, DiscMapHandle, blaschke_handle
from blaschke_lab.mapspec import parse_map_spec
from blaschke_lab.valence import (
    ERROR_MARK,
    OUTSIDE_MARK,
    PERTURB_BASE,
    PERTURB_STEPS,
    STOP_MIN_RADIUS,
    STOP_RUN,
    ValenceReport,
    default_schedule,
    valence_at,
    valence_heatmap,
    valence_profile,
    winding_number,
)
from blaschke_lab.verifier import (
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_A,
    demo_hurwitz_escape,
)

CUBE = blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j, 0j)))

# Seed 7, case 358 of theorem-a: at r = 1 - 2^-9 one refinement round adds
# a single midpoint, whose (degree, 1) evaluation sums in another order
# than a wide batch would.
PINNED = blaschke_handle(BlaschkeProduct(
    lam=complex(0.31600585014012705, -0.9487572411724801),
    zeros=(complex(-0.6415038376585909, -0.6170525195558565),
           complex(0.21021587087024957, 0.6529078139577776),
           complex(-0.17286086065406406, 0.6625249635476573),
           complex(0.23350881138735646, 0.24306578268112483))))
PINNED_W = complex(-0.2780511454515483, 0.7104977423985515)
PINNED_R = 0.998046875
PINNED_OUTCOME = (4, 1.3322676295501878e-15)


def _same(batched, alone):
    """Equal counts and residual bits, or the same error class and message."""
    if isinstance(alone, Exception):
        assert type(batched) is type(alone)
        assert str(batched) == str(alone)
        if isinstance(alone, ContourProximityError):
            assert (batched.radius, batched.min_distance) == (alone.radius, alone.min_distance)
    else:
        assert batched[0] == alone[0]
        assert batched[1].hex() == alone[1].hex()


def _check_engine(f, jobs):
    batched = valence._wind(f, [w for w, _ in jobs], [r for _, r in jobs])
    alone = [valence._wind(f, [w], [r])[0] for w, r in jobs]
    for b, a in zip(batched, alone):
        _same(b, a)
    return batched


def _random_blaschke(rng):
    degree = int(rng.integers(1, 7))
    zeros = tuple(complex(0.95 * math.sqrt(rng.uniform())
                          * np.exp(2j * math.pi * rng.uniform())) for _ in range(degree))
    return BlaschkeProduct(lam=complex(np.exp(2j * math.pi * rng.uniform())), zeros=zeros)


def _nan_arc(radius):
    """z^2, except NaN on the first-quadrant arc of |z| = radius."""

    def fn(z):
        arc = (np.abs(np.abs(z) - radius) < 1e-12) & (z.real > 0) & (z.imag > 0)
        return np.where(arc, np.nan, z * z), 2.0 * z

    return DiscMapHandle(fn, "nan-arc")


NAN_ARC = _nan_arc(0.5)


def _constant(value):
    return DiscMapHandle(lambda z: (np.full_like(z, value), np.zeros_like(z)), "constant")


def _pole_right_of(z):
    """z/2 that refuses, for the whole batch, any node with Re z > 0.65."""
    if np.any(z.real > 0.65):
        raise PoleError(f"pole near {z[np.argmax(z.real)]!r}")
    return 0.5 * z, np.full_like(z, 0.5)


def _record_evaluations(monkeypatch):
    """The node count of every later ``eval_many`` call, in call order."""
    sizes = []
    original = DiscMapHandle.eval_many

    def recording(self, z):
        sizes.append(int(np.size(z)))
        return original(self, z)

    monkeypatch.setattr(DiscMapHandle, "eval_many", recording)
    return sizes


def _record_work(monkeypatch):
    """A function that returns the ``eval_many`` calls, their nodes and the
    ``_bisect`` rounds of every later engine run."""
    sizes = _record_evaluations(monkeypatch)
    rounds = []
    bisect = valence._bisect

    def counting(t, v, speed, sizes):
        rounds.append(len(t))
        return bisect(t, v, speed, sizes)

    monkeypatch.setattr(valence, "_bisect", counting)
    return lambda: (len(sizes), sum(sizes), len(rounds))


def test_pinned_single_node_contour():
    assert winding_number(PINNED, PINNED_W, PINNED_R) == PINNED_OUTCOME


def test_pinned_contour_keeps_its_bits_in_a_shared_wave():
    jobs = [(PINNED_W, 0.5), (0.3j, PINNED_R), (PINNED_W, PINNED_R),
            (-0.4 + 0.1j, 0.9), (PINNED_W, 0.75)]
    batched = _check_engine(PINNED, jobs)
    assert batched[2] == PINNED_OUTCOME
    report = valence_at(PINNED, PINNED_W)
    assert report.radii[8] == PINNED_R
    assert (report.counts[8], report.residuals[8]) == PINNED_OUTCOME


def test_engine_matches_one_contour_calls_on_random_products():
    rng = np.random.default_rng(404)
    radii = (0.5, 0.75, 0.9, 0.99, 0.998046875, 1.0 - 2.0 ** -14)
    for _ in range(12):
        f = blaschke_handle(_random_blaschke(rng))
        jobs = [(complex(0.9 * math.sqrt(rng.uniform())
                         * np.exp(2j * math.pi * rng.uniform())), r)
                for r in radii for _ in range(2)]
        for outcome in _check_engine(f, jobs):
            assert isinstance(outcome, tuple)


def test_engine_attributes_a_proximity_failure():
    batched = _check_engine(CUBE, [(0.1, 0.5), (0.125, 0.5), (0.2, 0.5), (0.0, 0.9)])
    assert isinstance(batched[1], ContourProximityError)
    assert [o[0] for i, o in enumerate(batched) if i != 1] == [3, 0, 3]


def test_engine_attributes_an_overflow(monkeypatch):
    monkeypatch.setattr(valence, "MAX_NODES", 128)
    atomic = make_atomic_inner()
    batched = _check_engine(atomic, [(0.2, 0.3), (math.exp(-1), 0.999), (0.1j, 0.2)])
    assert isinstance(batched[1], RefinementOverflowError)
    assert isinstance(batched[0], tuple) and isinstance(batched[2], tuple)


def test_engine_attributes_a_whole_batch_disc_preservation_error():
    stretch = DiscMapHandle(lambda z: (1.6 * z, np.full_like(z, 1.6)), "stretch")
    batched = _check_engine(stretch, [(0.1, 0.5), (0.1, 0.7), (0.2, 0.4)])
    assert isinstance(batched[1], DiscPreservationError)
    assert batched[0] == (1, batched[0][1]) and batched[2] == (1, batched[2][1])


def test_engine_attributes_a_whole_batch_pole_error():
    pole = DiscMapHandle(_pole_right_of, "pole-right")
    batched = _check_engine(pole, [(0.1, 0.5), (0.1, 0.7), (0.1, 0.6), (-0.2, 0.66)])
    assert [type(o) for o in batched] == [tuple, PoleError, tuple, PoleError]


def test_midpoint_rounding_onto_its_right_end_sorts_after_it():
    # 0.5 * (x + next float) rounds half to even: pick x so that the
    # midpoint lands on the right end of its step
    x = 0.1 if 0.5 * (0.1 + np.nextafter(0.1, 1.0)) != 0.1 else np.nextafter(0.1, 1.0)
    t = np.arange(16) / 16
    t[1], t[2] = x, np.nextafter(x, 1.0)
    speed = np.zeros(16)
    speed[1] = speed[2] = 1e300       # flags the three steps next to nodes 1, 2
    nbad, _, t_mid, pos = valence._bisect(t, np.exp(2j * np.pi * t), speed,
                                          np.array([16]))
    # the rounded midpoint shares its position with the next one
    assert nbad.tolist() == [3] and t_mid[1] == t[2] and pos[1] == pos[2]
    merged = valence._merge(pos, 16)
    stable = np.argsort(np.concatenate([t, t_mid]), kind="stable")
    assert merged.tolist() == stable.tolist()


def test_the_merge_puts_a_rounded_midpoint_and_an_admitted_grid_in_stable_order():
    # contour 0 has a midpoint that rounds onto its right end; the closing
    # step of contour 1 is flagged, so its midpoint goes to len(t), the
    # position of the grid that a newly admitted contour 2 brings
    x = 0.1 if 0.5 * (0.1 + np.nextafter(0.1, 1.0)) != 0.1 else np.nextafter(0.1, 1.0)
    t0 = np.arange(16) / 16
    t0[1], t0[2] = x, np.nextafter(x, 1.0)
    t1 = np.arange(8) / 8
    t = np.concatenate([t0, t1])
    speed = np.zeros(24)
    speed[1] = speed[2] = speed[23] = 1e300
    sizes = np.array([16, 8])
    nbad, _, t_mid, pos = valence._bisect(t, np.exp(2j * np.pi * t), speed, sizes)
    assert nbad.tolist() == [3, 2] and t_mid[1] == t[2] and pos[-1] == 24
    grid = np.arange(4) / 4
    new_t = np.concatenate([t_mid, grid])
    new_pos = np.concatenate([pos, np.full(4, 24)])
    contour = np.concatenate([np.repeat([0, 1], sizes), [0, 0, 0, 1, 1], np.full(4, 2)])
    stable = np.lexsort((np.concatenate([t, new_t]), contour))
    assert valence._merge(new_pos, 24).tolist() == stable.tolist()


def _merge_checked_against_a_stable_sort(monkeypatch):
    """Check every merge of later engine runs against a stable sort of its
    nodes by (contour, t); returns (midpoints, grid nodes) of each merge."""
    bisect, merge = valence._bisect, valence._merge
    last, checked = [], []

    def recording(t, v, speed, sizes):
        outcome = bisect(t, v, speed, sizes)
        last[:] = [t, sizes, outcome[2], outcome[3]]
        return outcome

    def checked_merge(pos, n):
        t, sizes, t_mid, mid_pos = last
        grids = len(pos) - len(t_mid)
        assert n == len(t) and pos[:len(t_mid)].tolist() == mid_pos.tolist()
        assert (np.diff(pos) >= 0).all()
        ends = sizes.cumsum()
        contour = np.concatenate([np.repeat(np.arange(len(sizes)), sizes),
                                  ends.searchsorted(mid_pos - 1, side="right"),
                                  len(sizes) + np.arange(grids) // valence.INITIAL_NODES])
        keys = np.concatenate([t, t_mid, np.arange(grids) % valence.INITIAL_NODES
                               / valence.INITIAL_NODES])
        merged = merge(pos, n)
        assert merged.tolist() == np.lexsort((keys, contour)).tolist()
        checked.append((len(t_mid), grids))
        return merged

    monkeypatch.setattr(valence, "_bisect", recording)
    monkeypatch.setattr(valence, "_merge", checked_merge)
    return checked


@pytest.mark.parametrize("wave, admit", [(192, 2), (1024, 16), (6144, 16), (6144, 64)])
def test_every_engine_merge_is_a_stable_sort_by_contour_and_t(monkeypatch, wave, admit):
    monkeypatch.setattr(valence, "WAVE_NODES", wave)
    monkeypatch.setattr(valence, "ADMIT_MAX", admit)
    checked = _merge_checked_against_a_stable_sort(monkeypatch)
    near = [(r ** 3 * (1.0 - 1e-3), r) for r in (0.5, 0.6, 0.7, 0.8)]
    valence._wind(CUBE, [w for w, _ in near], [r for _, r in near])
    valence_heatmap(make_atomic_inner(), 16, 0.999)
    check_theorem_A(1, 2, 3)
    assert len(checked) > 100
    # some merges take midpoints and admitted grids at once
    assert sum(1 for midpoints, grids in checked if midpoints and grids) > 3


def test_new_contours_follow_the_closing_midpoints_of_the_last_live_one(monkeypatch):
    # a small wave admits contours while others still refine, and w just
    # below f(r) = r^3 keeps the closing step of a contour flagged, so the
    # grid of a new contour shares its position, the end of the arrays, with
    # the closing-step midpoints of the last live contour; the small node
    # budget makes a wrong order overflow at once instead of refining for
    # minutes
    monkeypatch.setattr(valence, "WAVE_NODES", 192)
    monkeypatch.setattr(valence, "MAX_NODES", 256)
    rounds = []
    bisect, evaluate = valence._bisect, valence._evaluate

    def tracking_bisect(t, v, speed, sizes):
        nbad, sums, t_mid, pos = bisect(t, v, speed, sizes)
        rounds.append((len(t_mid), bool((pos == len(t)).any())))
        return nbad, sums, t_mid, pos

    ties = []

    def tracking_evaluate(f, z, sizes):
        midpoints, at_end = rounds[-1]
        ties.append(at_end and len(z) > midpoints)   # and contours were admitted
        return evaluate(f, z, sizes)

    monkeypatch.setattr(valence, "_bisect", tracking_bisect)
    monkeypatch.setattr(valence, "_evaluate", tracking_evaluate)
    near = [(r ** 3 * (1.0 - 1e-3), r) for r in (0.5, 0.6, 0.7, 0.8)]
    easy = [(0.1, 0.5), (0.2, 0.5), (0.1j, 0.5), (0.3, 0.9)]
    jobs = [job for pair in zip(easy, near) for job in pair]
    batched = _check_engine(CUBE, jobs)
    assert any(ties)
    assert [o[0] for o in batched] == [3, 3, 0, 3, 3, 3, 3, 3]


def _four_test_bisect(t, v, speed, sizes):
    """The four-test refinement rule, kept as the reference of
    ``valence._bisect``: its chord and speed tests plus a phase-jump test
    (over pi/2) and a modulus-dip test (below 1e-3 of the other end).
    Returns its outcome and how many steps the jump and the dip test flag."""
    ends = sizes.cumsum()
    starts = ends - sizes
    nxt = np.arange(1, len(t) + 1)
    nxt[ends - 1] = starts
    t_next = t[nxt]
    t_next[ends - 1] += 1.0
    v_next = v[nxt]
    with np.errstate(invalid="ignore"):
        ratio = v_next / v
        dphi = np.arctan2(ratio.imag, ratio.real)
    mags, mags_next = np.abs(v), np.abs(v_next)
    lo = np.minimum(mags, mags_next)
    jump = np.abs(dphi) > valence.JUMP_THRESHOLD
    dip = lo < 1e-3 * np.maximum(mags, mags_next)
    bad = (jump | dip | (np.abs(v_next - v) > valence.CHORD_RATIO * lo)
           | ((t_next - t) * np.maximum(speed, speed[nxt]) > valence.JUMP_THRESHOLD))
    nbad = np.add.reduceat(bad, starts, dtype=np.intp)
    sums = [(c, float(np.sum(dphi[starts[c]:ends[c]]))) for c in (nbad == 0).nonzero()[0]]
    idx = bad.nonzero()[0]
    t_hi = t_next[idx]
    t_mid = 0.5 * (t[idx] + t_hi)
    pos = idx + 1
    for k in (t_mid == t_hi).nonzero()[0]:
        end = ends[np.searchsorted(ends, idx[k], side="right")]
        while pos[k] < end and t[pos[k]] <= t_mid[k]:
            pos[k] += 1
    return (nbad, sums, t_mid, pos), (int(jump.sum()), int(dip.sum()))


def _agrees_with_four_tests(outcome, t, v, speed, sizes):
    """Assert that ``_bisect``'s outcome flags the steps that the four-test
    rule flags and has its phase-sum bits; returns the jump and dip counts."""
    (nbad, sums, t_mid, pos), fired = _four_test_bisect(t, v, speed, sizes)
    got_nbad, got_sums, got_mid, got_pos = outcome
    assert got_nbad.tolist() == nbad.tolist()
    assert [(int(c), x.hex()) for c, x in got_sums] == [(int(c), x.hex()) for c, x in sums]
    assert got_mid.tobytes() == t_mid.tobytes() and got_pos.tolist() == pos.tolist()
    return fired


def _adversarial_contour(rng, n):
    """Nodes t and values v of one contour of n nodes, at a modulus scale
    from 1e-300 to 1, whose steps mix smooth moves with phase turns just
    over or under pi/2 and modulus ratios just under or over 1e-3."""
    t = (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
    t[0] = 0.0
    turn = rng.normal(0.0, 0.1, n)
    log_mod = rng.normal(0.0, 0.05, n)
    near = 10.0 ** rng.uniform(-15, -1, n) * rng.choice((-1.0, 1.0), n)
    kind = rng.integers(0, 4, n)          # 0, 1: smooth; 2: turn; 3: dip
    turn[kind == 2] = (math.pi / 2 * (1.0 + near) * rng.choice((-1.0, 1.0), n))[kind == 2]
    level = 0.0
    for j in (kind == 3).nonzero()[0]:    # dips climb back, so |v| stays >= 1e-303
        log_mod[j] = math.log(1e-3 * (1.0 + near[j])) * (1.0 if level > 0 else -1.0)
        level += log_mod[j]
    v = 10.0 ** rng.uniform(-300, 0) * np.exp(np.cumsum(log_mod + 1j * turn))
    return t, v


def _adversarial_wave():
    """300 seeded contours laid end to end: t, v, speed and sizes."""
    rng = np.random.default_rng(20)
    contours, speeds = [], []
    for _ in range(300):
        n = int(rng.integers(64, 160))
        if rng.uniform() < 0.5:
            contours.append(_adversarial_contour(rng, n))
            # speeds whose test fires on some steps and not on others
            speeds.append(rng.uniform(0.0, 1.2, n) * n * valence.JUMP_THRESHOLD)
        else:                             # smooth contours, which resolve
            t = (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
            t[0] = 0.0
            v = (10.0 ** rng.uniform(-300, 0) * np.exp(2j * math.pi * int(rng.integers(0, 3)) * t)
                 * (1.0 + 0.3 * np.cos(2 * math.pi * t)))
            contours.append((t, v))
            speeds.append(rng.uniform(0.0, 0.5, n) * n * valence.JUMP_THRESHOLD)
    sizes = np.array([len(t) for t, _ in contours])
    t = np.concatenate([t for t, _ in contours])
    v = np.concatenate([v for _, v in contours])
    return t, v, np.concatenate(speeds), sizes


def test_two_step_tests_flag_what_four_did_on_adversarial_steps():
    t, v, speed, sizes = _adversarial_wave()
    outcome = valence._bisect(t, v, speed, sizes)
    jumps, dips = _agrees_with_four_tests(outcome, t, v, speed, sizes)
    assert jumps > 1000 and dips > 1000 and len(outcome[1]) > 10


def test_midpoint_positions_never_decrease_on_adversarial_steps():
    # the merge puts new node k at pos[k] + k, which needs pos sorted
    t, v, speed, sizes = _adversarial_wave()
    pos = valence._bisect(t, v, speed, sizes)[3]
    assert len(pos) > 10000 and (np.diff(pos) >= 0).all()


def test_two_step_tests_flag_what_four_did_in_engine_runs(monkeypatch):
    fired = []
    bisect = valence._bisect

    def checked(t, v, speed, sizes):
        outcome = bisect(t, v, speed, sizes)
        fired.append(_agrees_with_four_tests(outcome, t, v, speed, sizes))
        return outcome

    monkeypatch.setattr(valence, "_bisect", checked)
    valence_heatmap(make_atomic_inner(), 16, 0.999)
    check_theorem_A(1, 3, 5)
    check_theorem_3_2(2, 0, 500, 10)     # the only one of these runs with dips
    jumps, dips = np.sum(fired, axis=0)
    assert len(fired) > 300 and jumps > 10000 and dips > 100


def _reference_cell(f, w, radius, delta):
    """The jitter ladder of one heatmap cell, one contour at a time."""
    for k in (0,) + PERTURB_STEPS:
        r = radius + k * delta
        if not 0.0 < r < 1.0 - 1e-12:
            continue
        try:
            return winding_number(f, w, r)[0]
        except ContourProximityError:
            continue
        except (RefinementOverflowError, InternalConsistencyError, DomainError):
            return ERROR_MARK
    return ERROR_MARK


def _reference_heatmap(f, resolution, radius):
    axis = -1.0 + (np.arange(resolution) + 0.5) * 2.0 / resolution
    cells = np.full((resolution, resolution), OUTSIDE_MARK, dtype=np.int16)
    for row, y in enumerate(-axis):
        for col, x in enumerate(axis):
            w = complex(x, y)
            if abs(w) < radius - 1e-3:
                cells[row, col] = _reference_cell(f, w, radius,
                                                  PERTURB_BASE * (1.0 - radius))
    return cells


def test_heatmap_matches_the_cell_by_cell_ladder_with_an_exhausted_cell():
    # a constant map sits on the centre of cell (7, 8), so every rung of
    # that cell's jitter ladder hits the proximity floor
    constant = _constant(complex(0.0625, 0.0625))
    grid = valence_heatmap(constant, 16, 0.9)
    assert grid.cells[7, 8] == ERROR_MARK
    assert np.array_equal(grid.cells, _reference_heatmap(constant, 16, 0.9))
    square = blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0.3 + 0j)))
    assert np.array_equal(valence_heatmap(square, 16, 0.97).cells,
                          _reference_heatmap(square, 16, 0.97))


@pytest.mark.parametrize("make", [make_atomic_inner, lambda: make_slit_power(2)],
                         ids=["atomic-inner", "slit-power"])
def test_heavy_refinement_heatmaps_match_the_cell_by_cell_ladder(make):
    # near the boundary singularities contours outgrow their grid many
    # times over, so a wave admits contours by their projected size
    f = make()
    assert np.array_equal(valence_heatmap(f, 16, 0.999).cells,
                          _reference_heatmap(f, 16, 0.999))


def test_heatmap_fails_at_its_first_cell_before_the_others(monkeypatch):
    # the whole contour leaves the disc, as in the sequential scan, which
    # raised at the first cell
    stretch = DiscMapHandle(lambda z: (1.6 * z, np.full_like(z, 1.6)), "stretch")
    sizes = _record_evaluations(monkeypatch)
    with pytest.raises(DiscPreservationError):
        valence_heatmap(stretch, 16, 0.7)
    assert sizes == [64]


def test_valence_at_jitters_like_the_sequential_scan():
    # r = 0.5 passes through a preimage of 0.125 under z^3: the scan takes
    # the first jitter of that radius and goes on
    report = valence_at(CUBE, 0.125)
    assert report.radii[0] == 0.5 + PERTURB_STEPS[0] * PERTURB_BASE * 2.0 ** -1
    assert report.value == 3 and report.stabilized


def _reference_valence(f, w, schedule=None):
    """valence_at's scan, one winding_number call per contour."""
    radii = default_schedule() if schedule is None else tuple(schedule)
    counts, used, residuals = [], [], []
    stabilized, failed_radius = False, None
    for j, r in enumerate(radii, start=1):
        delta = PERTURB_BASE * 2.0 ** -j
        found = None
        for k in (0,) + PERTURB_STEPS:
            radius = r + k * delta
            if not 0.0 < radius < 1.0 - 1e-12:
                continue
            try:
                found = winding_number(f, w, radius)
                break
            except ContourProximityError:
                continue
        if found is None:
            failed_radius = r
            break
        counts.append(found[0])
        used.append(radius)
        residuals.append(found[1])
        if (len(counts) >= STOP_RUN and len(set(counts[-STOP_RUN:])) == 1
                and all(x >= STOP_MIN_RADIUS for x in used[-STOP_RUN:])):
            stabilized = True
            break
    return ValenceReport(
        w=w, radii=tuple(used), counts=tuple(counts), residuals=tuple(residuals),
        stabilized=stabilized,
        value=counts[-1] if counts else 0, failed_radius=failed_radius)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except Exception as err:
        return err


def _same_report(f, w, schedule=None):
    """valence_at and the reference give equal reports, or the same error."""
    batched = _outcome(valence_at, f, w, schedule)
    alone = _outcome(_reference_valence, f, w, schedule)
    if isinstance(alone, Exception):
        assert type(batched) is type(alone)
        assert str(batched) == str(alone)
        return batched
    assert (batched.radii, batched.counts, batched.stabilized, batched.value,
            batched.failed_radius) == (alone.radii, alone.counts, alone.stabilized,
                                       alone.value, alone.failed_radius)
    assert [x.hex() for x in batched.residuals] == [x.hex() for x in alone.residuals]
    return batched


def test_valence_at_matches_the_one_contour_scan_on_random_products():
    rng = np.random.default_rng(606)
    for _ in range(30):
        f = blaschke_handle(_random_blaschke(rng))
        w = complex(0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))
        assert isinstance(_same_report(f, w), ValenceReport)


def test_valence_at_matches_the_one_contour_scan_on_failures(monkeypatch):
    atomic = make_atomic_inner()
    target = math.exp(-1)
    assert _same_report(CUBE, 0.125).radii[0] != 0.5
    # rungs at or beyond 1 - 1e-12 are skipped
    assert _same_report(CUBE, 0.1, (0.5, 1.0 - 1e-13)).radii[1] < 1.0 - 1e-5
    # every rung of the first ladder has |f - w| = 0
    assert _same_report(_constant(0.3 + 0.1j), 0.3 + 0.1j).failed_radius == 0.5
    # the second radius of the first wave is not finite
    assert isinstance(_same_report(_nan_arc(0.75), 0.1), DomainError)
    assert _same_report(atomic, target, (0.9, 0.99, 0.999)).radii == (0.9, 0.99, 0.999)
    monkeypatch.setattr(valence, "MAX_NODES", 128)
    assert isinstance(_same_report(atomic, target), RefinementOverflowError)


def test_valence_profile_checks_its_radii_before_any_contour(monkeypatch):
    sizes = _record_evaluations(monkeypatch)
    # valence_at, valence_profile and winding_number share one check: every
    # radius in (0, 1) first, then strictly increasing radii
    for scan in (valence_profile, valence_at):
        with pytest.raises(ValueError, match=r"contour radius must lie in \(0, 1\), got 1.5"):
            scan(CUBE, 0.1, (0.5, 1.5))
        with pytest.raises(ValueError, match=r"contour radius must lie in \(0, 1\), got 1.5"):
            scan(CUBE, 0.1, (0.9, 1.5, 0.5))
        for radii in ((0.5, 0.5), (0.9, 0.5)):
            with pytest.raises(ValueError, match="contour radii must be strictly increasing"):
                scan(CUBE, 0.1, radii)
    with pytest.raises(ValueError, match=r"contour radius must lie in \(0, 1\), got 1.5"):
        winding_number(CUBE, 0.1, 1.5)
    assert sizes == []


def test_non_finite_values_raise_a_domain_error():
    with pytest.raises(DomainError):
        winding_number(NAN_ARC, 0.1, 0.5)
    with pytest.raises(DomainError):
        valence_at(NAN_ARC, 0.1)
    assert winding_number(NAN_ARC, 0.1, 0.4)[0] == 2


def test_non_finite_values_become_error_cells():
    grid = valence_heatmap(NAN_ARC, 16, 0.5)
    inside = grid.cells[grid.cells != OUTSIDE_MARK]
    assert inside.size > 0
    assert np.all(inside == ERROR_MARK)


def test_theorem_a_evaluates_the_same_nodes_in_fewer_calls(monkeypatch):
    sizes = _record_evaluations(monkeypatch)
    check_theorem_A(1, 4, 5)
    # one contour at a time, the same run took 2,177 calls for these nodes
    assert sum(sizes) == 78861
    assert len(sizes) <= 300


@pytest.mark.parametrize("make", [
    lambda: make_slit_power(2),
    lambda: frostman_shift(make_atomic_inner(), 0.5),
    lambda: parse_map_spec('{"type":"compose","outer":{"type":"gallery","name":"half"},'
                           '"inner":{"type":"gallery","name":"atomic-inner"}}'),
], ids=["slit-power", "frostman", "compose-spec"])
def test_a_composition_checks_the_disc_once_on_its_result(monkeypatch, make):
    handle = make()
    sizes = _record_evaluations(monkeypatch)
    handle.eval_many(np.linspace(-0.9, 0.9, 7) + 0.1j)
    # the inner map's own check, then the result's; the outer map's is gone
    assert sizes == [7, 7]


# run: (eval_many nodes, eval_many calls) it took before valence_at and the
# heatmap shared ``valence._ladders``, which evaluates the same contours
WORK = {
    "theorem-3-2": (lambda: check_theorem_3_2(2, 0, 500, 10), 52146, 234),
    "heatmap": (lambda: valence_heatmap(make_atomic_inner(), 24, 0.999), 138900, 1006),
    "hurwitz": (demo_hurwitz_escape, 3748, 16),
    # measured before Frostman shifts were built by compose_handles
    "frostman-heatmap": (lambda: valence_heatmap(frostman_shift(make_atomic_inner(), 0.5),
                                                 24, 0.999), 232308, 1682),
}


def test_heatmap_waves_admit_contours_by_their_projected_size(monkeypatch):
    sizes = _record_evaluations(monkeypatch)
    valence_heatmap(make_atomic_inner(), 24, 0.999)
    # with each newcomer counted at its 64-node grid until a contour had
    # resolved, and a 1,024-node wave, the same nodes took 1,006 calls
    assert sum(sizes) == 138900
    assert len(sizes) <= 307


# run: (eval_many calls, nodes, _bisect rounds), as the engine did them
# before the fixed numpy cost of a round was cut
PINNED_WORK = {
    "theorem-a": (lambda: check_theorem_A(1, 3, 5), (181, 73026, 195)),
    "heatmap": (lambda: valence_heatmap(make_atomic_inner(), 24, 0.999), (307, 138900, 309)),
    "theorem-3-1": (lambda: check_theorem_3_1(make_atomic_inner()), (177, 39775, 183)),
}


@pytest.mark.parametrize("name", PINNED_WORK)
def test_engine_work_is_pinned(monkeypatch, name):
    run, work = PINNED_WORK[name]
    count = _record_work(monkeypatch)
    run()
    assert count() == work


@pytest.mark.parametrize("name", WORK)
def test_engine_work_does_not_grow(monkeypatch, name):
    run, nodes, calls = WORK[name]
    sizes = _record_evaluations(monkeypatch)
    run()
    assert sum(sizes) <= nodes
    assert len(sizes) <= calls


def test_heatmap_run_leaves_numpy_ma_unimported(tmp_path):
    src = Path(valence.__file__).resolve().parents[1]
    code = ("import sys\n"
            "from blaschke_lab.cli import main\n"
            "main(['heatmap', '--map', 'atomic-inner', '--resolution', '16',\n"
            f"      '--radius', '0.99', '--out', {str(tmp_path / 'h.pgm')!r}])\n"
            # check_theorem_A reads the counts present in a half-map heatmap
            "main(['verify', 'theorem-a', '--seed', '1', '--cases', '1', '--targets', '1'])\n"
            "print('numpy.ma' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(src), "PATH": ""}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
