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
from blaschke_lab.gallery import make_atomic_inner
from blaschke_lab.maps import BlaschkeProduct, DiscMapHandle, blaschke_handle
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
from blaschke_lab.verifier import check_theorem_3_2, check_theorem_A, demo_hurwitz_escape

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
    speed[1] = 1e300                  # flags the two steps next to node 1
    nbad, _, t_mid, pos = valence._bisect(t, np.exp(2j * np.pi * t), speed,
                                          np.array([16]))
    assert nbad.tolist() == [2] and t_mid[1] == t[2]
    merged = np.insert(np.arange(16), pos, 16 + np.arange(len(t_mid)))
    stable = np.argsort(np.concatenate([t, t_mid]), kind="stable")
    assert merged.tolist() == stable.tolist()


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
    if failed_radius is None and len(counts) >= STOP_RUN:
        stabilized = stabilized or len(set(counts[-STOP_RUN:])) == 1
    return ValenceReport(
        w=w, radii=tuple(used), counts=tuple(counts), residuals=tuple(residuals),
        stabilized=stabilized and failed_radius is None,
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
    with pytest.raises(ValueError, match=r"contour radius must lie in \(0, 1\), got 1.5"):
        valence_profile(CUBE, 0.1, (0.5, 1.5))
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


# run: (eval_many nodes, eval_many calls) it took before valence_at and the
# heatmap shared ``valence._ladders``, which evaluates the same contours
WORK = {
    "theorem-3-2": (lambda: check_theorem_3_2(2, 0, 500, 10), 52146, 234),
    "heatmap": (lambda: valence_heatmap(make_atomic_inner(), 24, 0.999), 138900, 1006),
    "hurwitz": (demo_hurwitz_escape, 3748, 16),
}


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
