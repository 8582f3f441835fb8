import cmath
import math

import numpy as np
import pytest

from blaschke_lab.errors import ContourProximityError, InternalConsistencyError
from blaschke_lab.maps import (
    BlaschkeProduct,
    MobiusAutomorphism,
    blaschke_handle,
    identity_handle,
    mobius_handle,
)
from blaschke_lab.valence import (
    ERROR_MARK,
    OUTSIDE_MARK,
    ValenceReport,
    default_schedule,
    heatmap_to_csv,
    heatmap_to_pgm,
    valence_at,
    valence_heatmap,
    valence_profile,
    winding_number,
)

CUBE = blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j, 0j)))
SQUARE = blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j)))
HALF_ALPHA = mobius_handle(MobiusAutomorphism(alpha=0.5 + 0j, lam=1.0 + 0j))


def cube_root_count(w, r):
    """Enumeration oracle for z^3 = w inside |z| < r."""
    if w == 0:
        return 3 if r > 0 else 0
    return 3 if abs(w) ** (1.0 / 3.0) < r else 0


def test_winding_cube_at_zero():
    count, residual = winding_number(CUBE, 0.0, 0.5)
    assert count == 3
    assert residual < 1e-12


def test_winding_cube_excluded_target():
    # |0.2^(1/3)| = 0.585 > 0.5, so no preimage is enclosed
    assert cube_root_count(0.2, 0.5) == 0
    count, residual = winding_number(CUBE, 0.2, 0.5)
    assert count == 0
    assert residual < 1e-12


def test_winding_cube_enclosed_target():
    # |0.1^(1/3)| = 0.464 < 0.5
    assert cube_root_count(0.1, 0.5) == 3
    count, residual = winding_number(CUBE, 0.1, 0.5)
    assert count == 3
    assert residual < 1e-12


def test_winding_argument_validation():
    with pytest.raises(ValueError):
        winding_number(CUBE, 0.0, 1.5)
    with pytest.raises(ValueError):
        winding_number(CUBE, 0.0, 0.5, initial_nodes=8)
    with pytest.raises(ValueError):
        winding_number(CUBE, complex("inf"), 0.5)


def test_winding_proximity_detection():
    # the contour |z| = 0.5 passes through the preimage of w = 0.125 of z^3
    with pytest.raises(ContourProximityError):
        winding_number(CUBE, 0.125, 0.5)


def test_winding_refinement_overflow(monkeypatch):
    from blaschke_lab import valence
    from blaschke_lab.errors import RefinementOverflowError
    from blaschke_lab.gallery import make_atomic_inner

    monkeypatch.setattr(valence, "MAX_NODES", 128)
    with pytest.raises(RefinementOverflowError):
        winding_number(make_atomic_inner(), math.exp(-1), 0.999)


def test_valence_at_records_failing_radius():
    # a constant map sits on top of its own value at every contour radius,
    # so every jittered winding attempt hits the proximity floor
    import numpy as np
    from blaschke_lab.maps import DiscMapHandle

    def constant(z):
        return np.full_like(z, 0.3), np.zeros_like(z)

    handle = DiscMapHandle(constant, "constant")
    report = valence_at(handle, 0.3)
    assert not report.stabilized
    assert report.failed_radius == 0.5
    assert report.counts == ()
    assert report.value == 0


def test_winding_count_random_blaschke_degree():
    rng = np.random.default_rng(21)
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        radii = 0.8 * np.sqrt(rng.uniform(0, 1, deg))
        zeros = tuple(complex(r * cmath.exp(2j * math.pi * rng.uniform())) for r in radii)
        b = BlaschkeProduct(lam=cmath.exp(2j * math.pi * rng.uniform()), zeros=zeros)
        count, _ = winding_number(blaschke_handle(b), 0.0, 0.99)
        assert count == deg


def test_node_doubling_stability():
    rng = np.random.default_rng(22)
    for _ in range(10):
        deg = int(rng.integers(1, 5))
        zeros = tuple(complex(0.7 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
                      for _ in range(deg))
        b = BlaschkeProduct(lam=1.0 + 0j, zeros=zeros)
        w = complex(0.6 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
        base = winding_number(blaschke_handle(b), w, 0.97, initial_nodes=64)
        double = winding_number(blaschke_handle(b), w, 0.97, initial_nodes=128)
        assert base[0] == double[0]


def test_valence_at_square():
    report = valence_at(SQUARE, 0.25)
    assert report.value == 2
    assert report.stabilized
    assert all(res < 1e-6 for res in report.residuals)


def test_valence_at_mobius_always_one():
    rng = np.random.default_rng(23)
    for _ in range(20):
        w = complex(0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
        report = valence_at(HALF_ALPHA, w)
        assert report.value == 1
        assert report.stabilized


def test_valence_report_monotonicity_guard():
    with pytest.raises(InternalConsistencyError):
        ValenceReport(w=0j, radii=(0.5, 0.75), counts=(2, 1),
                      residuals=(0.0, 0.0), stabilized=False, value=1)


def test_valence_schedule_validation():
    with pytest.raises(ValueError):
        valence_at(SQUARE, 0.25, schedule=(0.5, 0.4))
    with pytest.raises(ValueError):
        valence_at(SQUARE, 0.25, schedule=(0.5, 1.2))


def test_default_schedule_shape():
    sched = default_schedule()
    assert len(sched) == 20
    assert sched[0] == 0.5
    assert all(b > a for a, b in zip(sched, sched[1:]))


def test_valence_profile_square():
    prof = valence_profile(SQUARE, 0.25, (0.4, 0.6))
    assert prof == [(0.4, 0), (0.6, 2)]


def test_valence_profile_mobius():
    prof = valence_profile(HALF_ALPHA, 0.0, (0.9, 0.99))
    assert [c for _, c in prof] == [1, 1]


def test_heatmap_identity_all_ones():
    grid = valence_heatmap(identity_handle(), 16, 0.9)
    inside = grid.cells[grid.cells != OUTSIDE_MARK]
    assert inside.size > 0
    assert np.all(inside == 1)
    assert not np.any(grid.cells == ERROR_MARK)


def test_heatmap_square_matches_enclosure_oracle():
    # count is 2 exactly when both preimages +-sqrt(w) lie inside the contour
    radius = 0.99
    grid = valence_heatmap(SQUARE, 16, radius)
    xs = -1.0 + (np.arange(16) + 0.5) * 2.0 / 16
    for row in range(16):
        for col in range(16):
            w = complex(xs[col], -xs[row])
            cell = int(grid.cells[row, col])
            if abs(w) >= radius - 1e-3:
                assert cell == OUTSIDE_MARK
            else:
                expected = 2 if math.sqrt(abs(w)) < radius else 0
                assert cell == expected


def test_heatmap_square_deep_radius_all_twos():
    # at radius 0.999 the 1e-3 margin guarantees |sqrt(w)| < radius
    grid = valence_heatmap(SQUARE, 16, 0.999)
    inside = grid.cells[grid.cells != OUTSIDE_MARK]
    assert np.all(inside == 2)


def test_heatmap_threads_are_byte_identical():
    one = valence_heatmap(SQUARE, 16, 0.99, threads=1)
    four = valence_heatmap(SQUARE, 16, 0.99, threads=4)
    assert heatmap_to_csv(one) == heatmap_to_csv(four)
    assert heatmap_to_pgm(one) == heatmap_to_pgm(four)


def test_heatmap_validation():
    with pytest.raises(ValueError):
        valence_heatmap(SQUARE, 8, 0.9)
    with pytest.raises(ValueError):
        valence_heatmap(SQUARE, 16, 1.2)


def test_csv_format():
    grid = valence_heatmap(identity_handle(), 16, 0.9)
    text = heatmap_to_csv(grid)
    lines = text.splitlines()
    assert lines[0] == "x,y,count"
    assert len(lines) == 1 + 16 * 16
    x, y, c = lines[1].split(",")
    assert float(x) == -0.9375 and float(y) == 0.9375
    assert c == "-1"


def test_pgm_format():
    grid = valence_heatmap(identity_handle(), 16, 0.9)
    text = heatmap_to_pgm(grid)
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "16 16"
    assert lines[2] == "255"
    assert len(lines) == 3 + 16
    # markers render as 0 in the image payload
    assert set(lines[3].split()) <= {"0", "1"}
