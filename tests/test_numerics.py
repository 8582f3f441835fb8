import math

import numpy as np
import pytest

from blaschke_lab import numerics
from blaschke_lab.errors import SolverFailure
from blaschke_lab.numerics import (
    Polynomial,
    aberth_roots,
    derivative_consistency,
    poly_eval,
    poly_from_roots,
)


def conv_expand(roots, leading):
    """Independent expansion oracle: numpy convolution, low-to-high order."""
    coeffs = np.array([leading], dtype=complex)
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=complex))
    return coeffs


def match_multisets(found, expected, tol):
    """Greedy optimal matching of two root multisets; max matched distance."""
    found = list(found)
    worst = 0.0
    for e in expected:
        dists = [abs(e - f) for f in found]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        found.pop(i)
    assert not found
    return worst


class FnHandle:
    """Minimal evaluation handle: scalar z -> (f(z), f'(z))."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, z):
        return self.fn(z)


def test_poly_from_roots_empty_product():
    p = poly_from_roots([], 1.0)
    assert p.coeffs == (1 + 0j,)
    assert p.degree == 0


def test_poly_from_roots_difference_of_squares():
    p = poly_from_roots([1.0, -1.0], 1.0)
    assert p.coeffs == (-1 + 0j, 0j, 1 + 0j)


def test_poly_from_roots_matches_convolution_oracle():
    # oracle: 2(z-0.5)(z+0.5) = 2z^2 - 0.5  ->  [-0.5, 0, 2]
    oracle = conv_expand([0.5, -0.5], 2.0)
    p = poly_from_roots([0.5, -0.5], 2.0)
    assert np.allclose(np.array(p.coeffs), oracle)
    assert p.coeffs == (-0.5 + 0j, 0j, 2 + 0j)


def test_poly_from_roots_rejects_zero_leading():
    with pytest.raises(ValueError):
        poly_from_roots([1.0], 0.0)


def test_poly_from_roots_rejects_nonfinite():
    with pytest.raises(ValueError):
        poly_from_roots([complex("nan")], 1.0)


def test_poly_eval_quadratic():
    p = Polynomial((-1, 0, 1))
    v, d = poly_eval(p, 2.0)
    assert v == 3 + 0j
    assert d == 4 + 0j


def test_poly_eval_constant():
    p = Polynomial((3 - 2j,))
    v, d = poly_eval(p, 0.7 + 0.1j)
    assert v == 3 - 2j
    assert d == 0j


def test_poly_eval_cube_at_i():
    p = Polynomial((0, 0, 0, 1))
    v, d = poly_eval(p, 1j)
    assert abs(v - (-1j)) < 1e-15
    assert abs(d - (-3)) < 1e-15


def test_polynomial_normalises_trailing_zeros():
    p = Polynomial((1, 2, 0, 0))
    assert p.degree == 1
    assert Polynomial((0, 0)).degree == 0


def test_aberth_quadratic_difference_of_squares():
    rs = aberth_roots(Polynomial((-1, 0, 1)))
    worst = match_multisets(rs.roots, [1, -1], 1e-10)
    assert worst < 1e-10
    assert rs.multiplicities == (1, 1)


def test_aberth_triple_root_merges():
    rs = aberth_roots(Polynomial((0, 0, 0, 1)))
    assert rs.roots == (0j,)
    assert rs.multiplicities == (3,)
    assert rs.residuals == (0.0,)


def test_aberth_quadratic_formula_oracle():
    # z^2 - z/4 = 0: roots 0 and 1/4 by the quadratic formula
    rs = aberth_roots(Polynomial((0, -0.25, 1)))
    worst = match_multisets(rs.roots, [0.0, 0.25], 1e-10)
    assert worst < 1e-10


def test_aberth_double_root_cluster():
    p = poly_from_roots([0.5, 0.5], 1.0)
    rs = aberth_roots(p)
    assert rs.total_multiplicity == 2
    assert rs.distinct_count == 1
    assert abs(rs.roots[0] - 0.5) < 1e-6


def test_aberth_rejects_constant():
    with pytest.raises(ValueError):
        aberth_roots(Polynomial((1,)))


def test_aberth_failure_carries_diagnostics(monkeypatch):
    monkeypatch.setattr(numerics, "ABERTH_MAX_ITER", 1)
    with pytest.raises(SolverFailure) as info:
        aberth_roots(Polynomial((1, 1, 1, 1, 1, 1, 1)))
    assert info.value.best is not None
    assert info.value.residuals is not None


def test_roundtrip_eval_residual_random_roots():
    rng = np.random.default_rng(7)
    for _ in range(25):
        size = int(rng.integers(1, 13))
        roots = rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size)
        roots = [complex(r) for r in roots if abs(r) <= 2] or [0.5 + 0.5j]
        p = poly_from_roots(roots, 1.0)
        scale = 1.0 + max(abs(c) for c in p.coeffs)
        for r in roots:
            v, _ = poly_eval(p, r)
            assert abs(v) <= 1e-10 * scale


def test_aberth_recovers_random_separated_roots():
    rng = np.random.default_rng(11)
    trials = 0
    while trials < 20:
        size = int(rng.integers(2, 11))
        pts = rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size)
        pts = [complex(z) for z in pts]
        seps = [abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]]
        if min(seps) < 1e-3:
            continue
        trials += 1
        p = poly_from_roots(pts, 1.0)
        rs = aberth_roots(p)
        expanded = []
        for root, mult in zip(rs.roots, rs.multiplicities):
            expanded.extend([root] * mult)
        worst = match_multisets(expanded, pts, 1e-8)
        assert worst < 1e-8


def test_derivative_consistency_identity():
    handle = FnHandle(lambda z: (z, 1.0 + 0j))
    err = derivative_consistency(handle, 0.3 + 0.1j, 1e-5)
    assert err < 1e-8


def test_derivative_consistency_square():
    handle = FnHandle(lambda z: (z * z, 2 * z))
    err = derivative_consistency(handle, 0.5 + 0j, 1e-5)
    assert err < 1e-6


def test_derivative_consistency_stencil_guard():
    handle = FnHandle(lambda z: (z, 1.0 + 0j))
    with pytest.raises(ValueError):
        derivative_consistency(handle, 0.9999999 + 0j, 1e-3)
    with pytest.raises(ValueError):
        derivative_consistency(handle, 0.1, -1e-5)
