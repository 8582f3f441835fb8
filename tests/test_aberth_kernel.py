"""The stacked Aberth kernel keeps the bits of the single-polynomial loop.

``reference_roots`` is the one-polynomial Aberth loop the stacked kernel of
``numerics`` replaced, with its separate value/derivative Horner and its
``np.polyval`` noise floor; only the root certificate is the current one,
written out per root.  ``aberth_roots`` (the one-row stack) must match it
bit for bit, failures included, and ``blaschke_compose`` (many rows in one
stack) must match one ``blaschke_preimages`` call per outer zero.
"""

import cmath
import math

import numpy as np
import pytest

from blaschke_lab import maps, numerics
from blaschke_lab.errors import SolverFailure
from blaschke_lab.maps import (
    BlaschkeProduct,
    blaschke_compose,
    blaschke_critical_points,
    blaschke_preimages,
    critical_numerator,
)
from blaschke_lab.numerics import EPS, Polynomial, RootSet, aberth_roots, poly_from_roots
from test_solver_digests import _products


def _poly_eval_vec(coeffs, z):
    v = np.zeros_like(z)
    d = np.zeros_like(z)
    for c in coeffs[::-1]:
        d = d * z + v
        v = v * z + c
    return v, d


def reference_roots(p: Polynomial) -> RootSet:
    """The single-polynomial Aberth loop, as it ran before the stacked kernel."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.asarray(p.coeffs, dtype=complex)
        coeff_scale = float(np.max(np.abs(coeffs)))
        k0 = 0
        while k0 < len(coeffs) - 1 and coeffs[k0] == 0:
            k0 += 1
        deflated = coeffs[k0:]
        n = len(deflated) - 1
        iterates = []
        if n > 0:
            r0 = abs(deflated[0] / deflated[-1]) ** (1.0 / n)
            radius = numerics.INIT_RADIUS_SCALE * max(r0, numerics.INIT_RADIUS_FLOOR)
            z = np.array([radius * cmath.exp(1j * (2 * math.pi * m / n + numerics.INIT_PHASE))
                          for m in range(n)])
            frozen = np.zeros(n, dtype=bool)
            abs_coeffs = np.abs(deflated[::-1])
            v, d = _poly_eval_vec(deflated, z)
            for _ in range(numerics.ABERTH_MAX_ITER):
                small = np.abs(d) == 0.0
                if small.any():
                    z[small] += (1 + 1j) * 1e-8 * (1.0 + np.abs(z[small]))
                    v, d = _poly_eval_vec(deflated, z)
                newton = v / d
                diff = z[:, None] - z[None, :]
                np.fill_diagonal(diff, 1.0)
                collide = np.abs(diff) == 0.0
                if collide.any():
                    diff[collide] = 1e-12 * (1 + 1j)
                inv = 1.0 / diff
                np.fill_diagonal(inv, 0.0)
                repulsion = inv.sum(axis=1)
                denom = 1.0 - newton * repulsion
                denom_bad = np.abs(denom) == 0.0
                if denom_bad.any():
                    denom[denom_bad] = 1.0
                step = newton / denom
                active = ~frozen
                z[active] -= step[active]
                v, d = _poly_eval_vec(deflated, z)
                noise = np.polyval(abs_coeffs, np.abs(z).astype(complex))
                noise_floor = 4.0 * (n + 1) * EPS * np.abs(noise)
                frozen |= (np.abs(step) < numerics.ABERTH_TOL * (1.0 + np.abs(z))) | \
                          (np.abs(v) <= np.maximum(noise_floor, 1e-300))
                if frozen.all():
                    break
            else:
                resid = np.abs(_poly_eval_vec(coeffs, z)[0])
                raise SolverFailure(
                    f"Aberth iteration did not converge in {numerics.ABERTH_MAX_ITER} sweeps",
                    best=tuple(z.tolist()), residuals=tuple(resid.tolist()))
            iterates = list(z)

        points = [0j] * k0 + iterates
        merged = numerics._merge_clusters(points, numerics.CLUSTER_RADIUS)
        roots = tuple(r for r, _ in merged)
        mults = tuple(m for _, m in merged)
        values, _ = _poly_eval_vec(coeffs, np.array(roots, dtype=complex))
        residuals = tuple(abs(v) for v in values.tolist())
        if sum(mults) != p.degree:
            raise SolverFailure(
                f"root multiplicities sum to {sum(mults)}, expected {p.degree}",
                best=roots, residuals=residuals)
        bound = max(numerics.ABERTH_TOL * coeff_scale, 64 * EPS * coeff_scale * p.degree)
        for r, resid in zip(roots, residuals):
            judged = resid
            if abs(r) > 1.0:
                judged = abs(_poly_eval_vec(coeffs[::-1], np.array([1.0 / r]))[0][0])
            if not (cmath.isfinite(r) and judged <= bound):
                raise SolverFailure(
                    f"residual {resid:.3e} at root {complex(r)!r} exceeds certified bound",
                    best=roots, residuals=residuals)
        return RootSet(roots, mults, residuals)


def _outcome(solve, *args):
    """Everything a solve returns or raises, down to the bits."""
    try:
        rs = solve(*args)
    except SolverFailure as exc:
        return ("fail", str(exc), np.array(exc.best, dtype=complex).tobytes(),
                np.array(exc.residuals).tobytes())
    return ("ok", np.array(rs.roots, dtype=complex).tobytes(), rs.multiplicities,
            np.array(rs.residuals).tobytes(), tuple(type(r) for r in rs.roots))


def _random_polynomials(family, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        degree = 1 + int(39 * rng.random() ** 3)     # 1-40, mostly low
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        if family == "clustered":                     # a third of the roots repeated
            roots = c[:degree].copy()
            roots[: degree // 3] = roots[0]
            c = np.array(poly_from_roots(list(roots), 1.0).coeffs)
        elif family == "deflating":                   # roots at the origin
            c[: int(rng.integers(0, degree + 1))] = 0
        elif family == "scaled":                      # coefficients over 16 decades
            c *= 10.0 ** rng.uniform(-8, 8, degree + 1)
        p = Polynomial(tuple(complex(x) for x in c))
        if p.degree >= 1:
            yield p


FAMILIES = ("plain", "clustered", "deflating", "scaled")


@pytest.mark.parametrize("family", FAMILIES)
def test_aberth_roots_keeps_the_bits_of_the_single_polynomial_loop(family):
    polys = list(_random_polynomials(family, 500, 2400 + FAMILIES.index(family)))
    assert len(polys) >= 450
    for p in polys:
        assert _outcome(aberth_roots, p) == _outcome(reference_roots, p)


def test_the_census_numerators_of_degrees_11_and_12_keep_their_bits():
    products, _ = _products()
    for b in products[10:12]:
        p = critical_numerator(b)
        assert _outcome(aberth_roots, p) == _outcome(reference_roots, p)


def test_a_low_sweep_cap_fails_with_the_bits_of_the_single_polynomial_loop(monkeypatch):
    polys = list(_random_polynomials("plain", 120, 2410))
    for cap in (1, 4, 9):
        monkeypatch.setattr(numerics, "ABERTH_MAX_ITER", cap)
        outcomes = [_outcome(aberth_roots, p) for p in polys]
        assert outcomes == [_outcome(reference_roots, p) for p in polys]
        assert {o[0] for o in outcomes} == {"ok", "fail"}


def _random_product(rng, degree):
    zeros = 0.9 * np.sqrt(rng.random(degree)) * np.exp(2j * math.pi * rng.random(degree))
    return BlaschkeProduct(lam=complex(np.exp(2j * math.pi * rng.random())),
                           zeros=tuple(complex(a) for a in zeros))


def _pairs():
    """Seeded (outer, inner) pairs up to 8 x 8, some with repeated outer
    zeros, and outer zeros at 0 after inner maps with a zero at 0 (whose
    preimage polynomials deflate)."""
    rng = np.random.default_rng(2424)
    pairs = [(_random_product(rng, i), _random_product(rng, j))
             for i in range(1, 9) for j in range(1, 9)]
    for i, j in ((2, 3), (4, 5), (8, 8)):
        outer, inner = _random_product(rng, i), _random_product(rng, j)
        pairs.append((BlaschkeProduct(outer.lam, outer.zeros + outer.zeros[:1]), inner))
        at_origin = BlaschkeProduct(inner.lam, (0j,) + inner.zeros[1:])
        pairs.append((BlaschkeProduct(outer.lam, (0j,) + outer.zeros[1:]), at_origin))
        pairs.append((BlaschkeProduct(outer.lam, (0j, 0.3) + outer.zeros[2:] + (0j,)),
                      at_origin))
    return pairs


def test_compose_zeros_are_the_preimages_of_each_outer_zero_bit_for_bit():
    for outer, inner in _pairs():
        expected = []
        for a in outer.zeros:
            pre = blaschke_preimages(inner, a)
            for root, mult in zip(pre.roots, pre.multiplicities):
                expected.extend([root] * mult)
        zeros = blaschke_compose(outer, inner).zeros
        assert np.array(zeros).tobytes() == np.array(expected).tobytes()


def test_compose_raises_the_error_of_its_first_failing_zero(monkeypatch):
    rng = np.random.default_rng(2425)
    seen_later_failure = False
    for cap in (2, 3, 5):
        monkeypatch.setattr(numerics, "ABERTH_MAX_ITER", cap)
        for _ in range(12):
            outer, inner = _random_product(rng, 6), _random_product(rng, 6)
            first = None
            for index, a in enumerate(outer.zeros):
                try:
                    blaschke_preimages(inner, a)
                except SolverFailure as exc:
                    first = index, exc
                    break
            if first is None:
                blaschke_compose(outer, inner)
                continue
            index, expected = first
            seen_later_failure |= index > 0
            with pytest.raises(SolverFailure) as info:
                blaschke_compose(outer, inner)
            assert str(info.value) == str(expected)
            assert np.array(info.value.best).tobytes() == np.array(expected.best).tobytes()
            assert np.array(info.value.residuals).tobytes() == \
                np.array(expected.residuals).tobytes()
    assert seen_later_failure


def test_single_solves_call_aberth_roots_once_and_compose_only_for_deflating_rows(monkeypatch):
    # perfbench's tracer counts solver work at the public aberth_roots
    calls = []

    def counted(p):
        calls.append(p)
        return numerics.aberth_roots(p)

    monkeypatch.setattr(maps, "aberth_roots", counted)
    rng = np.random.default_rng(2426)
    b = _random_product(rng, 5)
    blaschke_preimages(b, 0.2 - 0.1j)
    assert len(calls) == 1
    blaschke_critical_points(b)
    assert len(calls) == 2
    del calls[:]
    blaschke_compose(_random_product(rng, 4), b)
    assert calls == []
    at_origin = BlaschkeProduct(b.lam, (0j,) + b.zeros[1:])
    blaschke_compose(BlaschkeProduct(1.0 + 0j, (0j, 0.5, 0j, -0.2j)), at_origin)
    assert len(calls) == 2 and all(p.coeffs[0] == 0 for p in calls)
    del calls[:]
    blaschke_compose(BlaschkeProduct(1.0 + 0j, (0.5,)), b)    # one outer zero: a single solve
    assert len(calls) == 1


def test_a_far_root_is_judged_on_the_reversed_polynomial():
    # the census numerator of degree 11 has a root near 4.65e15, where
    # |p(r)| overflows to inf; relative to the reversed polynomial at 1/r
    # its residual is about 2e-21, so it is kept
    products, _ = _products()
    rs = aberth_roots(critical_numerator(products[10]))
    far = [(abs(r), res) for r, res in zip(rs.roots, rs.residuals) if abs(r) > 1e15]
    assert len(far) == 1 and far[0][1] == math.inf


def test_a_far_iterate_that_is_not_a_root_fails(monkeypatch):
    # at |r| = 1e20 on z^20 - 1 the old bound ABERTH_TOL * scale * |r|^n
    # overflowed to inf, so it let this iterate pass whatever |p(r)| was
    sweeps = numerics._aberth_sweeps

    def moved(coeffs):
        z, settled = sweeps(coeffs)
        z[:, 0] *= 1e20
        return z, settled

    monkeypatch.setattr(numerics, "_aberth_sweeps", moved)
    p = Polynomial((-1,) + (0,) * 19 + (1,))
    with pytest.raises(SolverFailure, match=r"residual nan at root .*e\+19j\) exceeds"):
        aberth_roots(p)
