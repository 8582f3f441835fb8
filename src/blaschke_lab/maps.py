"""Disc automorphisms and finite Blaschke products as first-class values.

A degree-n Blaschke product B(z) = lam * prod (z - a_j)/(1 - conj(a_j) z)
with |a_j| < 1 and |lam| = 1 maps the disc onto itself n-to-1.  This module
evaluates them (with derivatives), composes them structurally, solves
B(z) = w for all n preimages, and recovers automorphisms from opaque
evaluation handles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    BoundaryAmbiguityError,
    DiscPreservationError,
    InternalConsistencyError,
    NotAnAutomorphismError,
    PoleError,
)
from .numerics import (
    Polynomial,
    RootSet,
    _convolve,
    aberth_roots,
    poly_from_roots,
    poly_mul,
    poly_sub,
    require_finite,
)

# |alpha|, |zeros| must stay this far inside the disc (type invariant).
INTERIOR_MARGIN = 1e-12
# Computed roots inside |z| < 1 - ROOT_ANNULUS count as interior, outside
# |z| > 1 + ROOT_ANNULUS as exterior; the annulus between is a diagnostic.
ROOT_ANNULUS = 1e-9


PREIMAGE_RESIDUAL_TOL = 1e-8
RECOVER_SUP_TOL = 1e-8
RECOVER_NEWTON_TOL = 1e-13
RECOVER_MAX_ITER = 200
COMPOSE_PROBES = (0.137 + 0.271j, 0.311 - 0.177j)
DISC_CHECK_SLACK = 1e-9


def _check_unimodular(lam: complex) -> complex:
    lam = require_finite(lam, "lambda")
    if abs(abs(lam) - 1.0) > INTERIOR_MARGIN:
        raise ValueError(f"lambda must be unimodular, got |lambda| = {abs(lam)!r}")
    return lam


def _check_interior(a: complex, name: str) -> complex:
    a = require_finite(a, name)
    if abs(a) >= 1.0 - INTERIOR_MARGIN:
        raise ValueError(f"{name} must satisfy |{name}| < 1 - {INTERIOR_MARGIN}, got {abs(a)!r}")
    return a


@dataclass(frozen=True)
class MobiusAutomorphism:
    """lam * (z - alpha)/(1 - conj(alpha) z) with |alpha| < 1, |lam| = 1."""

    alpha: complex
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_interior(self.alpha, "alpha"))
        object.__setattr__(self, "lam", _check_unimodular(self.lam))


@dataclass(frozen=True)
class BlaschkeProduct:
    """Unimodular constant plus a multiset of zeros in the open disc.

    Degree 0 is the constant map z -> lam.
    """

    lam: complex
    zeros: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_unimodular(self.lam))
        zs = tuple(_check_interior(a, "zero") for a in self.zeros)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)


@dataclass(frozen=True, eq=False)
class DiscMapHandle:
    """Uniform evaluation capability: z in the disc -> (f(z), f'(z)).

    ``fn`` must accept a complex ndarray and return (values, derivatives)
    ndarrays.  Every evaluation is spot-checked: an interior point with
    |f(z)| >= 1 raises a diagnostic.  ``inner`` says whether the map is
    inner by its construction: True, False, or None when that is unknown.
    Handles compare and hash by identity.
    """

    fn: Callable
    descriptor: str
    blaschke: BlaschkeProduct | None = None
    spec: dict | None = None
    inner: bool | None = None

    def __repr__(self):
        return f"DiscMapHandle({self.descriptor})"

    def eval_many(self, z: np.ndarray):
        z = np.asarray(z, dtype=complex)
        values, derivs = self.fn(z)
        # only a value on or outside the circle needs the interior test
        bad = np.abs(values) >= 1.0 + DISC_CHECK_SLACK
        if bad.any() and (bad := bad & (np.abs(z) < 1.0)).any():
            i = int(np.argmax(bad))
            raise DiscPreservationError(
                f"{self.descriptor}: |f({complex(z.flat[i])!r})| = "
                f"{float(abs(values.flat[i]))!r} >= 1 "
                "at an interior point")
        return values, derivs

    def eval(self, z: complex):
        v, d = self.eval_many(np.array([complex(z)]))
        return complex(v[0]), complex(d[0])


def mobius_eval(m: MobiusAutomorphism, z: complex):
    """Value and derivative of the automorphism at z (|z| <= 1 allowed)."""
    z = require_finite(z, "z")
    if abs(1.0 - m.alpha.conjugate() * z) < 1e-14:
        raise PoleError(f"evaluation at z = {z!r} hits the pole of the Mobius map")
    return blaschke_eval(BlaschkeProduct(lam=m.lam, zeros=(m.alpha,)), z)


def mobius_inverse(m: MobiusAutomorphism) -> MobiusAutomorphism:
    """The group inverse; validated by round-trip in the test-suite."""
    return MobiusAutomorphism(alpha=-m.lam * m.alpha, lam=m.lam.conjugate())


def _blaschke_evaluator(b: BlaschkeProduct):
    """z -> (B(z), B'(z)) on ndarrays, with the columns of the zeros built once."""
    zeros = np.asarray(b.zeros, dtype=complex)[:, None]
    zc = zeros.conjugate()
    near_zero = 1e-12 * (1.0 + np.abs(zeros))
    weights = 1.0 - np.abs(zeros) ** 2

    def fn(z):
        z = np.asarray(z, dtype=complex)
        if b.degree == 0:
            return np.full(z.shape, b.lam, dtype=complex), np.zeros_like(z)
        row = z.reshape(1, -1)
        gap = row - zeros
        den = 1.0 - zc * row
        factors = gap / den
        values = b.lam * np.multiply.reduce(factors, axis=0)
        # Logarithmic derivative is cheap and exact away from the zeros.
        with np.errstate(divide="ignore", invalid="ignore"):
            logsum = (1.0 / gap + zc / den).sum(axis=0)
            derivs = values * logsum
        near = (np.abs(gap) < near_zero).any(axis=0)
        if near.any():
            # product rule by prefix and suffix products, safe on a zero
            f, d = factors[:, near], den[:, near]
            ones = np.ones_like(f[:1])
            before = np.cumprod(np.concatenate([ones, f[:-1]]), axis=0)
            after = np.cumprod(np.concatenate([ones, f[:0:-1]]), axis=0)[::-1]
            derivs[near] = b.lam * (weights / (d * d) * before * after).sum(axis=0)
        return values.reshape(z.shape), derivs.reshape(z.shape)

    return fn


def blaschke_eval(b: BlaschkeProduct, z: complex):
    """Value and derivative at z; valid for |z| <= 1."""
    z = require_finite(z, "z")
    v, d = _blaschke_evaluator(b)(np.array([z]))
    return complex(v[0]), complex(d[0])


def _blaschke_polynomial_pair(b: BlaschkeProduct):
    """Numerator lam * prod(z - a_j) and denominator prod(1 - conj(a_j) z)."""
    den = (1.0 + 0j,)
    for a in b.zeros:
        den = _convolve(den, (1.0 + 0j, -a.conjugate()))
    return poly_from_roots(b.zeros, b.lam), Polynomial(den)


def _classify_roots(rootset: RootSet, context: str) -> RootSet:
    """Keep interior roots; refuse to guess inside the boundary annulus."""
    inside_r, inside_m, inside_res = [], [], []
    ambiguous = []
    for root, mult, res in zip(rootset.roots, rootset.multiplicities, rootset.residuals):
        mag = abs(root)
        if mag < 1.0 - ROOT_ANNULUS:
            inside_r.append(root)
            inside_m.append(mult)
            inside_res.append(res)
        elif mag <= 1.0 + ROOT_ANNULUS:
            ambiguous.append(root)
    if ambiguous:
        raise BoundaryAmbiguityError(
            f"{context}: roots {[complex(r) for r in ambiguous]!r} sit on the |z| = 1 annulus; "
            "interior/exterior classification is unreliable", roots=rootset.roots)
    return RootSet(tuple(inside_r), tuple(inside_m), tuple(inside_res))


def blaschke_preimages(b: BlaschkeProduct, w: complex) -> RootSet:
    """All n solutions of B(z) = w in the disc, counted with multiplicity.

    Solves lam * prod(z - a_j) - w * prod(1 - conj(a_j) z) = 0, a polynomial
    of exact degree n whose roots all lie inside the disc for |w| < 1.
    """
    w = require_finite(w, "w")
    if abs(w) >= 1.0:
        raise ValueError(f"target must satisfy |w| < 1, got {abs(w)!r}")
    if b.degree < 1:
        raise ValueError("preimages need degree >= 1")
    return _preimages(b, _blaschke_polynomial_pair(b), w)


def _preimages(b: BlaschkeProduct, pair, w: complex) -> RootSet:
    """Solve and check B(z) = w for a validated w, given B's (num, den) pair."""
    num, den = pair
    target = poly_sub(num, poly_mul(Polynomial((w,)), den))
    if target.degree != b.degree:
        raise InternalConsistencyError(
            f"preimage polynomial degree {target.degree} != {b.degree}")
    rootset = aberth_roots(target)
    values, _ = _blaschke_evaluator(b)(np.array(rootset.roots))
    for root, value in zip(rootset.roots, values.tolist()):
        if abs(root) > 1.0 + ROOT_ANNULUS:
            raise InternalConsistencyError(
                f"preimage root {complex(root)!r} outside the closed disc: solver bug",
                payload=rootset)
        if abs(value - w) > PREIMAGE_RESIDUAL_TOL:
            raise InternalConsistencyError(
                f"preimage residual |B(root) - w| = {abs(value - w):.3e} "
                f"exceeds {PREIMAGE_RESIDUAL_TOL}", payload=rootset)
    return _classify_roots(rootset, "blaschke_preimages")


def blaschke_critical_points(b: BlaschkeProduct) -> RootSet:
    """Zeros of B' inside the disc; with multiplicity there are degree-1.

    The census solves N'D - ND' = 0 (B = lam N/D) and keeps interior roots.
    Reflected partners 1/conj(z) fall outside and are dropped; zeros of B at
    the origin push them to infinity, which silently lowers the numerator
    degree without affecting the interior count.
    """
    if b.degree < 1:
        raise ValueError("critical census needs degree >= 1")
    numerator = critical_numerator(b)
    if numerator.degree < 1:
        census = RootSet((), (), ())
    else:
        census = _classify_roots(aberth_roots(numerator), "blaschke_critical_points")
    if census.total_multiplicity != b.degree - 1:
        raise InternalConsistencyError(
            f"critical census found {census.total_multiplicity} interior roots, "
            f"expected {b.degree - 1}", payload=census)
    return census


def critical_numerator(b: BlaschkeProduct) -> Polynomial:
    """Full numerator polynomial of B' (interior and reflected roots)."""
    num, den = _blaschke_polynomial_pair(b)
    return poly_sub(poly_mul(num.derivative(), den), poly_mul(num, den.derivative()))


def blaschke_compose(outer: BlaschkeProduct, inner: BlaschkeProduct) -> BlaschkeProduct:
    """Structural composition outer(inner(z)) as a Blaschke product.

    Zeros are the inner-preimages of the outer zeros, so the degree is the
    product of the degrees.  The unimodular constant is recovered at a fixed
    probe point and renormalised onto the unit circle.
    """
    if outer.degree < 1 or inner.degree < 1:
        raise ValueError("composition needs both degrees >= 1")
    pair = _blaschke_polynomial_pair(inner)
    zeros = []
    for a in outer.zeros:
        pre = _preimages(inner, pair, a)
        for root, mult in zip(pre.roots, pre.multiplicities):
            zeros.extend([root] * mult)
    candidate = BlaschkeProduct(lam=1.0 + 0j, zeros=tuple(zeros))
    lam = None
    for probe in COMPOSE_PROBES:
        direct, _ = blaschke_eval(inner, probe)
        direct, _ = blaschke_eval(outer, direct)
        through, _ = blaschke_eval(candidate, probe)
        if abs(through) > 1e-12:
            lam = direct / through
            break
    if lam is None:
        raise InternalConsistencyError("all probe points hit zeros of the composition")
    lam = lam / abs(lam)
    return BlaschkeProduct(lam=lam, zeros=tuple(zeros))


def sunflower_grid(count: int, radius: float) -> np.ndarray:
    """Deterministic sunflower-spiral grid of ``count`` points in |z| < radius."""
    m = np.arange(count)
    r = radius * np.sqrt((m + 0.5) / count)
    theta = m * (math.pi * (3.0 - math.sqrt(5.0)))
    return r * np.exp(1j * theta)


def mobius_recover(f: DiscMapHandle):
    """Recover (alpha, lam) from an opaque degree-1 handle.

    alpha is the zero of f found by damped Newton iteration (the minimum
    principle makes |f| free of spurious interior minima, so step-halving
    descent cannot stall away from the zero).  Returns the automorphism and
    the validation sup-error over a 200-point grid.  Raises
    NotAnAutomorphismError when the handle is not a disc automorphism.
    """
    f0, _ = f.eval(0.0)
    seed = -f0 * (1.0 + abs(f0))
    if abs(seed) > 0.9:
        seed = 0.9 * seed / abs(seed)
    z = seed
    value, deriv = f.eval(z)
    for _ in range(RECOVER_MAX_ITER):
        if abs(value) < RECOVER_NEWTON_TOL:
            break
        if deriv == 0:
            break
        step = value / deriv
        t = 1.0
        moved = False
        while t >= 1e-6:
            cand = z - t * step
            if abs(cand) < 0.999999:
                cand_value, cand_deriv = f.eval(cand)
                if abs(cand_value) < abs(value):
                    z, value, deriv = cand, cand_value, cand_deriv
                    moved = True
                    break
            t /= 2.0
        if not moved:
            break
    if abs(value) >= RECOVER_NEWTON_TOL:
        raise NotAnAutomorphismError(
            f"{f.descriptor}: Newton search for the zero stalled at |f| = {abs(value):.3e}")
    alpha = z
    if abs(alpha) > 1e-8:
        lam = f0 / (-alpha)
    else:
        _, lam = f.eval(0.0)
    if abs(abs(lam) - 1.0) > 1e-6:
        raise NotAnAutomorphismError(
            f"{f.descriptor}: recovered constant has modulus {abs(lam):.3e}, not 1")
    lam = lam / abs(lam)
    candidate = MobiusAutomorphism(alpha=alpha, lam=lam)
    grid = sunflower_grid(200, 0.95)
    values, _ = f.eval_many(grid)
    model = lam * (grid - alpha) / (1.0 - np.conj(alpha) * grid)
    sup_error = float(np.max(np.abs(values - model)))
    if sup_error > RECOVER_SUP_TOL:
        raise NotAnAutomorphismError(
            f"{f.descriptor}: best Mobius fit misses by {sup_error:.3e}",
            sup_error=sup_error)
    return candidate, sup_error


def mobius_handle(m: MobiusAutomorphism) -> DiscMapHandle:
    return replace(blaschke_handle(BlaschkeProduct(lam=m.lam, zeros=(m.alpha,))),
                   descriptor=f"mobius(alpha={m.alpha:.6g}, lambda={m.lam:.6g})",
                   spec={"type": "mobius", "alpha": [m.alpha.real, m.alpha.imag],
                         "lambda": [m.lam.real, m.lam.imag]})


def blaschke_handle(b: BlaschkeProduct) -> DiscMapHandle:
    spec = {"type": "blaschke", "lambda": [b.lam.real, b.lam.imag],
            "zeros": [[a.real, a.imag] for a in b.zeros]}
    return DiscMapHandle(_blaschke_evaluator(b), f"blaschke(degree={b.degree})",
                         blaschke=b, spec=spec, inner=True)


def identity_handle() -> DiscMapHandle:
    return mobius_handle(MobiusAutomorphism(alpha=0j, lam=1.0 + 0j))


def _degree(h: DiscMapHandle):
    return None if h.blaschke is None else h.blaschke.degree


def compose_handles(outer: DiscMapHandle, inner: DiscMapHandle) -> DiscMapHandle:
    """outer after inner: a Blaschke product when both carry one of degree >= 1,
    else the package's one chain rule, on ``outer.fn`` unchecked: the result's
    own ``eval_many`` checks the outer values at every interior z.

    The result is inner exactly when outer is, if inner is inner and not
    constant: its boundary map keeps the null sets of arc length.  An
    automorphism after inner keeps inner's flag.  Otherwise it is unknown.
    """
    if _degree(outer) and _degree(inner):
        return blaschke_handle(blaschke_compose(outer.blaschke, inner.blaschke))

    def fn(z):
        inner_v, inner_d = inner.eval_many(z)
        outer_v, outer_d = outer.fn(inner_v)
        return outer_v, outer_d * inner_d

    if _degree(outer) == 1:
        flag = inner.inner
    elif inner.inner and _degree(inner) != 0:
        flag = outer.inner
    else:
        flag = None
    return DiscMapHandle(fn, f"({outer.descriptor} o {inner.descriptor})", inner=flag)


def opaque(handle: DiscMapHandle) -> DiscMapHandle:
    """Re-wrap a handle hiding its structure (for recovery round-trips)."""
    return DiscMapHandle(handle.fn, "opaque")
