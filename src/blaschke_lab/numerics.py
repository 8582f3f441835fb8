"""Complex polynomial algebra and a simultaneous root finder.

Polynomials are dense coefficient lists (index k = coefficient of z^k).
Roots are found by Aberth-Ehrlich iteration with deterministic, seed-free
initialisation; nearby iterates are merged into multiple roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

EPS = 2.220446049250313e-16


def require_finite(value: complex, name: str = "value") -> complex:
    """Reject NaN/infinite scalars at the public boundary."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must have finite components, got {z!r}")
    return z


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over complex scalars, normalised so the last
    coefficient is nonzero unless the polynomial is identically zero."""

    coeffs: tuple

    def __post_init__(self):
        cs = [require_finite(c, "coefficient") for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0j]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicities plus the residual |p(root)| per root.

    ``total_multiplicity`` equals the degree of the source polynomial;
    ``distinct_count`` is the plain set cardinality of the roots.
    """

    roots: tuple
    multiplicities: tuple
    residuals: tuple

    @property
    def total_multiplicity(self) -> int:
        return int(sum(self.multiplicities))

    @property
    def distinct_count(self) -> int:
        return len(self.roots)


ABERTH_TOL = 1e-10
ABERTH_MAX_ITER = 200
CLUSTER_RADIUS = 1e-7       # merge scale: CLUSTER_RADIUS * (1 + |root|)
INIT_RADIUS_SCALE = 1.1
INIT_RADIUS_FLOOR = 1e-2    # keeps starting circle nondegenerate
INIT_PHASE = 0.4            # radians; breaks symmetric stalls


def poly_from_roots(roots, leading: complex) -> Polynomial:
    """Expand leading * prod(z - r) by iterated convolution."""
    lead = require_finite(leading, "leading")
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    coeffs = (lead,)
    for r in roots:
        coeffs = _convolve(coeffs, (-require_finite(r, "root"), 1.0 + 0j))
    return Polynomial(coeffs)


def _convolve(p: tuple, q: tuple) -> tuple:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    return Polynomial(_convolve(p.coeffs, q.coeffs))


def poly_sub(p: Polynomial, q: Polynomial) -> Polynomial:
    n = max(len(p.coeffs), len(q.coeffs))
    out = [0j] * n
    for i, a in enumerate(p.coeffs):
        out[i] += a
    for i, b in enumerate(q.coeffs):
        out[i] -= b
    return Polynomial(tuple(out))


def poly_eval(p: Polynomial, z: complex):
    """Horner value and first derivative at z, simultaneously."""
    v, d = _poly_eval_vec(np.asarray(p.coeffs, dtype=complex),
                          np.array([require_finite(z, "z")]))
    return complex(v[0]), complex(d[0])


def _poly_eval_vec(coeffs: np.ndarray, z: np.ndarray):
    v = np.zeros_like(z)
    d = np.zeros_like(z)
    for c in coeffs[::-1]:
        d = d * z + v
        v = v * z + c
    return v, d


def _merge_clusters(points, cluster_radius):
    """Greedy transitive merge of nearby points; deterministic order."""
    pts = sorted(points, key=lambda c: (c.real, c.imag))
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        scale = cluster_radius * (1.0 + abs(pts[i]))
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= scale:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), []).append(pts[i])
    merged = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        merged.append((centroid, len(members)))
    merged.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return merged


def aberth_roots(p: Polynomial) -> RootSet:
    """All roots of p by simultaneous Aberth-Ehrlich iteration.

    Roots at the origin are deflated exactly before iterating.  Iterates
    closer than the cluster radius are merged into one root with summed
    multiplicity.  A sweep makes one Horner pass for value and derivative,
    which the next sweep steps from, and one value-only pass for the noise
    floor.  Raises SolverFailure (carrying the best iterate and residuals)
    if the iteration does not settle within ABERTH_MAX_ITER sweeps.
    """
    if p.degree < 1:
        raise ValueError("aberth_roots needs degree >= 1")

    # far iterates can overflow the Horner loop; the residual bound judges them
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.asarray(p.coeffs, dtype=complex)
        coeff_scale = float(np.max(np.abs(coeffs)))

        # exact deflation of roots at zero
        k0 = 0
        while k0 < len(coeffs) - 1 and coeffs[k0] == 0:
            k0 += 1
        deflated = coeffs[k0:]
        n = len(deflated) - 1

        iterates = []
        if n > 0:
            r0 = abs(deflated[0] / deflated[-1]) ** (1.0 / n)
            radius = INIT_RADIUS_SCALE * max(r0, INIT_RADIUS_FLOOR)
            z = np.array([radius * cmath.exp(1j * (2 * math.pi * m / n + INIT_PHASE))
                          for m in range(n)])
            frozen = np.zeros(n, dtype=bool)
            abs_coeffs = np.abs(deflated[::-1])
            v, d = _poly_eval_vec(deflated, z)
            for _ in range(ABERTH_MAX_ITER):
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
                # Residual freeze fires at the Horner evaluation noise floor, not
                # at ABERTH_TOL*scale: multiple roots must get close enough to merge.
                noise = np.polyval(abs_coeffs, np.abs(z).astype(complex))
                noise_floor = 4.0 * (n + 1) * EPS * np.abs(noise)
                frozen |= (np.abs(step) < ABERTH_TOL * (1.0 + np.abs(z))) | \
                          (np.abs(v) <= np.maximum(noise_floor, 1e-300))
                if frozen.all():
                    break
            else:
                resid = np.abs(_poly_eval_vec(coeffs, z)[0])
                raise SolverFailure(
                    f"Aberth iteration did not converge in {ABERTH_MAX_ITER} sweeps",
                    best=tuple(z.tolist()), residuals=tuple(resid.tolist()))
            iterates = list(z)

        points = [0j] * k0 + iterates
        merged = _merge_clusters(points, CLUSTER_RADIUS)
        roots = tuple(r for r, _ in merged)
        mults = tuple(m for _, m in merged)
        values, _ = _poly_eval_vec(coeffs, np.array(roots, dtype=complex))
        residuals = tuple(abs(v) for v in values.tolist())

        if sum(mults) != p.degree:
            raise SolverFailure(
                f"root multiplicities sum to {sum(mults)}, expected {p.degree}",
                best=roots, residuals=residuals)
        for r, resid in zip(roots, residuals):
            bound = ABERTH_TOL * coeff_scale * max(1.0, abs(r)) ** p.degree
            if resid > max(bound, 64 * EPS * coeff_scale * p.degree * max(1.0, abs(r)) ** p.degree):
                raise SolverFailure(
                    f"residual {resid:.3e} at root {complex(r)!r} exceeds certified bound",
                    best=roots, residuals=residuals)
        return RootSet(roots, mults, residuals)


def derivative_consistency(handle, z: complex, h: float) -> float:
    """Relative gap between the map's derivative and a finite-difference
    estimate from the four-point complex stencil {z+h, z-h, z+ih, z-ih}.

    All five points must lie inside the open disc.
    """
    z = require_finite(z, "z")
    if h <= 0:
        raise ValueError("h must be positive")
    stencil = (z, z + h, z - h, z + 1j * h, z - 1j * h)
    if any(abs(pt) >= 1.0 for pt in stencil):
        raise ValueError("stencil leaves the unit disc")
    _, deriv = handle.eval(z)
    fp, _ = handle.eval(z + h)
    fm, _ = handle.eval(z - h)
    fip, _ = handle.eval(z + 1j * h)
    fim, _ = handle.eval(z - 1j * h)
    est = ((fp - fm) / (2 * h) + (fip - fim) / (2j * h)) / 2
    return abs(deriv - est) / max(abs(deriv), EPS)
