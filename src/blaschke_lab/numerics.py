"""Complex polynomial algebra and a simultaneous root finder.

Polynomials are dense coefficient lists (index k = coefficient of z^k).
Roots are found by Aberth-Ehrlich iteration with deterministic, seed-free
initialisation; nearby iterates are merged into multiple roots.
"""

from __future__ import annotations

import cmath
import itertools
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
    v, d, _ = _horner(_horner_terms(np.array([p.coeffs], dtype=complex)),
                      np.array([[require_finite(z, "z")]]))
    return complex(v[0, 0]), complex(d[0, 0])


def _horner_terms(coeffs: np.ndarray) -> np.ndarray:
    """The (c_j, |c_j|) pairs of the rows of ``coeffs`` (k, m; low to high),
    leading coefficient first: the (m, 2, k, 1) table ``_horner`` steps through."""
    flipped = coeffs.T[::-1, :, None]
    return np.array((flipped, np.abs(flipped)), dtype=complex).swapaxes(0, 1)


def _horner(terms: np.ndarray, z: np.ndarray):
    """Value, derivative and noise polynomial sum |c_j| |z|^j of each row of
    polynomials in ``terms`` at its row of points ``z`` (k, n), in one pass.

    The noise polynomial stays a complex Horner on |z| + 0j: where it
    overflows, inf * 0j turns it into nan, so no root freezes on it.
    """
    scale = np.array((z, z, np.abs(z)), dtype=complex)
    # two (derivative, value, noise) states; each step writes the other one
    a, b = np.zeros((2,) + scale.shape, dtype=complex)
    steps = itertools.cycle(((a, a[1], b, b[0], b[1:]), (b, b[1], a, a[0], a[1:])))
    for c, (old, old_value, new, new_deriv, new_rest) in zip(terms, steps):
        np.multiply(old, scale, out=new)
        new_deriv += old_value
        new_rest += c
    return new[1], new[0], new[2]


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

    Roots at the origin are deflated exactly; the rest is a one-row stack
    of ``_aberth_sweeps``.  Iterates closer than the cluster radius are
    merged into one root with summed multiplicity.  Raises SolverFailure
    (carrying the best iterate and residuals) if the iteration does not
    settle within ABERTH_MAX_ITER sweeps or a root fails its certificate.
    """
    if p.degree < 1:
        raise ValueError("aberth_roots needs degree >= 1")
    k0 = next(k for k, c in enumerate(p.coeffs) if c != 0)
    if k0 == p.degree:
        return _root_set(p, np.zeros(0, dtype=complex), True)
    z, settled = _aberth_sweeps(np.array([p.coeffs[k0:]], dtype=complex))
    return _root_set(p, z[0], settled[0])


def _aberth_stack(polys):
    """Yield ``aberth_roots(p)`` for each p of ``polys`` in turn (raising its
    SolverFailure there), from one stack of sweeps over all of them.  The
    polynomials share a degree and have nonzero constant coefficients."""
    z, settled = _aberth_sweeps(np.array([p.coeffs for p in polys], dtype=complex))
    for p, iterates, ok in zip(polys, z, settled):
        yield _root_set(p, iterates, ok)


def _aberth_sweeps(coeffs: np.ndarray):
    """Aberth-Ehrlich sweeps over the rows of ``coeffs`` (k, n + 1; low to
    high, nonzero constant and leading coefficients): the iterates (k, n)
    and, per row, whether they all froze within ABERTH_MAX_ITER sweeps.
    Each row keeps the bits of its own one-row solve: every operation is
    elementwise, the repulsion sums run along the last axis, and a row whose
    iterates have all frozen takes no more steps or nudges."""
    k, n = coeffs.shape[0], coeffs.shape[1] - 1
    # far iterates overflow the Horner pass (their certificate judges them),
    # and a finished row may divide by a zero derivative it no longer uses
    with np.errstate(all="ignore"):
        units = [cmath.exp(1j * (2 * math.pi * m / n + INIT_PHASE)) for m in range(n)]
        radii = [INIT_RADIUS_SCALE * max(abs(c[0] / c[-1]) ** (1.0 / n), INIT_RADIUS_FLOOR)
                 for c in coeffs]
        z = np.array([[radius * u for u in units] for radius in radii], dtype=complex)
        frozen = np.zeros((k, n), dtype=bool)
        done = np.zeros(k, dtype=bool)
        terms = _horner_terms(coeffs)
        v, d, _ = _horner(terms, z)
        for _ in range(ABERTH_MAX_ITER):
            # np.count_nonzero is the cheapest test of a boolean array
            small = d == 0.0
            if np.count_nonzero(small):
                small[done] = False
                z[small] += (1 + 1j) * 1e-8 * (1.0 + np.abs(z[small]))
                v, d, _ = _horner(terms, z)
            newton = v / d
            diff = z[:, :, None] - z[:, None, :]
            diagonal = diff.reshape(k, -1)[:, ::n + 1]
            diagonal[:] = 1.0
            collide = diff == 0.0
            if np.count_nonzero(collide):
                diff[collide] = 1e-12 * (1 + 1j)
            inv = np.divide(1.0, diff, out=diff)
            diagonal[:] = 0.0
            repulsion = inv.sum(axis=2)
            denom = 1.0 - newton * repulsion
            denom_bad = denom == 0.0
            if np.count_nonzero(denom_bad):
                denom[denom_bad] = 1.0
            step = newton / denom
            np.subtract(z, step, out=z, where=~frozen)
            v, d, noise = _horner(terms, z)
            # Residual freeze fires at the Horner evaluation noise floor, not
            # at ABERTH_TOL*scale: multiple roots must get close enough to merge.
            noise_floor = 4.0 * (n + 1) * EPS * np.abs(noise)
            frozen |= (np.abs(step) < ABERTH_TOL * (1.0 + np.abs(z))) | \
                      (np.abs(v) <= np.maximum(noise_floor, 1e-300))
            done = frozen.all(axis=1)
            if np.count_nonzero(done) == k:
                break
        return z, done


def _root_set(p: Polynomial, iterates: np.ndarray, settled: bool) -> RootSet:
    """The roots of p from the iterates of its deflated polynomial: merged
    into clusters, with residuals |p(root)|, each root certified.

    A root with |r| > 1 is judged on the reversed polynomial at 1/r, whose
    residual |p(r)| / |r|^n does not overflow where |p(r)| does; a root or
    judged residual that is not finite fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.array([p.coeffs], dtype=complex)
        if not settled:
            resid = np.abs(_horner(_horner_terms(coeffs), iterates[None])[0][0])
            raise SolverFailure(
                f"Aberth iteration did not converge in {ABERTH_MAX_ITER} sweeps",
                best=tuple(iterates.tolist()), residuals=tuple(resid.tolist()))
        points = [0j] * (p.degree - len(iterates)) + list(iterates)
        merged = _merge_clusters(points, CLUSTER_RADIUS)
        roots = tuple(r for r, _ in merged)
        mults = tuple(m for _, m in merged)
        at = np.array(roots, dtype=complex)
        values = _horner(_horner_terms(coeffs), at[None])[0][0]
        residuals = tuple(abs(v) for v in values.tolist())
        judged = np.array(residuals)
        far = np.abs(at) > 1.0
        if far.any():
            judged[far] = np.abs(_horner(_horner_terms(coeffs[:, ::-1]), 1.0 / at[None, far])[0][0])
        coeff_scale = float(np.max(np.abs(coeffs)))
        bound = max(ABERTH_TOL * coeff_scale, 64 * EPS * coeff_scale * p.degree)
        for r, resid, err in zip(roots, residuals, judged.tolist()):
            if not (cmath.isfinite(r) and err <= bound):
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
