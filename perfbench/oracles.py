"""Oracles for the benchmark, written apart from the program under test.

Preimage counts come from closed forms (logarithm branches, explicit
square roots through the inverse slit map), solver outputs from
product-form arithmetic in plain Python and from mpmath at 40 digits.
Nothing here imports blaschke_lab, so a defect in the program cannot
hide in its own oracle.  mpmath is imported where it is used, so that it
does not count towards the measured set-up time.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi


def _branches_within(phase: float, bound_sq: float) -> int:
    """Number of integers k with |phase + 2 pi k| < sqrt(bound_sq)."""
    if bound_sq <= 0.0:
        return 0
    bound = math.sqrt(bound_sq)
    lo = (-bound - phase) / TWO_PI
    hi = (bound - phase) / TWO_PI
    return max(0, math.ceil(hi) - math.floor(lo) - 1)


def atomic_inner_count(w: complex, rho: float) -> int:
    """Solutions of exp((z+1)/(z-1)) = w in |z| < rho, for 0 < |w| < 1.

    z = (c+1)/(c-1) with c = ln|w| + i theta, theta = arg w + 2 pi k, and
    |z| < rho  <=>  theta^2 (1 - rho^2) < rho^2 (L-1)^2 - (L+1)^2.
    """
    w = complex(w)
    if w == 0:
        return 0
    big_l = math.log(abs(w))
    bound_sq = (rho * rho * (big_l - 1.0) ** 2 - (big_l + 1.0) ** 2) / (1.0 - rho * rho)
    return _branches_within(cmath.phase(w), bound_sq)


def scaled_exp_count(w: complex, rho: float, epsilon: float = 1e-10, c: float = 10.0) -> int:
    """Solutions of epsilon e^{c z} = w in |z| < rho:
    z = (ln(|w|/epsilon) + i theta)/c, so |z| < rho <=> B^2 + theta^2 < (c rho)^2."""
    w = complex(w)
    if w == 0:
        return 0
    big_b = math.log(abs(w) / epsilon)
    return _branches_within(cmath.phase(w), (c * rho) ** 2 - big_b * big_b)


def slit_inverse(z: complex) -> complex:
    """Inverse of the slit Riemann map of the disc onto the disc minus [0, 1)."""
    theta = cmath.phase(z)
    if theta < 0.0:
        theta += TWO_PI
    s = math.sqrt(abs(z)) * cmath.exp(0.5j * theta)
    m = (1.0 + s) / (1.0 - s)
    q = m * m
    return (q - 1j) / (q + 1j)


def slit_square_count(w: complex, rho: float) -> int:
    """Solutions of g(z)^2 = w in |z| < rho, g the slit map: the square
    roots of w off the slit [0, 1), pulled back through the inverse map."""
    w = complex(w)
    if w == 0:
        return 0
    root = cmath.sqrt(w)
    count = 0
    for zeta in (root, -root):
        if zeta.imag == 0.0 and zeta.real >= 0.0:
            continue
        if abs(slit_inverse(zeta)) < rho:
            count += 1
    return count


def square_count(w: complex, rho: float) -> int:
    """Solutions of lam z^2 = w (|lam| = 1) in |z| < rho."""
    return 2 if abs(complex(w)) < rho * rho else 0


def jitter_window(count_at, radius: float, perturb_base: float = 1e-4,
                  steps=(1, -1, 2, -2, 3)):
    """Counts a contour near ``radius`` may legitimately report.

    The heatmap moves a contour that grazes a preimage by k * delta,
    delta = perturb_base * (1 - radius), along the ladder ``steps``; the
    count is monotone in the radius, so any value between the counts at
    the innermost and outermost ladder radius is exact for some contour.
    """
    delta = perturb_base * (1.0 - radius)
    return (count_at(radius + min(steps) * delta), count_at(radius + max(steps) * delta))


# --- Blaschke products in product form -------------------------------------

def blaschke_value(lam: complex, zeros, z: complex) -> complex:
    value = complex(lam)
    for a in zeros:
        value *= (z - a) / (1.0 - a.conjugate() * z)
    return value


def secular_residual(zeros, z: complex) -> float:
    """|B'/B| at z relative to the size of its terms; B'(z) = 0 off the
    zeros of B exactly when sum (1-|a|^2)/((z-a)(1-conj(a) z)) = 0."""
    terms = [(1.0 - abs(a) ** 2) / ((z - a) * (1.0 - a.conjugate() * z)) for a in zeros]
    return abs(sum(terms)) / sum(abs(t) for t in terms)


def _polished(fn, roots, dps: int = 40):
    """Each root refined by mpmath's secant iteration on fn at dps digits."""
    import mpmath
    out = []
    with mpmath.workdps(dps):
        for r in roots:
            start = mpmath.mpc(r.real, r.imag)
            found = mpmath.findroot(fn, start, tol=mpmath.mpf(10) ** (8 - dps))
            out.append(complex(found))
    return out


def _spot_check(fn, roots, multiplicities, tol: float) -> bool:
    try:
        polished = _polished(fn, roots)
    except (ValueError, ZeroDivisionError):
        return False
    if any(abs(p - r) > tol for p, r in zip(polished, roots)):
        return False
    simple = [p for p, m in zip(polished, multiplicities) if m == 1]
    return all(abs(simple[i] - simple[j]) > 1e-12
               for i in range(len(simple)) for j in range(i + 1, len(simple)))


def mp_check_preimages(lam: complex, zeros, w: complex, roots, multiplicities,
                       tol: float = 1e-7) -> bool:
    """Every returned root sits within tol of a distinct true root of
    lam prod(z - a) - w prod(1 - conj(a) z) at 40 digits."""
    import mpmath
    lam_mp = mpmath.mpc(lam.real, lam.imag)
    zeros_mp = [mpmath.mpc(a.real, a.imag) for a in zeros]
    w_mp = mpmath.mpc(w.real, w.imag)

    def fn(z):
        num = lam_mp
        den = mpmath.mpc(1)
        for a in zeros_mp:
            num *= z - a
            den *= 1 - mpmath.conj(a) * z
        return num - w_mp * den

    return _spot_check(fn, roots, multiplicities, tol)


def mp_check_critical(zeros, points, multiplicities, tol: float = 1e-7) -> bool:
    """Every returned critical point sits within tol of a distinct zero of
    the secular sum, computed at 40 digits."""
    import mpmath
    zeros_mp = [mpmath.mpc(a.real, a.imag) for a in zeros]

    def fn(z):
        total = mpmath.mpc(0)
        for a in zeros_mp:
            total += (1 - abs(a) ** 2) / ((z - a) * (1 - mpmath.conj(a) * z))
        return total

    return _spot_check(fn, points, multiplicities, tol)
