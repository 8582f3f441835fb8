"""Named example maps, each exposed as a DiscMapHandle with exact derivatives.

The slit map g sends the disc conformally onto the disc minus the radial
segment [0, 1) through a fixed four-stage chain; h is its explicit inverse.
The chain pins one normalisation of the Riemann map: g(0) = -(3 - 2*sqrt(2)).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import replace

import numpy as np

from .errors import DomainError, PoleError
from .maps import BlaschkeProduct, DiscMapHandle, blaschke_handle, compose_handles
from .numerics import require_finite


def make_half_map() -> DiscMapHandle:
    """f(z) = z/2: injective, not surjective, valence 0 or 1."""

    def fn(z):
        return 0.5 * z, np.full_like(z, 0.5)

    return DiscMapHandle(fn, "half", spec={"type": "gallery", "name": "half"}, not_inner=True)


def make_scaled_exponential(epsilon: float = 1e-10, c: float = 10.0) -> DiscMapHandle:
    """f(z) = epsilon * e^{c z}; the tiny factor keeps the image in the disc."""
    if epsilon <= 0 or c <= 0:
        raise ValueError("epsilon and c must be positive")
    if c > math.log(sys.float_info.max):
        # e^{cz} then overflows near z = 1, however small epsilon is
        raise ValueError(f"e^c overflows at c = {c:g}: map would leave the disc")
    if epsilon * math.exp(c) >= 1.0:
        raise ValueError(
            f"epsilon * e^c = {epsilon * math.exp(c):.3e} >= 1: map would leave the disc")

    def fn(z):
        v = epsilon * np.exp(c * z)
        return v, c * v

    spec = {"type": "gallery", "name": "scaled-exp",
            "params": {"epsilon": epsilon, "c": c}}
    # |f| = epsilon e^{c cos t} < 1 on the circle
    return DiscMapHandle(fn, f"scaled-exp(epsilon={epsilon:g}, c={c:g})", spec=spec,
                         not_inner=True)


def _branch_hits(branch, radius: float) -> list:
    """The points branch(k) inside |z| < radius for k = 0, 1, -1, 2, -2, ...,
    up to the first k > 0 whose pair has no hit; the branches must leave
    the radius, or the walk runs until rounding stops it."""
    hits = [z for z in (branch(0),) if abs(z) < radius]
    for k in itertools.count(1):
        pair = [z for z in (branch(k), branch(-k)) if abs(z) < radius]
        if not pair:
            return hits
        hits += pair


def scaled_exp_preimages(w: complex, epsilon: float = 1e-10, c: float = 10.0) -> list:
    """All solutions of epsilon e^{c z} = w in the open disc, by explicit
    logarithm branches z_k = (ln(|w|/epsilon) + i(Arg w + 2 pi k))/c."""
    w = complex(w)
    if w == 0:
        return []
    base = math.log(abs(w) / epsilon)
    arg = cmath.phase(w)
    out = _branch_hits(lambda k: complex(base, arg + 2.0 * math.pi * k) / c, 1.0)
    return sorted(out, key=lambda z: (z.imag, z.real))


def _slit_g_vec(u: np.ndarray):
    u = np.asarray(u, dtype=complex)
    if np.any(np.abs(1.0 - u) < 1e-14):
        raise PoleError("slit map has a boundary pole at u = 1")
    q = 1j * (1.0 + u) / (1.0 - u)          # disc -> upper half-plane
    s = np.sqrt(q)                           # principal root -> first quadrant
    w = (s - 1.0) / (s + 1.0)                # -> upper half-disc
    z = w * w                                # -> disc minus [0, 1)
    dq = 2j / (1.0 - u) ** 2
    ds = 1.0 / (2.0 * s)
    dw = 2.0 / (s + 1.0) ** 2
    dz = 2.0 * w
    return z, dq * ds * dw * dz


def slit_g(u: complex):
    """Value and derivative of the slit Riemann map at a disc point."""
    u = require_finite(u, "u")
    v, d = _slit_g_vec(np.array([u]))
    return complex(v[0]), complex(d[0])


def _slit_h_vec(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    on_slit = (z.imag == 0.0) & (z.real >= 0.0)
    if np.any(on_slit) or np.any(np.abs(z) >= 1.0):
        raise DomainError("slit_h needs |z| < 1 with z off the segment [0, 1)")
    theta = np.angle(z)
    theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
    s = np.sqrt(np.abs(z)) * np.exp(0.5j * theta)   # branch cut along [0, inf)
    m = (1.0 + s) / (1.0 - s)                       # upper half-disc -> quadrant
    q = m * m                                       # -> upper half-plane
    return (q - 1j) / (q + 1j)                      # -> disc


def slit_h(z: complex) -> complex:
    """Inverse of the slit map: defined on the disc minus [0, 1)."""
    z = require_finite(z, "z")
    return complex(_slit_h_vec(np.array([z]))[0])


def make_slit_map() -> DiscMapHandle:
    # an arc of the circle goes onto the slit, where |g| < 1
    return DiscMapHandle(_slit_g_vec, "slit-g",
                         spec={"type": "gallery", "name": "slit-g"}, not_inner=True)


def slit_distance(z: complex) -> float:
    """Euclidean distance from z to the slit segment [0, 1)."""
    z = complex(z)
    if 0.0 <= z.real < 1.0:
        return abs(z.imag)
    if z.real < 0.0:
        return abs(z)
    return abs(z - 1.0)


def _check_power_exponent(k):
    if int(k) != k or k < 2:
        raise ValueError("power exponent k must be an integer >= 2")


def make_slit_power(k: int = 2) -> DiscMapHandle:
    """f = g^k for the slit map g: the power map composed after g; g omits 0 so f' != 0."""
    _check_power_exponent(k)
    k = int(k)

    def power(u):
        return u ** k, k * u ** (k - 1)

    return replace(compose_handles(DiscMapHandle(power, f"u^{k}"), make_slit_map()),
                   descriptor=f"(slit-g)^{k}",
                   spec={"type": "gallery", "name": "slit-power", "params": {"k": k}})


def power_preimages(w: complex, k: int) -> list:
    """Preimages of w under (slit map)^k via k-th roots that avoid the slit.

    Constructive membership oracle: w != 0 always has at least one k-th
    root inside the slit domain, so the power map omits exactly {0}.
    """
    w = complex(w)
    if w == 0:
        return []
    roots = (w ** (1.0 / k) * cmath.exp(2j * math.pi * j / k) for j in range(k))
    return [slit_h(z) for z in roots if not (z.imag == 0.0 and z.real >= 0.0)]


def slit_collision_pair():
    """Two distinct points the squared slit map cannot tell apart:
    u2 = h(-g(u1)) satisfies g(u2)^2 = g(u1)^2 for u1 = 0.3+0.3i."""
    u1 = 0.3 + 0.3j
    value, _ = slit_g(u1)
    return u1, slit_h(-value)


def make_atomic_inner() -> DiscMapHandle:
    """S(z) = exp((z+1)/(z-1)): zero-free, inner, unbounded valence."""

    def fn(z):
        ratio = (z + 1.0) / (z - 1.0)
        v = np.exp(ratio)
        return v, -2.0 / (z - 1.0) ** 2 * v

    return DiscMapHandle(fn, "atomic-inner", spec={"type": "gallery", "name": "atomic-inner"})


def atomic_preimage_count(r: float, w: complex = math.exp(-1)) -> int:
    """Enumeration oracle for S(z) = w inside |z| < r.

    For w = e^{-1} the solutions are z_k = pi i k/(pi i k - 1) with
    |z_k|^2 = pi^2 k^2/(1 + pi^2 k^2); generally the branches of
    (z+1)/(z-1) = log w + 2 pi i k are inverted and counted directly.
    """
    w = complex(w)
    if w == 0 or abs(w) >= 1.0:
        raise ValueError("target must satisfy 0 < |w| < 1")
    if not r < 1.0:
        raise ValueError("radius must be below 1: every branch has a solution in the disc")
    logw = cmath.log(w)

    def branch(k):
        c = logw + 2j * math.pi * k
        return (c + 1.0) / (c - 1.0)

    return len(_branch_hits(branch, r))


def frostman_shift(base: DiscMapHandle, a: complex = 0j) -> DiscMapHandle:
    """F_a = (a - f)/(1 - conj(a) f), the disc automorphism composed after f = base."""
    a = require_finite(a, "a")
    if abs(a) >= 1.0:
        raise ValueError("shift parameter must satisfy |a| < 1")

    def shift(u):
        denom = 1.0 - np.conj(a) * u
        return (a - u) / denom, -(1.0 - abs(a) ** 2) / (denom * denom)

    spec = None if base.spec is None else {
        "type": "gallery", "name": "frostman", "params": {"base": base.spec, "a": [a.real, a.imag]}}
    return replace(compose_handles(DiscMapHandle(shift, f"shift(a={a:.4g})"), base),
                   descriptor=f"frostman(a={a:.4g}, base={base.descriptor})", spec=spec)


def _check_escape_indices(ns):
    if any(int(n) != n or n < 2 for n in ns):
        raise ValueError("escape index n must be an integer >= 2")


def escape_blaschke(n: int) -> BlaschkeProduct:
    _check_escape_indices((n,))
    return BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 1.0 - 1.0 / int(n)))


def make_escape_sequence(n: int = 2) -> DiscMapHandle:
    """B_n with zeros {0, 1 - 1/n}: converges to -z only locally uniformly,
    and the second preimage of any fixed target escapes to the boundary."""
    return replace(blaschke_handle(escape_blaschke(n)), descriptor=f"escape(n={int(n)})",
                   spec={"type": "gallery", "name": "escape", "params": {"n": int(n)}})


def make_limit_of_escape() -> DiscMapHandle:
    """The pointwise limit -z of the escape sequence (an automorphism)."""

    def fn(z):
        return -z, np.full_like(z, -1.0)

    return DiscMapHandle(fn, "limit(-z)")
