"""Bit-identity of the Blaschke solvers.

One SHA-256 holds the ``repr`` of the roots, multiplicities and residuals
of seeded ``blaschke_preimages`` and ``blaschke_critical_points`` calls,
the ``repr`` of the constant and zeros of seeded ``blaschke_compose``
calls, and the exception type and message of every call that raises.  A
change to the Aberth iteration, its cluster merge or the polynomial pair
that moves one bit of these outputs moves the digest.
"""

import hashlib
import math

import numpy as np
import pytest

from blaschke_lab.errors import SolverFailure
from blaschke_lab.maps import (
    BlaschkeProduct,
    blaschke_compose,
    blaschke_critical_points,
    blaschke_preimages,
)

DIGEST = "050e65b79452a224f678584bf37ac5f8090fc8d5aae4be38e76addae6d8d10a3"


def _random_product(rng, degree):
    radii = 0.9 * np.sqrt(rng.random(degree))
    angles = 2 * math.pi * rng.random(degree)
    lam = complex(np.exp(2j * math.pi * rng.random()))
    return BlaschkeProduct(lam=lam, zeros=tuple(complex(a) for a in radii * np.exp(1j * angles)))


def _products():
    rng = np.random.default_rng(20261019)
    products = [_random_product(rng, degree) for degree in range(1, 13)]
    products.append(BlaschkeProduct(lam=1.0 + 0j, zeros=(0.5, 0.5, 0.5)))
    products.append(BlaschkeProduct(lam=1j, zeros=(0j, 0.3, -0.4j, 0.6 + 0.2j)))
    targets = [0j] + [complex(w) for w in 0.8 * np.sqrt(rng.random(2))
                      * np.exp(2j * math.pi * rng.random(2))]
    return products, targets


def _render(call, *args):
    try:
        out = call(*args)
    except Exception as exc:  # the type and message are part of the digest
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, BlaschkeProduct):
        return repr((out.lam, out.zeros))
    return repr((out.roots, out.multiplicities, out.residuals))


def _solver_outputs():
    products, targets = _products()
    for b in products:
        for w in targets:
            yield _render(blaschke_preimages, b, w)
        # the census of degrees 11 and 12 has its own test below
        if b.degree <= 10:
            yield _render(blaschke_critical_points, b)
    # degrees 2x3, 3x2, 4x4, the repeated zero after degree 2, degree 2 after
    # the zero at the origin, and the zero at the origin after degree 5
    for i, j in ((1, 2), (2, 1), (3, 3), (12, 1), (1, 13), (13, 4)):
        yield _render(blaschke_compose, products[i], products[j])


def test_solver_outputs_keep_their_bits():
    h = hashlib.sha256()
    for line in _solver_outputs():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == DIGEST


def test_the_census_at_degrees_11_and_12_raises_no_numpy_warning():
    # the Horner loop overflows on far iterates of these numerators, and
    # tier-1 turns a numpy warning into an error
    products, _ = _products()
    census = blaschke_critical_points(products[10])
    zeros = np.array(products[10].zeros)[:, None]
    c = np.array(census.roots)
    # B'/B = sum (1 - |a|^2) / ((z - a)(1 - conj(a) z)) vanishes at each c
    secular = ((1.0 - np.abs(zeros) ** 2) / ((c - zeros) * (1.0 - zeros.conj() * c))).sum(axis=0)
    assert census.total_multiplicity == 10 and np.abs(secular).max() < 1e-12
    with pytest.raises(SolverFailure):
        blaschke_critical_points(products[11])
