import cmath
import math

import numpy as np
import pytest

from blaschke_lab import verifier
from blaschke_lab.errors import (
    BlaschkeLabError,
    BoundaryAmbiguityError,
    DiscPreservationError,
    NotAnAutomorphismError,
    PoleError,
)
from blaschke_lab.gallery import frostman_shift, make_half_map
from blaschke_lab.maps import (
    BlaschkeProduct,
    DiscMapHandle,
    MobiusAutomorphism,
    blaschke_compose,
    blaschke_critical_points,
    blaschke_eval,
    blaschke_handle,
    blaschke_preimages,
    compose_handles,
    critical_numerator,
    identity_handle,
    mobius_eval,
    mobius_handle,
    mobius_inverse,
    mobius_recover,
    opaque,
)
from blaschke_lab.maps import _blaschke_evaluator
from blaschke_lab.numerics import aberth_roots


def random_blaschke(rng, degree=None, max_degree=3):
    if degree is None:
        degree = int(rng.integers(1, max_degree + 1))
    radii = 0.95 * np.sqrt(rng.uniform(0, 1, degree))
    angles = rng.uniform(0, 2 * math.pi, degree)
    zeros = tuple(complex(r * cmath.exp(1j * t)) for r, t in zip(radii, angles))
    lam = cmath.exp(2j * math.pi * rng.uniform())
    return BlaschkeProduct(lam=lam, zeros=zeros)


def test_mobius_identity_eval():
    m = MobiusAutomorphism(alpha=0j, lam=1.0 + 0j)
    v, d = mobius_eval(m, 0.7j)
    assert v == 0.7j
    assert d == 1.0 + 0j


def test_mobius_eval_at_its_zero():
    m = MobiusAutomorphism(alpha=0.5 + 0j, lam=1.0 + 0j)
    v, d = mobius_eval(m, 0.5)
    assert abs(v) < 1e-15
    assert abs(d - 4.0 / 3.0) < 1e-15


def test_mobius_eval_at_origin():
    m = MobiusAutomorphism(alpha=0.5 + 0j, lam=1.0 + 0j)
    v, d = mobius_eval(m, 0.0)
    assert v == -0.5 + 0j
    assert d == 0.75 + 0j


def test_mobius_type_invariants():
    with pytest.raises(ValueError):
        MobiusAutomorphism(alpha=1.0 + 0j, lam=1.0 + 0j)
    with pytest.raises(ValueError):
        MobiusAutomorphism(alpha=0j, lam=1.1 + 0j)


def test_mobius_inverse_identity():
    m = MobiusAutomorphism(alpha=0j, lam=1.0 + 0j)
    inv = mobius_inverse(m)
    assert inv.alpha == 0j and inv.lam == 1.0 + 0j


def test_mobius_inverse_undoes_zero_image():
    m = MobiusAutomorphism(alpha=0.5 + 0j, lam=1.0 + 0j)
    inv = mobius_inverse(m)
    v, _ = mobius_eval(inv, -0.5)
    assert abs(v) < 1e-15


def test_mobius_inverse_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        alpha = complex(*rng.uniform(-0.6, 0.6, 2))
        lam = cmath.exp(2j * math.pi * rng.uniform())
        m = MobiusAutomorphism(alpha=alpha, lam=lam)
        inv = mobius_inverse(m)
        for _ in range(10):
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            w, _ = mobius_eval(m, z)
            back, _ = mobius_eval(inv, w)
            assert abs(back - z) < 1e-12


def test_blaschke_eval_square():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j))
    v, d = blaschke_eval(b, 0.5)
    assert abs(v - 0.25) < 1e-15
    assert abs(d - 1.0) < 1e-15


def test_blaschke_eval_constant():
    b = BlaschkeProduct(lam=1j, zeros=())
    v, d = blaschke_eval(b, 0.3 - 0.2j)
    assert v == 1j and d == 0j


def test_blaschke_eval_derivative_at_zero_of_map():
    # at a simple zero the log-derivative breaks down; product rule takes over
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0.3 + 0j,))
    v, d = blaschke_eval(b, 0.3)
    assert v == 0j
    assert abs(d - (1 - 0.09) / (1 - 0.09) ** 2) < 1e-14


ON_ZERO_LAM = cmath.exp(0.7j)
ON_ZERO_ZEROS = (0.3 + 0j, -0.5j, 0.2 + 0.4j)
# B'(a_j) = lam/(1 - |a_j|^2) * prod_{k != j} (a_j - a_k)/(1 - conj(a_k) a_j), at a_j = 0.3
ON_ZERO_DERIVATIVE = ON_ZERO_LAM / (1 - 0.09) * np.prod(
    [(0.3 - a) / (1 - a.conjugate() * 0.3) for a in ON_ZERO_ZEROS[1:]])


def test_blaschke_eval_derivative_at_simple_zero_of_degree_3():
    b = BlaschkeProduct(lam=ON_ZERO_LAM, zeros=ON_ZERO_ZEROS)
    v, d = blaschke_eval(b, 0.3)
    assert v == 0j
    assert abs(d - ON_ZERO_DERIVATIVE) < 1e-15


def test_blaschke_eval_derivative_at_double_zero_is_zero():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0.3 + 0j, 0.3 + 0j, 0.1 + 0j))
    v, d = blaschke_eval(b, 0.3)
    assert v == 0j
    assert d == 0j


def test_eval_many_mixes_nodes_on_and_off_the_zeros():
    b = BlaschkeProduct(lam=ON_ZERO_LAM, zeros=ON_ZERO_ZEROS)
    z = np.array([0.3, 0.1 + 0.1j, 0.3, -0.6 + 0.2j, 0.5j])
    values, derivs = blaschke_handle(b).eval_many(z)
    assert np.all(np.isfinite(derivs))
    for i in (0, 2):
        assert values[i] == 0j
        assert abs(derivs[i] - ON_ZERO_DERIVATIVE) < 1e-15
    for i in (1, 3, 4):
        v, d = blaschke_eval(b, complex(z[i]))
        assert abs(values[i] - v) < 1e-15 and abs(derivs[i] - d) < 1e-14


def test_blaschke_boundary_unimodularity_64():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0.6 + 0j))
    for k in range(64):
        z = cmath.exp(2j * math.pi * k / 64)
        v, _ = blaschke_eval(b, z)
        assert abs(abs(v) - 1.0) < 1e-12


def test_blaschke_boundary_unimodularity_random_256():
    rng = np.random.default_rng(5)
    for _ in range(5):
        b = random_blaschke(rng)
        theta = 2 * math.pi * np.arange(256) / 256
        z = np.exp(1j * theta)
        handle = blaschke_handle(b)
        v, _ = handle.eval_many(z)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-10


def test_blaschke_interiority_random():
    rng = np.random.default_rng(6)
    for _ in range(5):
        b = random_blaschke(rng)
        z = 0.999 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(2j * math.pi * rng.uniform(0, 1, 50))
        v, _ = blaschke_handle(b).eval_many(z)
        assert np.all(np.abs(v) < 1.0)


def test_compose_monomials():
    sq = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j))
    cube = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j, 0j))
    c = blaschke_compose(sq, cube)
    assert c.degree == 6
    assert all(z == 0j for z in c.zeros)
    assert abs(c.lam - 1.0) < 1e-12


def test_compose_left_identity():
    ident = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j,))
    rng = np.random.default_rng(8)
    b = random_blaschke(rng, degree=2)
    c = blaschke_compose(ident, b)
    assert c.degree == b.degree
    for _ in range(20):
        z = complex(*rng.uniform(-0.5, 0.5, 2))
        v1, _ = blaschke_eval(c, z)
        v2, _ = blaschke_eval(b, z)
        assert abs(v1 - v2) < 1e-10


def test_compose_matches_pointwise_oracle():
    rng = np.random.default_rng(9)
    outer = random_blaschke(rng, degree=2)
    inner = random_blaschke(rng, degree=3)
    c = blaschke_compose(outer, inner)
    assert c.degree == 6
    worst = 0.0
    for _ in range(50):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        direct, _ = blaschke_eval(inner, z)
        direct, _ = blaschke_eval(outer, direct)
        through, _ = blaschke_eval(c, z)
        worst = max(worst, abs(direct - through))
    assert worst < 1e-9


def _half():
    return DiscMapHandle(lambda z: (0.5 * z, np.full_like(z, 0.5)), "half")


def test_compose_handles_of_two_blaschke_handles_is_a_blaschke_handle():
    rng = np.random.default_rng(12)
    outer = random_blaschke(rng, degree=2)
    inner = random_blaschke(rng, degree=3)
    composed = compose_handles(blaschke_handle(outer), blaschke_handle(inner))
    assert composed.blaschke.degree == 6
    z = np.array([0.1 + 0.2j, -0.5j, 0.7])
    direct, _ = blaschke_handle(outer).eval_many(blaschke_handle(inner).eval_many(z)[0])
    assert np.max(np.abs(composed.eval_many(z)[0] - direct)) < 1e-9


@pytest.mark.parametrize("outer,inner", [
    (_half(), blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0.3j,)))),
    (blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0.3j,))), _half()),
    (blaschke_handle(BlaschkeProduct(lam=1j, zeros=())),
     blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0.3j,)))),
], ids=["outer-half", "inner-half", "outer-degree-0"])
def test_compose_handles_without_two_blaschke_sides_is_functional(outer, inner):
    composed = compose_handles(outer, inner)
    assert composed.blaschke is None
    z = np.array([0.1 + 0.2j, -0.5j, 0.7])
    inner_v, inner_d = inner.eval_many(z)
    outer_v, outer_d = outer.eval_many(inner_v)
    value, deriv = composed.eval_many(z)
    assert np.array_equal(value, outer_v)
    assert np.array_equal(deriv, outer_d * inner_d)


def test_a_composition_that_leaves_the_disc_fails_its_own_check():
    quadruple = DiscMapHandle(lambda z: (4.0 * z, np.full_like(z, 4.0)), "quadruple")
    composed = compose_handles(quadruple, _half())
    assert composed.eval(0.2) == (0.4 + 0j, 2.0 + 0j)
    message = r"^\(quadruple o half\): .* >= 1 at an interior point$"
    with pytest.raises(DiscPreservationError, match=message):
        composed.eval(0.9)


def test_compose_associativity():
    rng = np.random.default_rng(10)
    for _ in range(3):
        b1 = random_blaschke(rng)
        b2 = random_blaschke(rng)
        b3 = random_blaschke(rng)
        left = blaschke_compose(blaschke_compose(b1, b2), b3)
        right = blaschke_compose(b1, blaschke_compose(b2, b3))
        assert left.degree == b1.degree * b2.degree * b3.degree
        for _ in range(50):
            z = complex(*rng.uniform(-0.5, 0.5, 2))
            v1, _ = blaschke_eval(left, z)
            v2, _ = blaschke_eval(right, z)
            assert abs(v1 - v2) < 1e-8


def test_preimages_square():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j))
    pre = blaschke_preimages(b, 0.25)
    got = sorted(pre.roots, key=lambda c: c.real)
    assert abs(got[0] + 0.5) < 1e-10
    assert abs(got[1] - 0.5) < 1e-10


def test_preimages_multiplicity_at_zero():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j))
    pre = blaschke_preimages(b, 0.0)
    assert pre.roots == (0j,)
    assert pre.multiplicities == (2,)
    assert pre.distinct_count == 1
    assert pre.total_multiplicity == 2


def test_preimages_residuals():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0.6 + 0j))
    pre = blaschke_preimages(b, 0.3)
    assert pre.total_multiplicity == 2
    for root in pre.roots:
        v, _ = blaschke_eval(b, root)
        assert abs(v - 0.3) < 1e-10


def test_preimage_completeness_random():
    rng = np.random.default_rng(12)
    for _ in range(10):
        b = random_blaschke(rng, degree=int(rng.integers(1, 7)), max_degree=6)
        w = complex(0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
        pre = blaschke_preimages(b, w)
        assert pre.total_multiplicity == b.degree
        assert all(abs(r) < 1.0 for r in pre.roots)


def test_preimages_reject_exterior_target():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j,))
    with pytest.raises(ValueError):
        blaschke_preimages(b, 1.5)


CONSTANT = BlaschkeProduct(lam=1j, zeros=())


@pytest.mark.parametrize("call, message", [
    (lambda: blaschke_preimages(CONSTANT, 0.5), "preimages need degree >= 1"),
    (lambda: blaschke_critical_points(CONSTANT), "critical census needs degree >= 1"),
    (lambda: blaschke_compose(BlaschkeProduct(1 + 0j, (0j,)), CONSTANT),
     "composition needs both degrees >= 1"),
], ids=["preimages", "critical-points", "compose"])
def test_solvers_reject_a_constant_product(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_mobius_eval_at_its_pole_raises():
    with pytest.raises(PoleError, match="hits the pole of the Mobius map"):
        mobius_eval(MobiusAutomorphism(alpha=0.5 + 0j, lam=1 + 0j), 2)


def test_a_preimage_on_the_boundary_annulus_is_ambiguous():
    # z = w is the one preimage of the identity, 1e-12 inside the circle
    with pytest.raises(BoundaryAmbiguityError, match=r"sit on the \|z\| = 1 annulus") as info:
        blaschke_preimages(BlaschkeProduct(lam=1 + 0j, zeros=(0j,)), 1 - 1e-12)
    assert [abs(1 - abs(r)) < 1e-9 for r in info.value.roots] == [True]


def test_critical_points_square():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j))
    census = blaschke_critical_points(b)
    assert census.roots == (0j,)
    assert census.multiplicities == (1,)


def test_critical_points_quadratic_oracle():
    # zeros {0, 0.6}: critical equation 0.6 z^2 - 2 z + 0.6 = 0 has the
    # interior root (1 - sqrt(1 - 0.36))/0.6 = 1/3 by the quadratic formula
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0.6 + 0j))
    census = blaschke_critical_points(b)
    assert census.total_multiplicity == 1
    assert abs(census.roots[0] - 1.0 / 3.0) < 1e-10


def test_critical_points_mobius_empty():
    b = BlaschkeProduct(lam=1j, zeros=(0.4 - 0.2j,))
    census = blaschke_critical_points(b)
    assert census.roots == ()
    assert census.total_multiplicity == 0


def test_critical_census_random_degrees():
    rng = np.random.default_rng(13)
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        b = random_blaschke(rng, degree=deg, max_degree=6)
        census = blaschke_critical_points(b)
        assert census.total_multiplicity == deg - 1


def crowded_product():
    """The degree-31 product of ROADMAP item 1, whose zeros crowd the circle."""
    rng = np.random.default_rng(3)
    n = int(rng.integers(12, 36))
    mods = np.minimum(np.sort(1 - np.exp(-rng.uniform(0.5, 26, n))), 1 - 2e-12)
    zeros = tuple(complex(m * cmath.exp(2j * math.pi * rng.random())) for m in mods)
    return BlaschkeProduct(1 + 0j, zeros)


def test_the_critical_census_never_returns_a_wrong_count():
    # a contract, not a pin: a census may fail with a typed error, but what it
    # returns is every critical point in the disc (at degree 12 and 31 about
    # half the censuses fail today; a better solver may fail fewer)
    products = [verifier._random_blaschke(np.random.default_rng(s), 12) for s in range(40)]
    wrong = []
    for b in products + [crowded_product()]:
        try:
            census = blaschke_critical_points(b)
        except BlaschkeLabError:
            continue
        if census.total_multiplicity != b.degree - 1 or any(
                abs(r) >= 1 or abs(blaschke_eval(b, r)[1]) > 1e-6 for r in census.roots):
            wrong.append((b, census))
    assert wrong == []


def test_critical_reflection_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(5):
        deg = int(rng.integers(2, 5))
        # keep zeros away from the origin so no reflected root escapes to infinity
        zeros = tuple(complex((0.2 + 0.7 * rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
                      for _ in range(deg))
        b = BlaschkeProduct(lam=1.0 + 0j, zeros=zeros)
        poly = critical_numerator(b)
        assert poly.degree == 2 * deg - 2
        rs = aberth_roots(poly)
        roots = []
        for r, m in zip(rs.roots, rs.multiplicities):
            roots.extend([r] * m)
        inner = [r for r in roots if abs(r) < 1.0 - 1e-9 and abs(r) > 1e-9]
        outer = [r for r in roots if abs(r) > 1.0 + 1e-9]
        assert len(inner) == len(outer)
        for r in inner:
            mirror = 1.0 / r.conjugate()
            assert min(abs(mirror - s) for s in outer) < 1e-8


def test_recover_round_trip():
    m = MobiusAutomorphism(alpha=0.3 + 0j, lam=1j)
    recovered, sup_err = mobius_recover(opaque(mobius_handle(m)))
    assert abs(recovered.alpha - 0.3) < 1e-10
    assert abs(recovered.lam - 1j) < 1e-10
    assert sup_err < 1e-9


def test_recover_identity():
    recovered, sup_err = mobius_recover(opaque(identity_handle()))
    assert abs(recovered.alpha) < 1e-10
    assert abs(recovered.lam - 1.0) < 1e-10
    assert sup_err < 1e-12


def test_recover_rejects_square():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j))
    with pytest.raises(NotAnAutomorphismError):
        mobius_recover(opaque(blaschke_handle(b)))


def test_recover_reports_a_stalled_newton_search():
    # |F_a(z/2)| has no zero in the disc for a = 0.99: its minimum sits on the boundary
    with pytest.raises(NotAnAutomorphismError,
                       match=r"Newton search for the zero stalled at \|f\| = 9\.703e-01$") as info:
        mobius_recover(frostman_shift(make_half_map(), 0.99))
    assert info.value.sup_error is None


def test_recover_reports_a_missed_fit():
    # a Mobius map after u = z + 1e-4 z (z - alpha) keeps its zero alpha and
    # its constant, so only the fit on the grid sees the bend
    m = MobiusAutomorphism(alpha=0.3 + 0.2j, lam=1j)
    outer = mobius_handle(m)

    def bent(z):
        v, d = outer.eval_many(z + 1e-4 * z * (z - m.alpha))
        return v, d * (1.0 + 1e-4 * (2.0 * z - m.alpha))

    with pytest.raises(NotAnAutomorphismError,
                       match=r"^bent: best Mobius fit misses by 1\.070e-04$") as info:
        mobius_recover(DiscMapHandle(bent, "bent"))
    assert info.value.sup_error == pytest.approx(1.0705e-4, rel=1e-4)


def test_recover_near_boundary_alpha():
    m = MobiusAutomorphism(alpha=0.94 + 0j, lam=cmath.exp(0.7j))
    recovered, sup_err = mobius_recover(opaque(mobius_handle(m)))
    assert abs(recovered.alpha - 0.94) < 1e-9
    assert sup_err < 1e-8


def test_disc_preservation_diagnostic():
    def liar(z):
        return 2.0 * z, np.full_like(z, 2.0)

    handle = DiscMapHandle(liar, "liar")
    message = r"^liar: \|f\(\(0\.9\+0j\)\)\| = 1\.8 >= 1 at an interior point$"
    with pytest.raises(DiscPreservationError, match=message):
        handle.eval(0.9)


def test_handles_expose_structure():
    b = BlaschkeProduct(lam=1.0 + 0j, zeros=(0.2 + 0j,))
    h = blaschke_handle(b)
    assert h.blaschke is b
    assert h.spec["type"] == "blaschke"
    assert opaque(h).blaschke is None


def _per_call_blaschke_eval(b, z):
    """The evaluator that built its zero column from ``b.zeros`` on every
    call, kept as the reference of ``maps._blaschke_evaluator``."""
    z = np.asarray(z, dtype=complex)
    if b.degree == 0:
        return np.full(z.shape, b.lam, dtype=complex), np.zeros_like(z)
    shape = z.shape
    flat = z.ravel()
    zeros = np.asarray(b.zeros, dtype=complex)[:, None]
    zc = zeros.conjugate()
    gap = flat[None, :] - zeros
    den = 1.0 - zc * flat[None, :]
    factors = gap / den
    values = b.lam * np.prod(factors, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logsum = (1.0 / gap + zc / den).sum(axis=0)
        derivs = values * logsum
    near = (np.abs(gap) < 1e-12 * (1.0 + np.abs(zeros))).any(axis=0)
    if near.any():
        f, d = factors[:, near], den[:, near]
        ones = np.ones_like(f[:1])
        before = np.cumprod(np.concatenate([ones, f[:-1]]), axis=0)
        after = np.cumprod(np.concatenate([ones, f[:0:-1]]), axis=0)[::-1]
        dfactors = (1.0 - np.abs(zeros) ** 2) / (d * d)
        derivs[near] = b.lam * (dfactors * before * after).sum(axis=0)
    return values.reshape(shape), derivs.reshape(shape)


def _same_bits(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("degree", range(13))
def test_the_blaschke_evaluator_keeps_the_per_call_bits(degree):
    rng = np.random.default_rng(2200 + degree)
    for repeated in (False, True):
        b = random_blaschke(rng, degree)
        if repeated and degree >= 2:   # a double zero, for the product rule
            b = BlaschkeProduct(lam=b.lam, zeros=b.zeros[:-1] + b.zeros[:1])
        fn = _blaschke_evaluator(b)
        wide = np.sqrt(rng.uniform(0, 1, 300)) * np.exp(2j * math.pi * rng.uniform(0, 1, 300))
        # nodes within 1e-12 (1 + |a|) of a zero a take the product rule
        near = np.array([a + 1e-12 * (1.0 + abs(a)) * scale * cmath.exp(2j * math.pi * turn)
                         for a in b.zeros for scale in (0.0, 0.3, 0.99)
                         for turn in rng.uniform(0, 1, 2)], dtype=complex)
        for z in (wide, near, np.concatenate([wide[:50], near]), wide.reshape(20, 15)):
            _same_bits(fn(z), _per_call_blaschke_eval(b, z))
            _same_bits(blaschke_handle(b).fn(z), _per_call_blaschke_eval(b, z))
        for z in list(wide[:20]) + list(near):
            _same_bits(fn(np.array([z])), _per_call_blaschke_eval(b, np.array([z])))
            value, deriv = blaschke_eval(b, z)
            _same_bits((np.array([value]), np.array([deriv])),
                       _per_call_blaschke_eval(b, np.array([z])))
