import cmath
import math

import numpy as np
import pytest

from blaschke_lab.errors import DomainError, PoleError
from blaschke_lab.gallery import (
    atomic_preimage_count,
    escape_blaschke,
    frostman_shift,
    make_atomic_inner,
    make_escape_sequence,
    make_half_map,
    make_limit_of_escape,
    make_scaled_exponential,
    make_slit_map,
    make_slit_power,
    power_preimages,
    scaled_exp_preimages,
    slit_collision_pair,
    slit_distance,
    slit_g,
    slit_h,
)
from blaschke_lab.maps import identity_handle
from blaschke_lab.numerics import derivative_consistency
from blaschke_lab.valence import default_schedule, valence_at, valence_profile

G0 = -(3.0 - 2.0 * math.sqrt(2.0))


def disc_samples(rng, count, radius=0.9):
    r = radius * np.sqrt(rng.uniform(0, 1, count))
    th = rng.uniform(0, 2 * math.pi, count)
    return r * np.exp(1j * th)


def test_half_map_values():
    h = make_half_map()
    v, d = h.eval(0.8)
    assert v == 0.4 + 0j
    assert d == 0.5 + 0j


def test_half_map_valence():
    h = make_half_map()
    assert valence_at(h, 0.3).value == 1
    report = valence_at(h, 0.7)  # outside the image disc of radius 1/2
    assert report.value == 0
    assert report.stabilized


def test_scaled_exponential_at_origin():
    f = make_scaled_exponential()
    v, d = f.eval(0.0)
    assert abs(v - 1e-10) < 1e-22
    assert abs(d - 1e-9) < 1e-21


def test_scaled_exponential_modulus_bound():
    # |f| = eps * e^{c Re z} <= eps * e^c < 1
    f = make_scaled_exponential()
    rng = np.random.default_rng(31)
    v, _ = f.eval_many(disc_samples(rng, 1000, radius=0.999))
    assert np.max(np.abs(v)) <= 1e-10 * math.exp(10.0)


def test_scaled_exponential_rejects_disc_violation():
    # a large c overflows e^c, also with an epsilon small enough to offset it
    for epsilon, c in [(1.0, 10.0), (1e-10, 1000.0), (1e-320, 720.0)]:
        with pytest.raises(ValueError, match="map would leave the disc$"):
            make_scaled_exponential(epsilon=epsilon, c=c)


def test_scaled_exp_enumeration_oracle_certifies_winding():
    f = make_scaled_exponential()
    for w in (1e-10, -1e-10, 1e-10j, 2e-7):
        expected = len(scaled_exp_preimages(w))
        report = valence_at(f, w)
        assert report.stabilized
        assert report.value == expected


def test_slit_g_at_origin_closed_form():
    # chain: q=i, s=e^{i pi/4}, w=(sqrt(2)-1)i, z=-(sqrt(2)-1)^2
    v, _ = slit_g(0.0)
    assert abs(v - G0) < 1e-14


def test_slit_roundtrip_h_after_g():
    rng = np.random.default_rng(32)
    worst = 0.0
    for u in disc_samples(rng, 1000, radius=0.99):
        value, _ = slit_g(complex(u))
        worst = max(worst, abs(slit_h(value) - u))
    assert worst < 1e-9


def test_slit_image_avoids_slit():
    rng = np.random.default_rng(33)
    for u in disc_samples(rng, 1000, radius=0.999):
        value, _ = slit_g(complex(u))
        assert abs(value) < 1.0
        assert value != 0
        assert slit_distance(value) > 0.0


def test_slit_g_pole():
    with pytest.raises(PoleError):
        slit_g(1.0)


def test_slit_h_inverts_g0():
    assert abs(slit_h(G0)) < 1e-12


def test_slit_roundtrip_g_after_h():
    rng = np.random.default_rng(34)
    count = 0
    while count < 1000:
        z = complex(*rng.uniform(-0.95, 0.95, 2))
        if abs(z) >= 0.95 or slit_distance(z) < 1e-3:
            continue
        count += 1
        u = slit_h(z)
        assert abs(u) < 1.0
        value, _ = slit_g(u)
        assert abs(value - z) < 1e-9


def test_slit_h_interior_point():
    u = slit_h(-0.5)
    assert abs(u) < 1.0


def test_slit_h_domain_errors():
    with pytest.raises(DomainError):
        slit_h(0.5)           # on the slit
    with pytest.raises(DomainError):
        slit_h(0.0)           # slit endpoint
    with pytest.raises(DomainError):
        slit_h(1.5)           # outside the disc


def test_power_map_square_of_g0():
    f = make_slit_power(2)
    v, _ = f.eval(0.0)
    assert abs(v - (17.0 - 12.0 * math.sqrt(2.0))) < 1e-14


def test_power_map_derivative_never_vanishes():
    f = make_slit_power(2)
    rng = np.random.default_rng(35)
    grid = disc_samples(rng, 500, radius=0.95)
    _, d = f.eval_many(grid)
    assert np.min(np.abs(d)) > 0.0


def test_power_map_membership_oracle():
    # w != 0 always has a k-th root off the slit; w = 0 has no preimage
    f = make_slit_power(2)
    rng = np.random.default_rng(36)
    for w in disc_samples(rng, 50, radius=0.9):
        pres = power_preimages(complex(w), 2)
        assert len(pres) >= 1
        for u in pres:
            value, _ = f.eval(u)
            assert abs(value - w) < 1e-9
    assert power_preimages(0.0, 2) == []


@pytest.mark.parametrize("k", [3, 4])
def test_power_preimages_are_the_kth_roots_off_the_slit(k):
    f = make_slit_power(k)
    rng = np.random.default_rng(40 + k)
    for w in disc_samples(rng, 50, radius=0.9):
        w = complex(w)
        roots = [abs(w) ** (1 / k) * cmath.exp(1j * (cmath.phase(w) + 2 * math.pi * j) / k)
                 for j in range(k)]
        off_slit = [z for z in roots if not (z.imag == 0 and z.real >= 0)]
        pres = power_preimages(w, k)
        assert len(pres) == len(off_slit)
        for u in pres:
            value, _ = f.eval(u)
            assert abs(value - w) < 1e-9
    # a positive real w has one k-th root on the slit, which has no preimage
    assert len(power_preimages(0.5, k)) == k - 1


def test_power_map_validation():
    with pytest.raises(ValueError):
        make_slit_power(1)


def test_atomic_inner_values():
    S = make_atomic_inner()
    v, d = S.eval(0.0)
    assert abs(v - math.exp(-1)) < 1e-15
    assert abs(d - (-2 * math.exp(-1))) < 1e-15


def test_atomic_profile_growth():
    S = make_atomic_inner()
    prof = valence_profile(S, math.exp(-1), (0.9, 0.99, 0.999))
    assert [c for _, c in prof] == [1, 5, 15]
    for r, count in prof:
        assert count == 2 * int(r / (math.pi * math.sqrt(1 - r * r))) + 1
        assert count == atomic_preimage_count(r)


def test_atomic_preimage_count_rejects_radius_one():
    # every branch has a solution inside the disc: there is no finite count
    with pytest.raises(ValueError):
        atomic_preimage_count(1.0)


def test_frostman_zero_shift_is_negation():
    S = make_atomic_inner()
    F0 = frostman_shift(S, 0.0)
    rng = np.random.default_rng(37)
    z = disc_samples(rng, 100)
    sv, sd = S.eval_many(z)
    fv, fd = F0.eval_many(z)
    assert np.max(np.abs(fv + sv)) < 1e-15
    assert np.max(np.abs(fd + sd)) < 1e-15


def test_frostman_uniform_distance_bound():
    # |F_a + f| = |(a - conj(a) f^2)/(1 - conj(a) f)| <= 2|a|/(1 - |a|)
    S = make_atomic_inner()
    for a in (1e-3, 0.1 + 0.05j):
        Fa = frostman_shift(S, a)
        rng = np.random.default_rng(38)
        z = disc_samples(rng, 500, radius=0.99)
        sv, _ = S.eval_many(z)
        fv, _ = Fa.eval_many(z)
        assert np.max(np.abs(fv + sv)) <= 2 * abs(a) / (1 - abs(a)) + 1e-12


def test_frostman_vanishes_on_preimage():
    ident = identity_handle()
    Fa = frostman_shift(ident, 0.3 - 0.4j)
    v, _ = Fa.eval(0.3 - 0.4j)
    assert abs(v) < 1e-15


def test_frostman_validation():
    with pytest.raises(ValueError):
        frostman_shift(make_atomic_inner(), 1.0)


def test_escape_sequence_zeros():
    b = escape_blaschke(2)
    assert b.zeros == (0j, 0.5 + 0j)
    assert b.lam == 1.0 + 0j
    with pytest.raises(ValueError):
        escape_blaschke(1)


def test_escape_sequence_valence_two_for_all_n():
    for n in (2, 10, 100):
        handle = make_escape_sequence(n)
        report = valence_at(handle, 0.1)
        assert report.value == 2
        assert report.stabilized


def test_escape_at_zero_counts_both_roots():
    # B_n(0) = 0 and the second zero 1 - 1/n is the other preimage of 0
    handle = make_escape_sequence(10)
    report = valence_at(handle, 0.0)
    assert report.value == 2


def test_limit_map_valence_one():
    limit = make_limit_of_escape()
    assert valence_at(limit, 0.1).value == 1


def test_slit_map_derivative_against_stencil():
    err = derivative_consistency(make_slit_map(), 0.2j, 1e-6)
    assert err < 1e-6


def test_every_gallery_member_has_consistent_derivative():
    rng = np.random.default_rng(39)
    handles = [
        make_half_map(),
        make_scaled_exponential(),
        make_slit_map(),
        make_slit_power(2),
        make_atomic_inner(),
        frostman_shift(make_atomic_inner(), 0.2),
        make_escape_sequence(5),
        make_limit_of_escape(),
    ]
    for handle in handles:
        worst = 0.0
        for z in disc_samples(rng, 100, radius=0.9):
            worst = max(worst, derivative_consistency(handle, complex(z), 1e-5))
        assert worst < 1e-6, handle.descriptor


def test_every_gallery_member_preserves_disc():
    rng = np.random.default_rng(40)
    handles = [
        make_half_map(),
        make_scaled_exponential(),
        make_slit_map(),
        make_slit_power(2),
        make_atomic_inner(),
        frostman_shift(make_atomic_inner(), 0.2),
        make_escape_sequence(5),
    ]
    z = disc_samples(rng, 1000, radius=0.999)
    for handle in handles:
        v, _ = handle.eval_many(z)
        assert np.max(np.abs(v)) < 1.0, handle.descriptor


def test_collision_pair_witness():
    u1, u2 = slit_collision_pair()
    assert abs(u1 - u2) > 0.1
    f = make_slit_power(2)
    v1, _ = f.eval(u1)
    v2, _ = f.eval(u2)
    assert abs(v1 - v2) < 1e-9


def test_slit_power_omits_zero_across_schedule():
    f = make_slit_power(2)
    prof = valence_profile(f, 0.0, default_schedule())
    assert all(c == 0 for _, c in prof)
