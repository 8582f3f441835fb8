import cmath
import json
import math

import numpy as np
import pytest

from blaschke_lab import valence, verifier
from blaschke_lab.cli import main
from blaschke_lab.errors import ContourProximityError, DomainError, SolverFailure
from blaschke_lab.gallery import (
    frostman_shift,
    make_atomic_inner,
    make_escape_sequence,
    make_half_map,
    make_scaled_exponential,
    make_slit_power,
)
from blaschke_lab.maps import (
    BlaschkeProduct,
    DiscMapHandle,
    MobiusAutomorphism,
    blaschke_handle,
    compose_handles,
    mobius_handle,
    opaque,
)
from blaschke_lab.verifier import (
    boundary_mean,
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_A,
    check_theorem_B,
    check_theorem_C,
    demo_hurwitz_escape,
    hurwitz_table_csv,
    report_jsonl,
)

OPAQUE_MOBIUS = opaque(mobius_handle(
    MobiusAutomorphism(alpha=0.3 + 0j, lam=cmath.exp(1j * math.pi / 3))))


def test_theorem_a_golden_small():
    report = check_theorem_A(seed=1, n_products=20, n_targets=10)
    assert report.ok
    assert report.cases_run == 20 * 10 + 2
    assert report.failures == []


def test_theorem_a_determinism():
    a = report_jsonl(check_theorem_A(seed=5, n_products=5, n_targets=3))
    b = report_jsonl(check_theorem_A(seed=5, n_products=5, n_targets=3))
    assert a == b
    c = report_jsonl(check_theorem_A(seed=6, n_products=5, n_targets=3))
    assert a != c


def test_theorem_a_case_records_reproduce():
    report = check_theorem_A(seed=2, n_products=3, n_targets=2)
    case = report.cases[0]
    assert case["map"]["type"] == "blaschke"
    assert len(case["w"]) == 2
    line = report_jsonl(report).splitlines()[0]
    assert json.loads(line) == case


def test_theorem_a_validates_sizes():
    with pytest.raises(ValueError):
        check_theorem_A(seed=1, n_products=0, n_targets=5)


# solver -> (suite, a small verifier run, the CLI options of the same run)
FAILING_SOLVER = {
    "blaschke_preimages": ("theorem-a", lambda: check_theorem_A(1, 1, 2),
                           ["--cases", "1", "--targets", "2"]),
    "blaschke_compose": ("theorem-b", lambda: check_theorem_B(1, 2), ["--cases", "2"]),
    "blaschke_critical_points": ("theorem-c", lambda: check_theorem_C(1, 2, 1),
                                 ["--cases", "2", "--mobius-cases", "1"]),
    "mobius_recover": ("theorem-c", lambda: check_theorem_C(1, 1, 2),
                       ["--cases", "1", "--mobius-cases", "2"]),
}


@pytest.mark.parametrize("solver", FAILING_SOLVER)
def test_a_solver_failure_becomes_an_error_record(monkeypatch, capsys, solver):
    suite, check, options = FAILING_SOLVER[solver]
    original = getattr(verifier, solver)
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise SolverFailure(f"{solver} did not converge")
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier, solver, fail_first)
    report = check()
    assert [(c["ok"], c["error"]) for c in report.failures] == \
        [(False, f"{solver} did not converge")]
    assert not report.ok
    calls.clear()
    assert main(["verify", suite, "--seed", "1", *options]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [case for case in lines[:-1] if "error" in case] == report.failures
    assert lines[-1]["summary"]["failures"] == 1 and not lines[-1]["summary"]["ok"]


def test_a_failing_composition_moves_no_later_case(monkeypatch):
    clean = check_theorem_B(1, 3)
    original = verifier.blaschke_compose
    calls = []

    def fail_first(outer, inner):
        calls.append(outer)
        if len(calls) == 1:
            raise SolverFailure("compose did not converge")
        return original(outer, inner)

    monkeypatch.setattr(verifier, "blaschke_compose", fail_first)
    report = check_theorem_B(1, 3)
    assert report.cases[0]["error"] == "compose did not converge"
    # each case draws its probe points before it composes
    assert report.cases[1:] == clean.cases[1:]


# name in verifier -> (a small suite run, the kinds of the cases that call it)
FAILING_CHECK = {
    "valence_heatmap": (lambda: check_theorem_A(1, 1, 2), ["half-heatmap-probe"]),
    "scaled_exp_preimages": (lambda: check_theorem_A(1, 1, 2), ["scaled-exp-probe"]),
    "_slit_g_vec": (lambda: check_theorem_3_2(2, 0, 50, 3), ["roundtrip"]),
    "slit_collision_pair": (lambda: check_theorem_3_2(2, 0, 50, 3), ["non-injectivity"]),
    "power_preimages": (lambda: check_theorem_3_2(3, 0, 50, 3), ["non-injectivity"]),
    "_slit_h_vec": (lambda: check_theorem_3_2(2, 0, 50, 3), ["roundtrip", "membership"]),
    "_derivative_floor": (lambda: check_theorem_3_2(2, 0, 50, 3), ["derivative-floor"]),
}


@pytest.mark.parametrize("name", FAILING_CHECK)
def test_an_error_in_a_probe_or_check_becomes_a_failing_case(monkeypatch, name):
    check, kinds = FAILING_CHECK[name]
    clean = check()

    def failing(*args, **kwargs):
        raise DomainError(f"{name} failed")

    monkeypatch.setattr(verifier, name, failing)
    report = check()
    # the failing cases keep their number and record, and the suite goes on
    assert report.failures == [{"case": c["case"], "kind": c["kind"], "ok": False,
                                "error": f"{name} failed",
                                **{key: c[key] for key in ("map", "w", "samples", "floor")
                                   if key in c}}
                               for c in clean.cases if c["kind"] in kinds]
    # every other case draws the same inputs and gives the same record
    assert [c for c in report.cases if c["kind"] not in kinds] == \
        [c for c in clean.cases if c["kind"] not in kinds]


def test_suites_are_pure():
    assert check_theorem_B(1, 5) == check_theorem_B(1, 5)
    assert check_theorem_C(1, 3, 2) == check_theorem_C(1, 3, 2)


def test_theorem_b_golden_small():
    report = check_theorem_B(seed=1, n_pairs=10)
    assert report.ok
    assert all(case["degree"] >= 1 for case in report.cases)


def test_theorem_c_golden_small():
    report = check_theorem_C(seed=1, n_products=10, n_mobius=5)
    assert report.ok
    census_cases = [c for c in report.cases if c["kind"] == "critical-census"]
    assert all(c["census"] == c["degree"] - 1 for c in census_cases)
    assert all(c["census"] > 0 for c in census_cases)  # never vacuous
    recovery = [c for c in report.cases if c["kind"] == "automorphism-recovery"]
    assert all(c["sup_error"] < 1e-8 for c in recovery)


def test_pipeline_verdict_automorphism():
    verdict = check_theorem_3_1(OPAQUE_MOBIUS, valence_bound=1)
    assert verdict.verdict == "automorphism"
    assert verdict.sup_error < 1e-9


@pytest.mark.parametrize("bound", [0, -5])
def test_pipeline_rejects_a_bound_below_one_before_any_stage(bound):
    def untouchable(z):
        raise AssertionError("a stage evaluated the candidate")

    with pytest.raises(ValueError, match="at least 1"):
        check_theorem_3_1(DiscMapHandle(untouchable, "untouchable"), valence_bound=bound)


def test_pipeline_verdict_not_inner():
    verdict = check_theorem_3_1(make_slit_power(2), valence_bound=2)
    assert verdict.verdict == "not-inner"
    assert verdict.boundary_mean < 0.99


@pytest.mark.parametrize("a", [0.9, 0.95, 0.99, 0.999, 0.7 + 0.7j, -0.3 - 0.95j])
def test_pipeline_finds_a_frostman_shift_of_the_half_map_not_inner(a):
    # |f| <= (|a| + 1/2)/(1 + |a|/2) < 1 on the closed disc, but the mean
    # test passes from |a| near 0.99 on
    verdict = check_theorem_3_1(frostman_shift(make_half_map(), a))
    assert verdict.verdict == "not-inner"
    if verdict.boundary_mean > verifier.INNER_MEAN_THRESHOLD:
        assert "is not inner by construction" in verdict.detail


@pytest.mark.parametrize("alpha", [0, 0.05, -0.1j, 0.2 + 0.1j])
def test_a_non_inner_map_after_an_opaque_automorphism_is_not_inner(alpha):
    # the opaque map carries no structure, but the outer map is not inner,
    # so neither is the composition: not a counterexample to theorem 3.1
    shift = opaque(mobius_handle(MobiusAutomorphism(alpha=alpha, lam=1)))
    verdict = check_theorem_3_1(compose_handles(frostman_shift(make_half_map(), 0.995), shift))
    assert verdict.verdict == "not-inner"
    assert "is not inner by construction" in verdict.detail


def test_pipeline_reports_the_structure_of_a_map_that_passes_the_mean_test(capsys):
    spec = ('{"type":"gallery","name":"frostman","params":{"base":'
            '{"type":"gallery","name":"half"},"a":[0.99,0]}}')
    assert main(["verify", "theorem-3-1", "--candidate", spec]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["verdict"] == "not-inner" and record["boundary_mean"] > 0.99
    assert record["detail"].startswith("frostman(a=0.99+0j, base=half) is not inner")


def test_pipeline_verdict_valence_unbounded():
    verdict = check_theorem_3_1(make_atomic_inner(), valence_bound=1)
    assert verdict.verdict == "valence-unbounded"
    assert verdict.profile is not None
    assert [c for _, c in verdict.profile] == [1, 5, 15]


def test_pipeline_verdicts_separate_canonical_triple():
    verdicts = {
        check_theorem_3_1(OPAQUE_MOBIUS).verdict,
        check_theorem_3_1(make_slit_power(2)).verdict,
        check_theorem_3_1(make_atomic_inner()).verdict,
    }
    assert verdicts == {"automorphism", "not-inner", "valence-unbounded"}


def test_pipeline_verdict_not_an_automorphism():
    # inner enough at the probe radius, univalent, f' = 0.995 never vanishes,
    # but the recovered constant has modulus 0.995
    shrink = DiscMapHandle(lambda z: (0.995 * z, np.full_like(z, 0.995)), "0.995z")
    verdict = check_theorem_3_1(shrink)
    assert verdict.verdict == "not-an-automorphism"
    assert "modulus" in verdict.detail


def test_pipeline_verdict_vanishing_derivative():
    # a double zero of f is a zero of f'
    a = -0.05210580525350462 - 0.11073047261316034j
    double = blaschke_handle(BlaschkeProduct(lam=1 + 0j, zeros=(a, a)))
    verdict = check_theorem_3_1(double, valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"
    # a candidate without structure gets the same count of the zeros of f'
    verdict = check_theorem_3_1(opaque(double), valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail == "f' has 1 zeros in |z| < 0.999938964844"


# a degree-2 product whose one critical point falls between the points of
# the derivative grid
DEGREE_TWO = BlaschkeProduct(lam=1 + 0j, zeros=(0.3 + 0.1j, -0.2 + 0.4j))


def test_pipeline_names_the_critical_point_of_a_blaschke_candidate():
    verdict = check_theorem_3_1(blaschke_handle(DEGREE_TWO), valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail == "f' has 1 zeros in |z| < 0.999938964844"


def test_pipeline_reports_a_valence_above_the_bound_with_its_profile():
    verdict = check_theorem_3_1(blaschke_handle(DEGREE_TWO), valence_bound=1)
    assert verdict.verdict == "valence-unbounded"
    assert verdict.detail == "valence at w=0.0636+0.0000j is 2 > bound 1"
    # both preimages of the probe target f(0) lie inside |z| < 0.9
    assert verdict.profile == ((0.9, 2), (0.99, 2), (0.999, 2))


@pytest.mark.parametrize("zero, profile", [
    (0.9, ((0.90001, 2), (0.99, 2), (0.999, 2))),
    (0.99, ((0.9, 1), (0.990001, 2), (0.999, 2))),
])
def test_a_profile_radius_through_a_zero_is_counted_at_its_jitter(zero, profile):
    # f(0) = 0, so the profile's contour at r = zero passes through a
    # preimage of the probe target; it climbs the jitter ladder of the scan
    f = blaschke_handle(BlaschkeProduct(lam=1 + 0j, zeros=(0j, complex(zero))))
    verdict = check_theorem_3_1(f, valence_bound=1)
    assert verdict.verdict == "valence-unbounded"
    assert verdict.profile == profile


def test_a_failing_census_still_gives_a_vanishing_derivative(monkeypatch):
    # a degree-12 product whose census fails and whose 11 critical points
    # all miss the derivative grid
    degree_12 = blaschke_handle(verifier._random_blaschke(np.random.default_rng(1), 12))
    verdict = check_theorem_3_1(degree_12, valence_bound=12)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail == "f' has 11 zeros in |z| < 0.999938964844"

    def failing(b):
        raise SolverFailure("census did not converge")

    # the pipeline counts the critical points and runs no census
    monkeypatch.setattr(verifier, "blaschke_critical_points", failing)
    verdict = check_theorem_3_1(blaschke_handle(DEGREE_TWO), valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail == "f' has 1 zeros in |z| < 0.999938964844"


def test_no_opaque_product_is_a_counterexample_to_theorem_3_1():
    # inner maps of bounded valence with no structure to read: the count of
    # the zeros of f' finds the n - 1 critical points of each product of
    # degree n, where a grid of |f'| found none, and none of an automorphism
    rng = np.random.default_rng(11)

    def product(degree, radius):
        zeros = tuple(verifier._sample_disc(rng, radius) for _ in range(degree))
        return blaschke_handle(BlaschkeProduct(lam=cmath.exp(2j * math.pi * rng.uniform()),
                                               zeros=zeros))

    def mobius():
        return mobius_handle(MobiusAutomorphism(alpha=verifier._sample_disc(rng, 0.9),
                                                lam=cmath.exp(2j * math.pi * rng.uniform())))

    candidates = [(product(n, radius), n) for radius in (0.9, 0.99) for n in range(2, 9)]
    candidates += [(compose_handles(mobius(), product(2, 0.9)), 2) for _ in range(2)]
    verdicts = [check_theorem_3_1(opaque(f), valence_bound=n) for f, n in candidates]
    assert [(v.verdict, v.detail.partition(" in ")[0]) for v in verdicts] == \
        [("vanishing-derivative", f"f' has {n - 1} zeros") for _, n in candidates]
    assert [check_theorem_3_1(opaque(mobius())).verdict for _ in range(2)] == \
        ["automorphism"] * 2


def test_a_count_of_the_zeros_of_f_prime_that_fails_gives_a_vanishing_derivative(monkeypatch):
    class Failing(valence.DerivativeView):
        def eval_many(self, z):
            raise DomainError("f' is not finite")

    monkeypatch.setattr(verifier, "DerivativeView", Failing)
    # the stage cannot show that f' has no zero, so even an automorphism fails it
    verdict = check_theorem_3_1(OPAQUE_MOBIUS)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail == ("counting the zeros of f' in |z| < 0.999938964844 failed: "
                              "f' is not finite")


def test_pipeline_verdict_valence_scan_error():
    def identity_with_hole(z):
        values = z.copy()
        values[np.abs(np.abs(z) - 0.5) < 1e-9] = np.nan
        return values, np.ones_like(z)

    verdict = check_theorem_3_1(DiscMapHandle(identity_with_hole, "identity-with-hole"))
    assert verdict.verdict == "valence-unbounded"
    assert verdict.profile is None
    assert verdict.detail.startswith("valence scan failed")


def test_boundary_modulus_separates_classes():
    b = blaschke_handle(make_escape_sequence(4).blaschke)
    assert boundary_mean(b) > 0.99
    assert boundary_mean(make_scaled_exponential()) < 1e-5
    s_mean = boundary_mean(make_atomic_inner())
    assert 0.0 < s_mean < 1.0


def test_theorem_3_2_small():
    report = check_theorem_3_2(k=2, seed=0, n_membership=500, n_valence=10)
    assert report.ok
    kinds = [c["kind"] for c in report.cases]
    assert kinds == ["roundtrip", "non-injectivity", "omits-zero",
                     "membership", "derivative-floor", "valence-bound"]


def test_theorem_3_2_k3():
    report = check_theorem_3_2(k=3, seed=0, n_membership=200, n_valence=5)
    assert report.ok


def test_theorem_3_2_records_an_engine_error_as_a_failing_case():
    # g^32 underflows to 0 at a node on |z| = 1 - 2^-15 of the omits-zero scan
    report = check_theorem_3_2(k=32, seed=0, n_membership=50, n_valence=3)
    assert [c["ok"] for c in report.cases] == [True, True, False, True, True, True]
    assert report.cases[2]["kind"] == "omits-zero"
    assert "below the proximity floor" in report.cases[2]["error"]
    assert "counts" not in report.cases[2]


def test_a_subnormal_distance_is_a_proximity_failure_not_an_overflow():
    # g^24 is subnormal, not 0, at a node of the omits-zero scan: the
    # proximity floor's absolute part catches it before the phase step
    # divides by it (pytest turns the overflow warning into an error)
    report = check_theorem_3_2(k=24, seed=0, n_membership=50, n_valence=3)
    assert [c["ok"] for c in report.cases] == [True, True, False, True, True, True]
    assert report.cases[2]["error"] == ("contour node at t=0.750000 has |f-w| = "
                                        "1.295e-318, below the proximity floor")


def test_theorem_3_2_records_a_valence_scan_error_as_a_failing_case(monkeypatch):
    def failing(f, ws, schedule=None):
        return [ContourProximityError("contour node too close") for _ in ws]

    # the scan of the valence targets takes its outcomes from _valences
    monkeypatch.setattr(valence, "_valences", failing)
    report = check_theorem_3_2(k=2, seed=0, n_membership=50, n_valence=3)
    assert report.cases[5] == {"case": 5, "kind": "valence-bound", "samples": 3,
                               "ok": False, "error": "contour node too close"}
    assert len(report.failures) == 1


def test_theorem_3_2_validates_k():
    with pytest.raises(ValueError):
        check_theorem_3_2(k=1)


def test_theorem_3_2_takes_an_integral_float_exponent():
    assert check_theorem_3_2(2.0, 0, 50, 3) == check_theorem_3_2(2, 0, 50, 3)


@pytest.mark.parametrize("n_membership, n_valence", [(0, 0), (0, 5), (5, 0)])
def test_theorem_3_2_never_passes_without_samples(n_membership, n_valence):
    with pytest.raises(ValueError, match="suite sizes must be positive"):
        check_theorem_3_2(2, 0, n_membership, n_valence)


def test_hurwitz_demo_table():
    rows, limit_value = demo_hurwitz_escape((2, 10, 100), 0.1)
    assert rows == [(2, 2), (10, 2), (100, 2)]
    assert limit_value == 1
    csv = hurwitz_table_csv(rows, limit_value)
    assert csv == "n,valence\n2,2\n10,2\n100,2\nlimit,1\n"


def test_hurwitz_demo_at_zero():
    rows, _ = demo_hurwitz_escape((5,), 0.0)
    assert rows == [(5, 2)]


def test_hurwitz_demo_rejects_large_target():
    with pytest.raises(ValueError):
        demo_hurwitz_escape((2,), 0.7)


def test_escape_second_preimage_drifts_to_boundary():
    from blaschke_lab.maps import blaschke_preimages

    def outermost(n):
        pre = blaschke_preimages(make_escape_sequence(n).blaschke, 0.1)
        return max(abs(r) for r in pre.roots)

    moduli = [outermost(n) for n in (2, 10, 100, 1000)]
    assert all(b > a for a, b in zip(moduli, moduli[1:]))
    assert moduli[-1] > 0.999


def test_frostman_shift_close_to_negation_of_atomic():
    # sup sampled distance between F_a(S) and -S obeys 2|a|/(1-|a|)
    S = make_atomic_inner()
    a = 1e-3
    Fa = frostman_shift(S, a)
    import numpy as np
    rng = np.random.default_rng(41)
    z = 0.99 * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * math.pi * rng.uniform(0, 1, 500))
    fv, _ = Fa.eval_many(z)
    sv, _ = S.eval_many(z)
    assert float(np.max(np.abs(fv + sv))) <= 2 * a / (1 - a)


def test_report_jsonl_layout():
    report = check_theorem_B(seed=3, n_pairs=2)
    lines = report_jsonl(report).splitlines()
    assert len(lines) == 3
    summary = json.loads(lines[-1])["summary"]
    assert summary["suite"] == "theorem-b"
    assert summary["cases_run"] == 2
    assert summary["ok"] is True
    assert "wall_time" not in lines[-1]
