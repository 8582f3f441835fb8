import cmath
import json
import math

import numpy as np
import pytest

from blaschke_lab import verifier
from blaschke_lab.cli import main
from blaschke_lab.errors import ContourProximityError, SolverFailure
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
    derivative_grid,
    hurwitz_table_csv,
    min_abs_derivative,
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
    a = complex(derivative_grid()[1234])
    double = blaschke_handle(BlaschkeProduct(lam=1 + 0j, zeros=(a, a)))
    verdict = check_theorem_3_1(double, valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"


# a degree-2 product whose one critical point falls between the points of
# the derivative grid
DEGREE_TWO = BlaschkeProduct(lam=1 + 0j, zeros=(0.3 + 0.1j, -0.2 + 0.4j))


def test_pipeline_names_the_critical_point_of_a_blaschke_candidate():
    verdict = check_theorem_3_1(blaschke_handle(DEGREE_TWO), valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail == ("f' vanishes at the critical point 0.032369+0.237374i, "
                              "where |f'| = 4.3e-17")
    # the grid alone misses it
    assert min_abs_derivative(blaschke_handle(DEGREE_TWO)) > verifier.DERIVATIVE_FLOOR


def test_pipeline_falls_back_to_the_grid_when_the_census_fails(monkeypatch):
    def failing(b):
        raise SolverFailure("census did not converge")

    monkeypatch.setattr(verifier, "blaschke_critical_points", failing)
    a = complex(derivative_grid()[1234])
    double = blaschke_handle(BlaschkeProduct(lam=1 + 0j, zeros=(a, a)))
    verdict = check_theorem_3_1(double, valence_bound=2)
    assert verdict.verdict == "vanishing-derivative"
    assert verdict.detail.startswith("min |f'| on the probe grid is ")


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


def test_derivative_grid_shape():
    grid = derivative_grid()
    assert grid.size == 10000
    import numpy as np
    assert float(np.max(np.abs(grid))) < 0.999


def test_min_derivative_mobius_large():
    assert min_abs_derivative(OPAQUE_MOBIUS) > 0.1


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
    def failing(f, w, schedule=None):
        raise ContourProximityError("contour node too close")

    monkeypatch.setattr(verifier, "valence_at", failing)
    report = check_theorem_3_2(k=2, seed=0, n_membership=50, n_valence=3)
    assert report.cases[5] == {"case": 5, "kind": "valence-bound", "samples": 3,
                               "ok": False, "error": "contour node too close"}
    assert len(report.failures) == 1


def test_theorem_3_2_validates_k():
    with pytest.raises(ValueError):
        check_theorem_3_2(k=1)


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
