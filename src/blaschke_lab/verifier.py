"""Executable theorem suites: seeded property campaigns over random maps.

Every suite is deterministic under a fixed seed and emits a SuiteReport
whose cases carry full reproduction data (map spec, target, observed vs
expected).  A suite never passes vacuously: each asserts its positive
witnesses, e.g. the critical-point census must actually find points.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlaschkeLabError, NotAnAutomorphismError
from .gallery import (
    _slit_g_vec,
    _slit_h_vec,
    make_escape_sequence,
    make_half_map,
    make_limit_of_escape,
    make_scaled_exponential,
    make_slit_power,
    power_preimages,
    scaled_exp_preimages,
    slit_collision_pair,
)
from .maps import (
    BlaschkeProduct,
    DiscMapHandle,
    MobiusAutomorphism,
    blaschke_compose,
    blaschke_critical_points,
    blaschke_eval,
    blaschke_handle,
    blaschke_preimages,
    mobius_handle,
    mobius_recover,
    sunflower_grid,
)
from .valence import default_schedule, valence_at, valence_heatmap, valence_profile

INNER_MEAN_THRESHOLD = 0.99
INNER_PROBE_RADIUS = 1.0 - 1e-6
BOUNDARY_SAMPLES = 512
DERIVATIVE_FLOOR = 1e-6
DERIVATIVE_GRID_RADIUS = 0.999
DERIVATIVE_GRID_RADII = 200
DERIVATIVE_GRID_ANGLES = 50


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run; cases are JSON-ready dicts."""

    suite: str
    seed: int | None
    cases: tuple

    @property
    def cases_run(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> list:
        return [c for c in self.cases if not c.get("ok", False)]

    @property
    def ok(self) -> bool:
        return self.cases_run > 0 and not self.failures


def jsonl(records) -> str:
    """One compact, key-sorted JSON line per record."""
    return "".join(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                   for record in records)


def report_jsonl(report: SuiteReport) -> str:
    """One JSON line per case plus a summary line."""
    summary = {"summary": {"suite": report.suite, "seed": report.seed,
                           "cases_run": report.cases_run,
                           "failures": len(report.failures),
                           "ok": report.ok}}
    return jsonl([*report.cases, summary])


def _sample_disc(rng, radius: float) -> complex:
    return complex(radius * math.sqrt(rng.uniform())
                   * cmath.exp(2j * math.pi * rng.uniform()))


def _random_blaschke(rng, degree: int) -> BlaschkeProduct:
    zeros = tuple(_sample_disc(rng, 0.95) for _ in range(degree))
    lam = cmath.exp(2j * math.pi * rng.uniform())
    return BlaschkeProduct(lam=lam, zeros=zeros)


def boundary_mean(f: DiscMapHandle) -> float:
    """Mean of |f| on the circle |z| = INNER_PROBE_RADIUS.

    A diagnostic, not a proof: no finite sampling can certify an a.e.
    radial limit.  Sample angles are offset half a step so the probe never
    sits exactly on a boundary singularity direction.
    """
    theta = 2.0 * math.pi * (np.arange(BOUNDARY_SAMPLES) + 0.5) / BOUNDARY_SAMPLES
    values, _ = f.eval_many(INNER_PROBE_RADIUS * np.exp(1j * theta))
    return float(np.mean(np.abs(values)))


def derivative_grid() -> np.ndarray:
    """Deterministic 10^4-point polar grid; the angle count is kept coarse
    so boundary-contact points of slit-type maps (where f' decays cubically)
    fall midway between spokes instead of on one."""
    radii = (DERIVATIVE_GRID_RADIUS * (np.arange(DERIVATIVE_GRID_RADII) + 0.5)
             / DERIVATIVE_GRID_RADII)
    angles = 2.0 * math.pi * np.arange(DERIVATIVE_GRID_ANGLES) / DERIVATIVE_GRID_ANGLES
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def min_abs_derivative(f: DiscMapHandle) -> float:
    _, derivs = f.eval_many(derivative_grid())
    return float(np.min(np.abs(derivs)))


def _check_sizes(*sizes):
    if min(sizes) <= 0:
        raise ValueError("suite sizes must be positive")


def check_theorem_A(seed: int, n_products: int = 100, n_targets: int = 50) -> SuiteReport:
    """Forward law: a degree-n Blaschke product takes every target in the
    disc exactly n times, by winding count and by direct preimage solving.
    Contrapositive probes: gallery members with non-constant valence.
    """
    _check_sizes(n_products, n_targets)
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_products):
        degree = int(rng.integers(1, 7))
        b = _random_blaschke(rng, degree)
        handle = blaschke_handle(b)
        spec = handle.spec
        for j in range(n_targets):
            w = _sample_disc(rng, 0.9)
            record = {"case": len(cases), "kind": "blaschke-forward",
                      "map": spec, "w": [w.real, w.imag], "degree": degree}
            try:
                report = valence_at(handle, w)
                pre = blaschke_preimages(b, w)
                record.update({
                    "valence": report.value,
                    "stabilized": report.stabilized,
                    "max_residual": max(report.residuals, default=0.0),
                    "preimage_multiplicity": pre.total_multiplicity,
                    "ok": (report.stabilized and report.value == degree
                           and pre.total_multiplicity == degree
                           and all(r < 1e-6 for r in report.residuals)),
                })
            except BlaschkeLabError as err:
                record.update({"ok": False, "error": str(err)})
            cases.append(record)

    half_grid = valence_heatmap(make_half_map(), 32, 0.99)
    counts = sorted(half_grid.counts_present())
    cases.append({"case": len(cases), "kind": "half-heatmap-probe",
                  "map": {"type": "gallery", "name": "half"},
                  "counts": counts, "ok": len(counts) >= 2})

    exp_handle = make_scaled_exponential()
    observed = []
    expected = []
    probe_ok = True
    for w in (1e-10, -1e-10, 0.5):
        report = valence_at(exp_handle, complex(w))
        observed.append(report.value)
        expected.append(len(scaled_exp_preimages(w)))
        probe_ok = probe_ok and report.value == expected[-1]
    cases.append({"case": len(cases), "kind": "scaled-exp-probe",
                  "map": {"type": "gallery", "name": "scaled-exp"},
                  "w": [1e-10, -1e-10, 0.5],
                  "observed": observed, "expected": expected,
                  "ok": probe_ok and len(set(observed)) >= 2})
    return SuiteReport("theorem-a", seed, tuple(cases))


def check_theorem_B(seed: int, n_pairs: int = 50) -> SuiteReport:
    """Composition stays in the class: structural composition is a valid
    Blaschke product, matches pointwise evaluation, and multiplies degrees."""
    _check_sizes(n_pairs)
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_pairs):
        outer = _random_blaschke(rng, int(rng.integers(1, 4)))
        inner = _random_blaschke(rng, int(rng.integers(1, 4)))
        record = {"case": i, "kind": "composition",
                  "outer": blaschke_handle(outer).spec, "inner": blaschke_handle(inner).spec}
        try:
            composed = blaschke_compose(outer, inner)
            probes = [_sample_disc(rng, 0.8) for _ in range(50)]
            worst = 0.0
            for z in probes:
                direct, _ = blaschke_eval(inner, z)
                direct, _ = blaschke_eval(outer, direct)
                through, _ = blaschke_eval(composed, z)
                worst = max(worst, abs(direct - through))
            record.update({
                "degree": composed.degree,
                "unimodular_defect": abs(abs(composed.lam) - 1.0),
                "max_zero_modulus": max((abs(z) for z in composed.zeros), default=0.0),
                "pointwise_error": worst,
                "ok": (composed.degree == outer.degree * inner.degree
                       and abs(abs(composed.lam) - 1.0) <= 1e-12
                       and all(abs(z) < 1.0 for z in composed.zeros)
                       and worst < 1e-8),
            })
        except BlaschkeLabError as err:
            record.update({"ok": False, "error": str(err)})
        cases.append(record)
    return SuiteReport("theorem-b", seed, tuple(cases))


def check_theorem_C(seed: int, n_products: int = 50, n_mobius: int = 20) -> SuiteReport:
    """Critical census: degree n >= 2 forces exactly n-1 interior critical
    points (so a nowhere-critical member must have degree 1); degree 1
    members have an empty census and are recoverable automorphisms."""
    _check_sizes(n_products, n_mobius)
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_products):
        degree = int(rng.integers(2, 7))
        b = _random_blaschke(rng, degree)
        record = {"case": i, "kind": "critical-census", "map": blaschke_handle(b).spec,
                  "degree": degree}
        try:
            census = blaschke_critical_points(b)
            record.update({
                "census": census.total_multiplicity,
                "ok": (census.total_multiplicity == degree - 1
                       and census.distinct_count > 0),
            })
        except BlaschkeLabError as err:
            record.update({"ok": False, "error": str(err)})
        cases.append(record)
    for i in range(n_mobius):
        alpha = _sample_disc(rng, 0.95)
        lam = cmath.exp(2j * math.pi * rng.uniform())
        handle = mobius_handle(MobiusAutomorphism(alpha=alpha, lam=lam))
        record = {"case": n_products + i, "kind": "automorphism-recovery",
                  "map": handle.spec}
        try:
            census = blaschke_critical_points(handle.blaschke)
            recovered, sup_error = mobius_recover(handle)
            record.update({
                "census": census.total_multiplicity,
                "sup_error": sup_error,
                "alpha_error": abs(recovered.alpha - alpha),
                "ok": census.total_multiplicity == 0 and sup_error < 1e-8,
            })
        except BlaschkeLabError as err:
            record.update({"ok": False, "error": str(err)})
        cases.append(record)
    return SuiteReport("theorem-c", seed, tuple(cases))


# the verdicts of the certification pipeline, the pass first
VERDICTS = ("automorphism", "not-inner", "valence-unbounded", "vanishing-derivative",
            "not-an-automorphism")


@dataclass(frozen=True)
class PipelineVerdict:
    """Outcome of the inner-automorphism certification pipeline."""

    verdict: str                  # one of VERDICTS
    boundary_mean: float
    sup_error: float | None = None
    profile: tuple | None = None  # ((r, count), ...) at the diagnostic radii
    detail: str = ""


def _check_valence_bound(valence_bound):
    if valence_bound < 1:
        raise ValueError(f"valence bound must be at least 1, got {valence_bound}")


def check_theorem_3_1(candidate: DiscMapHandle, valence_bound: int = 1) -> PipelineVerdict:
    """Certification pipeline: boundary-modulus diagnostic, the handle's own
    ``inner`` flag, bounded valence, nowhere-vanishing derivative, then
    automorphism recovery.

    Each stage failure is a distinct verdict, never an exception.  The
    valence stage attaches a growth profile at the radii (0.9, 0.99, 0.999)
    for the probe target f(0) when it fails.  The derivative stage names a
    critical point of a candidate that carries a Blaschke product of degree
    n >= 2, which has n - 1 of them; otherwise, or when that census fails,
    it samples |f'| on a grid.  A bound below 1, which no non-constant map
    meets, raises ValueError before any stage runs.
    """
    _check_valence_bound(valence_bound)
    mean = boundary_mean(candidate)
    if mean <= INNER_MEAN_THRESHOLD:
        return PipelineVerdict(
            verdict="not-inner", boundary_mean=mean,
            detail=f"mean boundary modulus {mean:.4f} <= {INNER_MEAN_THRESHOLD}")
    if candidate.inner is False:
        return PipelineVerdict(
            verdict="not-inner", boundary_mean=mean,
            detail=f"{candidate.descriptor} is not inner by construction, "
                   f"though its mean boundary modulus is {mean:.4f}")

    for w in sunflower_grid(100, 0.9):
        try:
            report = valence_at(candidate, complex(w))
        except BlaschkeLabError as err:
            return PipelineVerdict(
                verdict="valence-unbounded", boundary_mean=mean,
                detail=f"valence scan failed at w={w:.4f}: {err}")
        if not report.stabilized or report.value > valence_bound:
            probe, _ = candidate.eval(0.0)
            profile = tuple(valence_profile(candidate, probe, (0.9, 0.99, 0.999)))
            return PipelineVerdict(
                verdict="valence-unbounded", boundary_mean=mean,
                profile=profile,
                detail=(f"valence at w={w:.4f} "
                        + ("did not stabilize" if not report.stabilized
                           else f"is {report.value} > bound {valence_bound}")))

    b = candidate.blaschke
    if b is not None and b.degree >= 2:
        try:
            c = blaschke_critical_points(b).roots[0]
        except BlaschkeLabError:
            pass
        else:
            _, deriv = candidate.eval(c)
            return PipelineVerdict(
                verdict="vanishing-derivative", boundary_mean=mean,
                detail=(f"f' vanishes at the critical point {c.real:.6f}{c.imag:+.6f}i, "
                        f"where |f'| = {abs(deriv):.1e}"))
    floor = min_abs_derivative(candidate)
    if floor <= DERIVATIVE_FLOOR:
        return PipelineVerdict(
            verdict="vanishing-derivative", boundary_mean=mean,
            detail=f"min |f'| on the probe grid is {floor:.3e}")

    try:
        _, sup_error = mobius_recover(candidate)
    except NotAnAutomorphismError as err:
        return PipelineVerdict(
            verdict="not-an-automorphism", boundary_mean=mean,
            detail=str(err))
    return PipelineVerdict(verdict="automorphism", boundary_mean=mean,
                           sup_error=sup_error)


def check_theorem_3_2(k: int = 2, seed: int = 0, n_membership: int = 10000,
                      n_valence: int = 100) -> SuiteReport:
    """The slit-power map is neither injective nor surjective, misses only
    a null set, and has nowhere-vanishing derivative and valence <= k.
    ``make_slit_power`` checks k before any case runs."""
    rng = np.random.default_rng(seed)
    f = make_slit_power(k)
    cases = []

    r = 0.99 * np.sqrt(rng.uniform(0, 1, 1000))
    th = rng.uniform(0, 2 * math.pi, 1000)
    u = r * np.exp(1j * th)
    # Python's abs, not np.abs: their complex moduli differ in the last bit
    worst = max(abs(e) for e in (_slit_h_vec(_slit_g_vec(u)[0]) - u).tolist())
    cases.append({"case": 0, "kind": "roundtrip", "samples": 1000,
                  "max_error": worst, "ok": bool(worst < 1e-9)})

    if k == 2:
        u1, u2 = slit_collision_pair()
    else:
        rng_w = np.random.default_rng(seed + 1)
        u1, u2 = power_preimages(_sample_disc(rng_w, 0.5), k)[:2]
    v1, _ = f.eval(u1)
    v2, _ = f.eval(u2)
    cases.append({"case": 1, "kind": "non-injectivity",
                  "u1": [u1.real, u1.imag], "u2": [u2.real, u2.imag],
                  "separation": abs(u1 - u2), "image_distance": abs(v1 - v2),
                  "ok": abs(u1 - u2) > 0.1 and abs(v1 - v2) < 1e-9})

    record = {"case": 2, "kind": "omits-zero"}
    try:
        profile = valence_profile(f, 0.0, default_schedule())
        record.update({"counts": [c for _, c in profile],
                       "ok": all(c == 0 for _, c in profile)})
    except BlaschkeLabError as err:
        record.update({"ok": False, "error": str(err)})
    cases.append(record)

    radii = np.sqrt(rng.uniform(0, 1, n_membership))
    angles = rng.uniform(0, 2 * math.pi, n_membership)
    w = 0.999 * radii * np.exp(1j * angles)
    w = w[np.abs(w) > 0]
    kth = np.abs(w) ** (1.0 / k) * np.exp(1j * np.angle(w) / k)
    membership_err = 0.0
    covered = np.zeros(len(w), dtype=bool)
    for j in range(k):
        zeta = kth * np.exp(2j * math.pi * j / k)
        mask = ~((zeta.imag == 0) & (zeta.real >= 0))
        if not mask.any():
            continue
        pre = _slit_h_vec(zeta[mask])
        values, _ = f.eval_many(pre)
        membership_err = max(membership_err, float(np.max(np.abs(values - w[mask]))))
        covered |= mask
    cases.append({"case": 3, "kind": "membership", "samples": int(len(w)),
                  "all_covered": bool(covered.all()), "max_error": membership_err,
                  "ok": bool(covered.all()) and membership_err < 1e-8})

    # |f'| ~ |u + i|^{2k-1} near the slit-tip boundary preimage, so the
    # positivity floor must shrink with k; the exponent keeps k=2 at 1e-6.
    floor_k = DERIVATIVE_FLOOR ** ((2 * k - 1) / 3.0)
    floor = min_abs_derivative(f)
    cases.append({"case": 4, "kind": "derivative-floor", "min_abs": floor,
                  "floor": floor_k, "ok": floor > floor_k})

    record = {"case": 5, "kind": "valence-bound", "samples": n_valence}
    try:
        values = [valence_at(f, _sample_disc(rng, 0.9)).value for _ in range(n_valence)]
        record.update({"max_valence": max(values, default=0),
                       "ok": all(v <= k for v in values)})
    except BlaschkeLabError as err:
        record.update({"ok": False, "error": str(err)})
    cases.append(record)

    return SuiteReport("theorem-3-2", seed, tuple(cases))


def _check_demo_target(w):
    if abs(w) >= 0.5:
        raise ValueError("demo target must satisfy |w| < 0.5")


def demo_hurwitz_escape(n_list=(2, 10, 100), w: complex = 0.1):
    """Valence table of the escape family at w versus its pointwise limit.

    Every member keeps valence 2 (the second preimage drifts to the
    boundary) while the limit map -z has valence 1: locally uniform
    convergence alone does not transfer valence counts.
    """
    _check_demo_target(w)
    rows = []
    for n in n_list:
        handle = make_escape_sequence(int(n))
        report = valence_at(handle, w)
        rows.append((int(n), report.value))
    limit_report = valence_at(make_limit_of_escape(), w)
    return rows, limit_report.value


def hurwitz_table_csv(rows, limit_value: int) -> str:
    lines = ["n,valence", *(f"{n},{value}" for n, value in rows), f"limit,{limit_value}"]
    return "\n".join(lines) + "\n"
