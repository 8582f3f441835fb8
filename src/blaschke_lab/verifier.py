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
    _check_power_exponent,
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
from .valence import (DerivativeView, _scan, _unwrap, default_schedule, valence_at,
                      valence_heatmap, valence_profile)

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


def _disc_samples(rng, n: int, radius: float) -> np.ndarray:
    radii = radius * np.sqrt(rng.uniform(0, 1, n))
    return radii * np.exp(1j * rng.uniform(0, 2 * math.pi, n))


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


def _check_sizes(*sizes):
    if min(sizes) <= 0:
        raise ValueError("suite sizes must be positive")


def _case(cases, record, compute, *args):
    """Append ``record`` as case ``len(cases)`` with the fields ``compute(*args)``
    returns, or as a failure that carries the BlaschkeLabError it raises."""
    try:
        fields = compute(*args)
    except BlaschkeLabError as err:
        fields = {"ok": False, "error": str(err)}
    cases.append({"case": len(cases), **record, **fields})


def _forward(handle, w, degree):
    report = valence_at(handle, w)
    pre = blaschke_preimages(handle.blaschke, w)
    return {"valence": report.value,
            "stabilized": report.stabilized,
            "max_residual": max(report.residuals, default=0.0),
            "preimage_multiplicity": pre.total_multiplicity,
            "ok": (report.stabilized and report.value == degree
                   and pre.total_multiplicity == degree
                   and all(r < 1e-6 for r in report.residuals))}


def _half_probe():
    counts = sorted(valence_heatmap(make_half_map(), 32, 0.99).counts_present())
    return {"counts": counts, "ok": len(counts) >= 2}


def _scaled_exp_probe(ws):
    f = make_scaled_exponential()
    observed = [valence_at(f, complex(w)).value for w in ws]
    expected = [len(scaled_exp_preimages(w)) for w in ws]
    return {"observed": observed, "expected": expected,
            "ok": observed == expected and len(set(observed)) >= 2}


def check_theorem_A(seed: int, n_products: int = 100, n_targets: int = 50) -> SuiteReport:
    """Forward law: a degree-n Blaschke product takes every target in the
    disc exactly n times, by winding count and by direct preimage solving.
    Contrapositive probes: gallery members with non-constant valence.
    """
    _check_sizes(n_products, n_targets)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_products):
        degree = int(rng.integers(1, 7))
        handle = blaschke_handle(_random_blaschke(rng, degree))
        for _ in range(n_targets):
            w = _sample_disc(rng, 0.9)
            _case(cases, {"kind": "blaschke-forward", "map": handle.spec,
                          "w": [w.real, w.imag], "degree": degree},
                  _forward, handle, w, degree)

    _case(cases, {"kind": "half-heatmap-probe", "map": {"type": "gallery", "name": "half"}},
          _half_probe)
    ws = [1e-10, -1e-10, 0.5]
    _case(cases, {"kind": "scaled-exp-probe", "map": {"type": "gallery", "name": "scaled-exp"},
                  "w": ws}, _scaled_exp_probe, ws)
    return SuiteReport("theorem-a", seed, tuple(cases))


def _composition(outer, inner, probes):
    composed = blaschke_compose(outer, inner)
    worst = 0.0
    for z in probes:
        direct, _ = blaschke_eval(inner, z)
        direct, _ = blaschke_eval(outer, direct)
        through, _ = blaschke_eval(composed, z)
        worst = max(worst, abs(direct - through))
    return {"degree": composed.degree,
            "unimodular_defect": abs(abs(composed.lam) - 1.0),
            "max_zero_modulus": max((abs(z) for z in composed.zeros), default=0.0),
            "pointwise_error": worst,
            "ok": (composed.degree == outer.degree * inner.degree
                   and abs(abs(composed.lam) - 1.0) <= 1e-12
                   and all(abs(z) < 1.0 for z in composed.zeros)
                   and worst < 1e-8)}


def check_theorem_B(seed: int, n_pairs: int = 50) -> SuiteReport:
    """Composition stays in the class: structural composition is a valid
    Blaschke product, matches pointwise evaluation, and multiplies degrees."""
    _check_sizes(n_pairs)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_pairs):
        outer = _random_blaschke(rng, int(rng.integers(1, 4)))
        inner = _random_blaschke(rng, int(rng.integers(1, 4)))
        # drawn before composing, so a failing case moves no later case's inputs
        probes = [_sample_disc(rng, 0.8) for _ in range(50)]
        _case(cases, {"kind": "composition", "outer": blaschke_handle(outer).spec,
                      "inner": blaschke_handle(inner).spec},
              _composition, outer, inner, probes)
    return SuiteReport("theorem-b", seed, tuple(cases))


def _census(b):
    census = blaschke_critical_points(b)
    return {"census": census.total_multiplicity,
            "ok": census.total_multiplicity == b.degree - 1 and census.distinct_count > 0}


def _recovery(handle, alpha):
    census = blaschke_critical_points(handle.blaschke)
    recovered, sup_error = mobius_recover(handle)
    return {"census": census.total_multiplicity,
            "sup_error": sup_error,
            "alpha_error": abs(recovered.alpha - alpha),
            "ok": census.total_multiplicity == 0 and sup_error < 1e-8}


def check_theorem_C(seed: int, n_products: int = 50, n_mobius: int = 20) -> SuiteReport:
    """Critical census: degree n >= 2 forces exactly n-1 interior critical
    points (so a nowhere-critical member must have degree 1); degree 1
    members have an empty census and are recoverable automorphisms."""
    _check_sizes(n_products, n_mobius)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_products):
        degree = int(rng.integers(2, 7))
        b = _random_blaschke(rng, degree)
        _case(cases, {"kind": "critical-census", "map": blaschke_handle(b).spec,
                      "degree": degree}, _census, b)
    for _ in range(n_mobius):
        alpha = _sample_disc(rng, 0.95)
        lam = cmath.exp(2j * math.pi * rng.uniform())
        handle = mobius_handle(MobiusAutomorphism(alpha=alpha, lam=lam))
        _case(cases, {"kind": "automorphism-recovery", "map": handle.spec},
              _recovery, handle, alpha)
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
    ``not_inner`` bit, bounded valence, nowhere-vanishing derivative, then
    automorphism recovery.

    Each stage failure is a distinct verdict, never an exception.  A map
    whose ``not_inner`` bit is set gets ``not-inner`` whatever its mean.  The
    valence stage attaches a growth profile at the radii (0.9, 0.99, 0.999)
    for the probe target f(0) when it fails.  For every candidate the
    derivative stage counts the zeros of f' inside the largest radius the
    scan reached, by the winding of f' about 0: a count of 1 or more, or one
    that fails, gives ``vanishing-derivative``.  A bound below 1, which no
    non-constant map meets, raises ValueError before any stage runs.
    """
    _check_valence_bound(valence_bound)
    mean = boundary_mean(candidate)
    if mean <= INNER_MEAN_THRESHOLD:
        return PipelineVerdict(
            verdict="not-inner", boundary_mean=mean,
            detail=f"mean boundary modulus {mean:.4f} <= {INNER_MEAN_THRESHOLD}")
    if candidate.not_inner:
        return PipelineVerdict(
            verdict="not-inner", boundary_mean=mean,
            detail=f"{candidate.descriptor} is not inner by construction, "
                   f"though its mean boundary modulus is {mean:.4f}")

    # the first failing target decides; _scan computes none past its chunk
    reached = 0.0
    for w, outcome in _scan(candidate, list(sunflower_grid(100, 0.9))):
        if isinstance(outcome, BlaschkeLabError):
            return PipelineVerdict(
                verdict="valence-unbounded", boundary_mean=mean,
                detail=f"valence scan failed at w={w:.4f}: {outcome}")
        report = _unwrap(outcome)
        if not report.stabilized or report.value > valence_bound:
            probe, _ = candidate.eval(0.0)
            profile = tuple(valence_profile(candidate, probe, (0.9, 0.99, 0.999)))
            return PipelineVerdict(
                verdict="valence-unbounded", boundary_mean=mean,
                profile=profile,
                detail=(f"valence at w={w:.4f} "
                        + ("did not stabilize" if not report.stabilized
                           else f"is {report.value} > bound {valence_bound}")))
        reached = max(reached, report.radii[-1])

    # the winding of f' about 0 on |z| = r counts the critical points inside r
    view = DerivativeView(candidate, 1e-4 * (1.0 - reached))
    try:
        (r, zeros), = valence_profile(view, 0.0, (reached,))
    except BlaschkeLabError as err:
        return PipelineVerdict(
            verdict="vanishing-derivative", boundary_mean=mean,
            detail=f"counting the zeros of f' in |z| < {reached:.12g} failed: {err}")
    if zeros:
        return PipelineVerdict(verdict="vanishing-derivative", boundary_mean=mean,
                               detail=f"f' has {zeros} zeros in |z| < {r:.12g}")

    try:
        _, sup_error = mobius_recover(candidate)
    except NotAnAutomorphismError as err:
        return PipelineVerdict(
            verdict="not-an-automorphism", boundary_mean=mean,
            detail=str(err))
    return PipelineVerdict(verdict="automorphism", boundary_mean=mean,
                           sup_error=sup_error)


def _roundtrip(u):
    # Python's abs, not np.abs: their complex moduli differ in the last bit
    worst = max(abs(e) for e in (_slit_h_vec(_slit_g_vec(u)[0]) - u).tolist())
    return {"max_error": worst, "ok": bool(worst < 1e-9)}


def _non_injectivity(f, k, w):
    u1, u2 = slit_collision_pair() if k == 2 else power_preimages(w, k)[:2]
    v1, _ = f.eval(u1)
    v2, _ = f.eval(u2)
    return {"u1": [u1.real, u1.imag], "u2": [u2.real, u2.imag],
            "separation": abs(u1 - u2), "image_distance": abs(v1 - v2),
            "ok": abs(u1 - u2) > 0.1 and abs(v1 - v2) < 1e-9}


def _omits_zero(f):
    profile = valence_profile(f, 0.0, default_schedule())
    return {"counts": [c for _, c in profile], "ok": all(c == 0 for _, c in profile)}


def _membership(f, w, k):
    kth = np.abs(w) ** (1.0 / k) * np.exp(1j * np.angle(w) / k)
    worst = 0.0
    covered = np.zeros(len(w), dtype=bool)
    for j in range(k):
        zeta = kth * np.exp(2j * math.pi * j / k)
        mask = ~((zeta.imag == 0) & (zeta.real >= 0))  # the slit has no preimage
        if mask.any():
            values, _ = f.eval_many(_slit_h_vec(zeta[mask]))
            worst = max(worst, float(np.max(np.abs(values - w[mask]))))
            covered |= mask
    return {"all_covered": bool(covered.all()), "max_error": worst,
            "ok": bool(covered.all()) and worst < 1e-8}


def _derivative_floor(f, floor_k):
    # a fixed 10^4-point polar grid; its angle count is coarse so that boundary
    # contacts of slit-type maps (f' decays cubically there) fall between spokes
    radii = (DERIVATIVE_GRID_RADIUS * (np.arange(DERIVATIVE_GRID_RADII) + 0.5)
             / DERIVATIVE_GRID_RADII)
    angles = 2.0 * math.pi * np.arange(DERIVATIVE_GRID_ANGLES) / DERIVATIVE_GRID_ANGLES
    _, derivs = f.eval_many((radii[:, None] * np.exp(1j * angles[None, :])).ravel())
    floor = float(np.min(np.abs(derivs)))
    return {"min_abs": floor, "ok": floor > floor_k}


def _bounded_valence(f, ws, k):
    top = max(_unwrap(outcome).value for _, outcome in _scan(f, ws))
    return {"max_valence": top, "ok": top <= k}


def check_theorem_3_2(k: int = 2, seed: int = 0, n_membership: int = 10000,
                      n_valence: int = 100) -> SuiteReport:
    """The slit-power map is neither injective nor surjective, misses only
    a null set, and has nowhere-vanishing derivative and valence <= k.
    The exponent and the sample sizes are checked before any case runs."""
    _check_power_exponent(k)
    _check_sizes(n_membership, n_valence)
    k = int(k)
    rng = np.random.default_rng(seed)
    f = make_slit_power(k)
    cases = []

    _case(cases, {"kind": "roundtrip", "samples": 1000}, _roundtrip,
          _disc_samples(rng, 1000, 0.99))

    # k = 2 has a fixed collision pair; other exponents take two roots of a seeded target
    _case(cases, {"kind": "non-injectivity"}, _non_injectivity, f, k,
          _sample_disc(np.random.default_rng(seed + 1), 0.5))

    _case(cases, {"kind": "omits-zero"}, _omits_zero, f)

    w = _disc_samples(rng, n_membership, 0.999)
    w = w[np.abs(w) > 0]
    _case(cases, {"kind": "membership", "samples": int(len(w))}, _membership, f, w, k)

    # |f'| ~ |u + i|^{2k-1} near the slit-tip boundary preimage, so the
    # positivity floor must shrink with k; the exponent keeps k=2 at 1e-6.
    floor_k = DERIVATIVE_FLOOR ** ((2 * k - 1) / 3.0)
    _case(cases, {"kind": "derivative-floor", "floor": floor_k}, _derivative_floor, f, floor_k)

    ws = [_sample_disc(rng, 0.9) for _ in range(n_valence)]
    _case(cases, {"kind": "valence-bound", "samples": n_valence}, _bounded_valence, f, ws, k)

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
