"""The four benchmark workloads: seeded inputs, public calls and oracles.

Every op is one public call into blaschke_lab: ``cli.main(argv)`` with
stdout captured, or one solver in ``blaschke_lab.maps``.  A builder
returns the ops of one pass; its inputs come from (seed, pass index), so
no input repeats from pass to pass and a cache across calls gains only
where real traffic would repeat itself.  Modules are
looked up at call time, so the tracer's wrappers are the ones called.
Each op returns an Outcome; its check returns a Verdict counting the
items it judged (cases, cells or calls), the items that failed (raised,
unresolved, or wrong) and the items that were wrong (disagreed with an
oracle or returned the wrong exit code).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

THEOREM_A = {"cases": 60, "targets": 10}
HEATMAP = {"resolution": 40, "square_radius": 0.99, "gallery_radius": 0.999,
           "radius_jitter": 1e-4}
SOLVERS = {"preimages": 420, "preimage_degree": (2, 12),
           "critical": 280, "critical_degree": (2, 6),
           "compose": 100, "compose_degree": (2, 8),
           "recover": 200, "mp_every": 50,
           "census_degrees": (7, 32), "census_per_degree": 3}
GALLERY = {"mobius_candidates": 2, "mobius_alpha_modulus": 0.6, "k_values": (2,),
           "hurwitz_targets": 1, "scaled_exp_targets": 8, "atomic_targets": 8,
           "atomic_schedule": (0.9, 0.99, 0.999)}

SIZES = {"theorem-a": THEOREM_A, "heatmap": HEATMAP, "solvers": SOLVERS,
         "gallery-suites": GALLERY}


@dataclass
class Outcome:
    output: str              # stdout of a CLI call, canonical rendering of a solver result
    exit_code: int | None    # None for solver calls
    error: str | None        # class of an exception that escaped the public call
    value: object = None


@dataclass
class Verdict:
    items: int
    failed: int
    wrong: int


@dataclass
class Op:
    key: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Verdict]


# --- calling the program ----------------------------------------------------

def cli_op(key: str, argv: list, check) -> Op:
    def run() -> Outcome:
        from blaschke_lab import cli
        out, err = io.StringIO(), io.StringIO()
        error, code = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed op, not a crash
                error = type(exc).__name__
        return Outcome(out.getvalue(), code, error)

    return Op(key, run, check)


def solver_op(key: str, call: Callable, render: Callable, check) -> Op:
    def run() -> Outcome:
        try:
            value = call()
        except Exception as exc:  # typed or not, a raised call is a failed op
            return Outcome(f"{type(exc).__name__}: {exc}", None, type(exc).__name__)
        return Outcome(render(value), None, None, value)

    return Op(key, run, check)


def _sample_disc(rng, radius: float) -> complex:
    return complex(radius * math.sqrt(rng.uniform())
                   * cmath.exp(2j * math.pi * rng.uniform()))


def _unimodular(rng) -> complex:
    return cmath.exp(2j * math.pi * rng.uniform())


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _cplx(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


# --- theorem-a --------------------------------------------------------------

def _theorem_a_check(o: Outcome) -> Verdict:
    if o.error is not None:
        return Verdict(1, 1, 0)
    items = failed = wrong = 0
    lines = o.output.splitlines()
    for line in lines[:-1]:
        case = json.loads(line)
        items += 1
        kind = case.get("kind")
        if kind == "blaschke-forward":
            if "error" in case:
                failed += 1
                continue
            degree = len(case["map"]["zeros"])
            bad = case["valence"] != degree or case["preimage_multiplicity"] != degree
        elif kind == "half-heatmap-probe":
            bad = case["counts"] != [0, 1]       # z/2 takes |w| < r/2 once, misses the rest
        elif kind == "scaled-exp-probe":
            expected = [oracles.scaled_exp_count(w, 1.0) for w in case["w"]]
            bad = case["observed"] != expected
        else:
            bad = True
        failed += bad
        wrong += bad
    summary = json.loads(lines[-1]).get("summary", {}) if lines else {}
    bad_exit = int(o.exit_code != 0 or summary.get("failures") != 0)
    return Verdict(max(items, 1), max(failed, bad_exit), max(wrong, bad_exit))


def _pass_seed(seed: int, pass_index: int) -> int:
    return int(np.random.default_rng([seed, pass_index]).integers(2**31))


def build_theorem_a(seed: int, pass_index: int) -> list:
    """One suite invocation per pass: many random products, so the suite's
    fixed probes (the 32x32 half-map grid, the scaled-exp targets) stay a
    small share of the contours."""
    argv = ["verify", "theorem-a", "--seed", str(_pass_seed(seed, pass_index)),
            "--cases", str(THEOREM_A["cases"]), "--targets", str(THEOREM_A["targets"])]
    return [cli_op("theorem-a", argv, _theorem_a_check)]


# --- heatmap ----------------------------------------------------------------

def _heatmap_check(count_at, radius: float):
    margin = radius - 1e-3

    def check(o: Outcome) -> Verdict:
        if o.error is not None or o.exit_code != 0:
            return Verdict(1, 1, int(o.error is None))
        rows = o.output.splitlines()[1:]
        items = failed = wrong = 0
        if len(rows) != HEATMAP["resolution"] ** 2:
            return Verdict(1, 1, 1)
        for row in rows:
            x, y, count = row.split(",")
            w = complex(float(x), float(y))
            count = int(count)
            if abs(w) >= margin:
                bad = count != -1
                items += bad
                failed += bad
                wrong += bad
                continue
            items += 1
            if count == -2:
                failed += 1
                continue
            lo, hi = oracles.jitter_window(lambda rho: count_at(w, rho), radius)
            if not lo <= count <= hi:
                failed += 1
                wrong += 1
        return Verdict(items, failed, wrong)

    return check


def build_heatmap(seed: int, pass_index: int) -> list:
    """The gallery maps have no parameters; a radius jittered per pass
    moves every cell's contour, so no (map, cell, radius) repeats."""
    rng = np.random.default_rng([seed, pass_index])
    lam = _unimodular(rng)
    square = json.dumps({"type": "blaschke", "lambda": _pair(lam), "zeros": [[0, 0], [0, 0]]})
    r_sq, r_gal = (r - HEATMAP["radius_jitter"] * rng.uniform()
                   for r in (HEATMAP["square_radius"], HEATMAP["gallery_radius"]))
    maps = [("square", square, r_sq, oracles.square_count),
            ("slit-power", "slit-power", r_gal, oracles.slit_square_count),
            ("atomic-inner", "atomic-inner", r_gal, oracles.atomic_inner_count)]
    ops = []
    for i in rng.permutation(len(maps)):
        key, spec, radius, count_at = maps[i]
        argv = ["heatmap", "--map", spec, "--resolution", str(HEATMAP["resolution"]),
                "--radius", repr(radius)]
        ops.append(cli_op(f"heatmap-{key}", argv, _heatmap_check(count_at, radius)))
    return ops


# --- solvers ----------------------------------------------------------------

def _random_product(rng, degree: int):
    from blaschke_lab import maps
    zeros = tuple(_sample_disc(rng, 0.95) for _ in range(degree))
    return maps.BlaschkeProduct(lam=_unimodular(rng), zeros=zeros)


def _render_rootset(rs) -> str:
    return repr(tuple(zip(rs.roots, rs.multiplicities)))


def _solver_failed(o: Outcome):
    return Verdict(1, 1, 0) if o.error is not None else None


def _preimage_check(b, w, spot: bool):
    def check(o: Outcome) -> Verdict:
        early = _solver_failed(o)
        if early:
            return early
        rs = o.value
        ok = (rs.total_multiplicity == b.degree
              and all(abs(r) < 1.0 for r in rs.roots)
              and all(abs(oracles.blaschke_value(b.lam, b.zeros, r) - w) <= 1e-8
                      for r in rs.roots))
        if ok and spot:
            ok = oracles.mp_check_preimages(b.lam, b.zeros, w, rs.roots, rs.multiplicities)
        return Verdict(1, int(not ok), int(not ok))
    return check


def _critical_check(b, spot: bool):
    def check(o: Outcome) -> Verdict:
        early = _solver_failed(o)
        if early:
            return early
        rs = o.value
        ok = (rs.total_multiplicity == b.degree - 1
              and all(abs(c) < 1.0 for c in rs.roots)
              and all(oracles.secular_residual(b.zeros, c) <= 1e-6 for c in rs.roots))
        if ok and spot:
            ok = oracles.mp_check_critical(b.zeros, rs.roots, rs.multiplicities)
        return Verdict(1, int(not ok), int(not ok))
    return check


def _compose_check(outer, inner, probes):
    def check(o: Outcome) -> Verdict:
        early = _solver_failed(o)
        if early:
            return early
        c = o.value
        ok = (c.degree == outer.degree * inner.degree
              and abs(abs(c.lam) - 1.0) <= 1e-12
              and all(abs(z) < 1.0 for z in c.zeros))
        for z in probes if ok else ():
            direct = oracles.blaschke_value(
                outer.lam, outer.zeros, oracles.blaschke_value(inner.lam, inner.zeros, z))
            ok = ok and abs(direct - oracles.blaschke_value(c.lam, c.zeros, z)) <= 1e-8
        return Verdict(1, int(not ok), int(not ok))
    return check


def _recover_check(alpha, lam):
    def check(o: Outcome) -> Verdict:
        early = _solver_failed(o)
        if early:
            return early
        m, sup_error = o.value
        ok = abs(m.alpha - alpha) <= 1e-8 and abs(m.lam - lam) <= 1e-8 and sup_error <= 1e-8
        return Verdict(1, int(not ok), int(not ok))
    return check


def _preimage_op(key, b, w, spot):
    def call():
        from blaschke_lab import maps
        return maps.blaschke_preimages(b, w)
    return solver_op(key, call, _render_rootset, _preimage_check(b, w, spot))


def _critical_op(key, b, spot):
    def call():
        from blaschke_lab import maps
        return maps.blaschke_critical_points(b)
    return solver_op(key, call, _render_rootset, _critical_check(b, spot))


def _cycled(degrees, i: int) -> int:
    """Degrees are cycled, not drawn, so every seed times the same degree mix."""
    lo, hi = degrees
    return lo + i % (hi - lo + 1)


def build_solvers(seed: int, pass_index: int) -> list:
    from blaschke_lab import maps
    rng = np.random.default_rng([seed, pass_index])
    s = SOLVERS
    ops = []
    for i in range(s["preimages"]):
        b = _random_product(rng, _cycled(s["preimage_degree"], i))
        w = _sample_disc(rng, 0.9)
        ops.append(_preimage_op(f"preimages-{i}", b, w, i % s["mp_every"] == 0))
    for i in range(s["critical"]):
        b = _random_product(rng, _cycled(s["critical_degree"], i))
        ops.append(_critical_op(f"critical-{i}", b, i % s["mp_every"] == 0))
    lo, hi = s["compose_degree"]
    for i in range(s["compose"]):
        outer = _random_product(rng, _cycled(s["compose_degree"], i))
        inner = _random_product(rng, _cycled(s["compose_degree"], i // (hi - lo + 1)))
        probes = [_sample_disc(rng, 0.8) for _ in range(3)]

        def call(outer=outer, inner=inner):
            from blaschke_lab import maps as m
            return m.blaschke_compose(outer, inner)

        ops.append(solver_op(f"compose-{i}", call,
                             lambda c: repr((c.lam, c.zeros)),
                             _compose_check(outer, inner, probes)))
    for i in range(s["recover"]):
        alpha, lam = _sample_disc(rng, 0.95), _unimodular(rng)
        handle = maps.opaque(maps.mobius_handle(maps.MobiusAutomorphism(alpha=alpha, lam=lam)))

        def call(handle=handle):
            from blaschke_lab import maps as m
            return m.mobius_recover(handle)

        ops.append(solver_op(f"recover-{i}", call,
                             lambda r: repr((r[0].alpha, r[0].lam, r[1])),
                             _recover_check(alpha, lam)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build_census(seed: int) -> list:
    """Preimage and critical-point calls above the workload's degrees, where
    the solvers are known to raise or lose accuracy; traced runs report
    their failure share per solver."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = SOLVERS["census_degrees"]
    ops = []
    for degree in range(lo, hi + 1):
        for j in range(SOLVERS["census_per_degree"]):
            b = _random_product(rng, degree)
            w = _sample_disc(rng, 0.9)
            ops.append(_preimage_op(f"census-preimages-{degree}-{j}", b, w, False))
            ops.append(_critical_op(f"census-critical-{degree}-{j}", b, False))
    return ops


# --- gallery-suites ---------------------------------------------------------

def _summary_check(o: Outcome) -> Verdict:
    if o.error is not None:
        return Verdict(1, 1, 0)
    lines = o.output.splitlines()
    summary = json.loads(lines[-1]).get("summary", {}) if lines else {}
    bad = int(o.exit_code != 0 or summary.get("ok") is not True)
    return Verdict(1, bad, bad)


def _hurwitz_check(o: Outcome) -> Verdict:
    """Each escape-family member is a degree-2 Blaschke product, so it takes
    every target twice; the limit map -z takes it once."""
    if o.error is not None:
        return Verdict(1, 1, 0)
    rows = [line.split(",") for line in o.output.splitlines()[1:]]
    ok = (o.exit_code == 0 and rows and rows[-1] == ["limit", "1"]
          and all(v == "2" for _, v in rows[:-1]))
    return Verdict(1, int(not ok), int(not ok))


def _valence_check(count_at):
    """Every per-radius count printed by ``valence`` against the closed form
    at that radius (printed to 12 digits, hence the small window)."""
    def check(o: Outcome) -> Verdict:
        if o.error is not None:
            return Verdict(1, 1, 0)
        ok = o.exit_code == 0
        seen = 0
        for line in o.output.splitlines():
            if not line.startswith("r="):
                continue
            r_text, count_text = line.split()[:2]
            r = float(r_text[2:])
            count = int(count_text.split("=")[1])
            ok = ok and count_at(r - 1e-11) <= count <= count_at(r + 1e-11)
            seen += 1
        ok = ok and seen > 0
        return Verdict(1, int(not ok), int(not ok))
    return check


def build_gallery(seed: int, pass_index: int) -> list:
    """The seeded ops draw new inputs each pass; the parameterless calls
    (theorem-3-1 on atomic-inner and slit-power, the default hurwitz-demo,
    scaled-exp at +-1e-10, atomic-inner at 1/e) are the same in every pass."""
    rng = np.random.default_rng([seed, pass_index])
    g = GALLERY
    ops = [cli_op("3-1-atomic-inner", ["verify", "theorem-3-1", "--candidate", "atomic-inner"],
                  _summary_check),
           cli_op("3-1-slit-power", ["verify", "theorem-3-1", "--candidate", "slit-power"],
                  _summary_check)]
    # The pipeline's cost grows with |alpha| (about 2.5x from 0.1 to 0.9),
    # so only the angle of alpha is drawn.
    for i in range(g["mobius_candidates"]):
        alpha = g["mobius_alpha_modulus"] * _unimodular(rng)
        spec = json.dumps({"type": "mobius", "alpha": _pair(alpha),
                           "lambda": _pair(_unimodular(rng))})
        ops.append(cli_op(f"3-1-mobius-{i}", ["verify", "theorem-3-1", "--candidate", spec],
                          _summary_check))
    for k in g["k_values"]:
        ops.append(cli_op(f"3-2-k{k}", ["verify", "theorem-3-2", "--k", str(k),
                                        "--seed", str(_pass_seed(seed, pass_index))],
                          _summary_check))
    ops.append(cli_op("hurwitz-default", ["verify", "hurwitz-demo"], _hurwitz_check))
    for i in range(g["hurwitz_targets"]):
        w = _sample_disc(rng, 0.45)
        ops.append(cli_op(f"hurwitz-{i}", ["verify", "hurwitz-demo", f"--w={_cplx(w)}",
                                           "--n-list", "2,10,100,1000"], _hurwitz_check))
    exp_targets = [1e-10, -1e-10] + [
        10.0 ** rng.uniform(-12.0, -6.0) * _unimodular(rng)
        for _ in range(g["scaled_exp_targets"])]
    for i, w in enumerate(exp_targets):
        w = complex(w)
        ops.append(cli_op(f"valence-scaled-exp-{i}",
                          ["valence", "--map", "scaled-exp", f"--w={_cplx(w)}"],
                          _valence_check(lambda rho, w=w: oracles.scaled_exp_count(w, rho))))
    schedule = ",".join(repr(r) for r in g["atomic_schedule"])
    atomic_targets = [complex(math.exp(-1))] + [
        _sample_disc(rng, 0.9) for _ in range(g["atomic_targets"])]
    for i, w in enumerate(atomic_targets):
        ops.append(cli_op(f"valence-atomic-{i}",
                          ["valence", "--map", "atomic-inner", f"--w={_cplx(w)}",
                           "--schedule", schedule],
                          _valence_check(lambda rho, w=w: oracles.atomic_inner_count(w, rho))))
    return ops


BUILDERS = {"theorem-a": build_theorem_a, "heatmap": build_heatmap,
            "solvers": build_solvers, "gallery-suites": build_gallery}
