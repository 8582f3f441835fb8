"""Command-line surface: eval, valence, heatmap, verify, gallery.

Exit codes: 0 success (or expected verdict), 1 suite failures, 2 usage
errors, 3 I/O errors.  All randomized suites take an explicit --seed so
identical invocations emit identical bytes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import verifier
from .errors import BlaschkeLabError, MapSpecError
from .mapspec import GALLERY, gallery_spec, parse_map_spec
from .numerics import require_finite
from .valence import (
    ERROR_MARK,
    OUTSIDE_MARK,
    heatmap_to_csv,
    heatmap_to_pgm,
    valence_at,
    valence_heatmap,
)
from .verifier import (
    VERDICTS,
    PipelineVerdict,
    SuiteReport,
    hurwitz_table_csv,
    jsonl,
    report_jsonl,
)

USAGE_ERROR = 2
IO_ERROR = 3

# suite -> (verifier function, {option: parameter}); the function's signature
# holds the defaults, and a parameter without one is a required option.  The
# function is looked up by name at call time, as mapspec._spec_from looks up
# parse_map_spec, so that a wrapper installed on it also sees CLI runs.
# --expect (parameter None) is read by the verdict renderer.
SUITES = {
    "theorem-a": ("check_theorem_A",
                  {"seed": "seed", "cases": "n_products", "targets": "n_targets"}),
    "theorem-b": ("check_theorem_B", {"seed": "seed", "cases": "n_pairs"}),
    "theorem-c": ("check_theorem_C",
                  {"seed": "seed", "cases": "n_products", "mobius_cases": "n_mobius"}),
    "theorem-3-1": ("check_theorem_3_1",
                    {"candidate": "candidate", "bound": "valence_bound", "expect": None}),
    "theorem-3-2": ("check_theorem_3_2", {"k": "k", "seed": "seed"}),
    "hurwitz-demo": ("demo_hurwitz_escape", {"n_list": "n_list", "w": "w"}),
}

# canonical candidates of the certification pipeline and their verdicts
EXPECTED_VERDICTS = {
    "mobius": "automorphism",
    "atomic-inner": "valence-unbounded",
    "slit-power": "not-inner",
}


def parse_complex(text: str) -> complex:
    """Accepts "a+bi" (or j) and "a,b" forms."""
    raw = text.strip()
    try:
        if "," in raw:
            real, imag = raw.split(",")
            value = complex(float(real), float(imag))
        else:
            value = complex(raw.replace(" ", "").replace("i", "j").replace("I", "j"))
    except ValueError as err:
        raise ValueError(f"cannot parse complex number from {text!r}") from err
    return require_finite(value, f"complex number {text!r}")


def _nz(x: float) -> float:
    return x + 0.0  # folds -0.0 into 0.0 for stable output


def format_complex(z: complex) -> str:
    return f"{_nz(z.real):.15g}{_nz(z.imag):+.15g}i"


def load_map_argument(text: str):
    """--map takes inline JSON, a file path, or a bare gallery name."""
    raw = text.strip()
    if raw.startswith("{"):
        return parse_map_spec(raw)
    if raw in GALLERY:
        return parse_map_spec({"type": "gallery", "name": raw})
    if os.path.exists(raw):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                return parse_map_spec(fh.read())
        except OSError as err:
            raise MapSpecError(f"cannot read map file: {err}") from err
    raise MapSpecError(f"--map argument {text!r} is neither inline JSON, "
                       "an existing file, nor a gallery name")


def _write_out(path, payload: str) -> int:
    if path is None or path == "-":
        sys.stdout.write(payload)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        return IO_ERROR
    return 0


def cmd_eval(args) -> int:
    handle = load_map_argument(args.map)
    z = parse_complex(args.z)
    if abs(z) >= 1.0:
        print(f"error: |z| must be < 1, got {format_complex(z)}", file=sys.stderr)
        return USAGE_ERROR
    value, deriv = handle.eval(z)
    print(f"{_nz(value.real):.15g} {_nz(value.imag):.15g} | "
          f"{_nz(deriv.real):.15g} {_nz(deriv.imag):.15g}")
    return 0


def cmd_valence(args) -> int:
    handle = load_map_argument(args.map)
    w = parse_complex(args.w)
    schedule = None
    if args.schedule is not None:
        schedule = tuple(float(tok) for tok in args.schedule.split(","))
    report = valence_at(handle, w, schedule=schedule)
    print(f"w = {format_complex(w)}")
    for r, count, residual in zip(report.radii, report.counts, report.residuals):
        print(f"r={r:.12g} count={count} residual={residual:.3e}")
    if report.failed_radius is not None:
        print(f"failed-radius = {report.failed_radius:.12g}")
    print(f"value = {report.value}")
    print(f"stabilized = {'true' if report.stabilized else 'false'}")
    return 0


def cmd_heatmap(args) -> int:
    handle = load_map_argument(args.map)
    grid = valence_heatmap(handle, args.resolution, args.radius)
    payload = heatmap_to_csv(grid) if args.format == "csv" else heatmap_to_pgm(grid)
    status = _write_out(args.out, payload)
    if status != 0:
        return status
    counts = grid.cells[grid.cells >= 0]
    summary = (f"cells={grid.resolution ** 2} "
               f"min-count={int(counts.min()) if counts.size else 'n/a'} "
               f"max-count={int(counts.max()) if counts.size else 'n/a'} "
               f"outside={int((grid.cells == OUTSIDE_MARK).sum())} "
               f"errors={int((grid.cells == ERROR_MARK).sum())}")
    stream = sys.stderr if args.out in (None, "-") else sys.stdout
    print(summary, file=stream)
    return 0


def _render_suite(report: SuiteReport):
    return (report_jsonl(report), report.ok,
            f"suite={report.suite} cases={report.cases_run} "
            f"failures={len(report.failures)} wall-time={report.wall_time_s:.2f}s")


def _render_verdict(verdict: PipelineVerdict, candidate, expect):
    spec = candidate.spec
    # only gallery nodes have a name; a Mobius node is known by its type
    expected = expect or EXPECTED_VERDICTS.get(spec.get("name", spec.get("type")))
    case = {"case": 0, "kind": "pipeline-verdict", "candidate": spec,
            "verdict": verdict.verdict,
            "boundary_mean": verdict.boundary_mean,
            "detail": verdict.detail}
    if verdict.sup_error is not None:
        case["sup_error"] = verdict.sup_error
    if verdict.profile is not None:
        case["profile"] = [[r, c] for r, c in verdict.profile]
    case["expected"] = expected
    case["ok"] = expected is None or verdict.verdict == expected
    summary = {"summary": {"suite": "theorem-3-1", "verdict": verdict.verdict,
                           "expected": expected, "ok": case["ok"]}}
    return jsonl([case, summary]), case["ok"], None


def _render_hurwitz(rows, limit_value: int):
    all_two = all(v == 2 for _, v in rows)
    return (hurwitz_table_csv(rows, limit_value), all_two and limit_value == 1,
            f"escape-family valences all 2: {all_two}; limit valence: {limit_value}")


# how an option's text becomes its parameter; argparse reads the others
READERS = {"candidate": load_map_argument, "w": parse_complex,
           "n_list": lambda text: tuple(int(tok) for tok in text.split(","))}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; valid suites: {', '.join(SUITES)}",
              file=sys.stderr)
        return USAGE_ERROR
    name, params = SUITES[args.suite]
    function = getattr(verifier, name)
    # the verify options default to absent, so these are the ones given
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "fn", "suite", "out")}
    for option in given:
        if option not in params:
            print(f"error: {args.suite} does not take --{option.replace('_', '-')}",
                  file=sys.stderr)
            return USAGE_ERROR
    required = [key for key, slot in inspect.signature(function).parameters.items()
                if slot.default is slot.empty]
    for option, param in params.items():
        if param in required and option not in given:
            print(f"error: {args.suite} requires --{option.replace('_', '-')}", file=sys.stderr)
            return USAGE_ERROR

    kwargs = {params[option]: READERS.get(option, lambda value: value)(value)
              for option, value in given.items() if params[option] is not None}
    result = function(**kwargs)
    if isinstance(result, SuiteReport):
        payload, ok, note = _render_suite(result)
    elif isinstance(result, PipelineVerdict):
        payload, ok, note = _render_verdict(result, kwargs["candidate"], given.get("expect"))
    else:
        payload, ok, note = _render_hurwitz(*result)
    status = _write_out(getattr(args, "out", None), payload)
    if status != 0:
        return status
    if note is not None:
        print(note, file=sys.stderr)
    return 0 if ok else 1


def cmd_gallery(args) -> int:
    options = {"k": args.k, "n": args.n, "epsilon": args.epsilon, "c": args.c_param}
    if args.a is not None:
        a = parse_complex(args.a)
        options["a"] = [a.real, a.imag]
    if args.base is not None:
        options["base"] = load_map_argument(args.base).spec
    params = {key: value for key, value in options.items() if value is not None}
    print(json.dumps(gallery_spec(args.name, params), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschke-lab",
        description="Numerical laboratory for holomorphic self-maps of the "
                    "unit disc: Blaschke products, winding-number valence, "
                    "conformal slit maps, and scripted verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a map and its derivative")
    p_eval.add_argument("--map", required=True,
                        help="inline JSON, file path, or gallery name")
    p_eval.add_argument("--z", required=True, help='point, "a+bi" or "a,b"')
    p_eval.set_defaults(fn=cmd_eval)

    p_val = sub.add_parser("valence", help="valence report at a target")
    p_val.add_argument("--map", required=True)
    p_val.add_argument("--w", required=True, help='target, "a+bi" or "a,b"')
    p_val.add_argument("--schedule", help="comma list of radii in (0,1)")
    p_val.set_defaults(fn=cmd_valence)

    p_heat = sub.add_parser("heatmap", help="valence heatmap over the disc")
    p_heat.add_argument("--map", required=True)
    p_heat.add_argument("--resolution", type=int, default=64)
    p_heat.add_argument("--radius", type=float, default=0.999)
    p_heat.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p_heat.add_argument("--out", help="output path (default: stdout)")
    p_heat.set_defaults(fn=cmd_heatmap)

    # each option is absent unless given; the suite's signature holds its default
    p_ver = sub.add_parser("verify", help="run a verification suite",
                           argument_default=argparse.SUPPRESS)
    p_ver.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--cases", type=int)
    p_ver.add_argument("--targets", type=int)
    p_ver.add_argument("--mobius-cases", type=int)
    p_ver.add_argument("--k", type=int)
    p_ver.add_argument("--candidate", help="map spec for theorem-3-1")
    p_ver.add_argument("--bound", type=int,
                       help="claimed valence bound for theorem-3-1")
    p_ver.add_argument("--expect", choices=VERDICTS,
                       help="expected verdict for theorem-3-1 (overrides inference)")
    p_ver.add_argument("--w", help="target for hurwitz-demo")
    p_ver.add_argument("--n-list", help="comma list of escape indices for hurwitz-demo")
    p_ver.add_argument("--out", help="output path (default: stdout)")
    p_ver.set_defaults(fn=cmd_verify)

    p_gal = sub.add_parser("gallery", help="emit a canonical gallery map spec")
    p_gal.add_argument("name", help=f"one of: {', '.join(GALLERY)}")
    p_gal.add_argument("--k", type=int, help="slit-power exponent")
    p_gal.add_argument("--n", type=int, help="escape index")
    p_gal.add_argument("--epsilon", type=float, help="scaled-exp factor")
    p_gal.add_argument("--c-param", type=float, help="scaled-exp rate c")
    p_gal.add_argument("--a", help="frostman shift parameter")
    p_gal.add_argument("--base", help="frostman base map spec")
    p_gal.set_defaults(fn=cmd_gallery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except (MapSpecError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except BlaschkeLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
