"""Command-line surface: eval, valence, heatmap, verify, gallery.

Exit codes: 0 success (or expected verdict), 1 suite failures, 2 usage
errors, 3 I/O errors.  All randomized suites take an explicit --seed so
identical invocations emit identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time

from . import verifier
from .errors import BlaschkeLabError, MapSpecError
from .gallery import _check_escape_indices, _check_power_exponent
from .mapspec import GALLERY, gallery_spec, parse_map_spec
from .numerics import require_finite
from .valence import (
    ERROR_MARK,
    OUTSIDE_MARK,
    _check_radii,
    _check_resolution,
    heatmap_to_csv,
    heatmap_to_pgm,
    valence_at,
    valence_heatmap,
)
from .verifier import (
    VERDICTS,
    PipelineVerdict,
    SuiteReport,
    _check_demo_target,
    _check_sizes,
    _check_valence_bound,
    hurwitz_table_csv,
    jsonl,
    report_jsonl,
)

USAGE_ERROR = 2
IO_ERROR = 3

# suite -> (verifier function, {option: parameter}); `verify <suite>` takes
# these options and --out.  The function's signature holds the defaults, and
# a parameter without one is a required option.  The function is looked up
# by name at call time, as mapspec._spec_from looks up parse_map_spec, so
# that a wrapper installed on it also sees CLI runs.
# --expect (parameter None) is read by the verdict renderer.
SUITES = {
    "theorem-a": ("check_theorem_A",
                  {"seed": "seed", "cases": "n_products", "targets": "n_targets"}),
    "theorem-b": ("check_theorem_B", {"seed": "seed", "cases": "n_pairs"}),
    "theorem-c": ("check_theorem_C",
                  {"seed": "seed", "cases": "n_products", "mobius-cases": "n_mobius"}),
    "theorem-3-1": ("check_theorem_3_1",
                    {"candidate": "candidate", "bound": "valence_bound", "expect": None}),
    "theorem-3-2": ("check_theorem_3_2", {"k": "k", "seed": "seed"}),
    "hurwitz-demo": ("demo_hurwitz_escape", {"n-list": "n_list", "w": "w"}),
}

# canonical candidates of the certification pipeline and their verdicts
EXPECTED_VERDICTS = {
    "mobius": "automorphism",
    "atomic-inner": "valence-unbounded",
    "slit-power": "not-inner",
}


def parse_complex(text: str) -> complex:
    """argparse type: "a+bi" (or j) and "a,b" forms."""
    raw = text.strip()
    try:
        if "," in raw:
            real, imag = raw.split(",")
            value = complex(float(real), float(imag))
        else:  # only a trailing i is the imaginary unit, so "inf" keeps its i
            raw = raw.replace(" ", "")
            value = complex(raw[:-1] + "j" if raw.endswith(("i", "I")) else raw)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"cannot parse complex number from {text!r}") from err
    try:
        return require_finite(value, f"complex number {text!r}")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _check_disc(z: complex):
    if abs(z) >= 1.0:
        raise ValueError(f"|z| must be < 1, got {format_complex(z)}")


def _comma_list(kind):
    """argparse type: a comma list of ``kind`` values, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(kind(tok) for tok in text.split(","))
    parse.__name__ = f"{kind.__name__} list"  # argparse: "invalid float list value: ..."
    return parse


class _Checked(argparse.Action):
    """Stores an option's value once ``check``, the range check that the
    library runs on it, accepts it; the ValueError of a value it rejects
    becomes argparse's usage error, which names the option."""

    def __init__(self, *args, check, **kwargs):
        super().__init__(*args, **kwargs)
        self.check = check

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            self.check(values)
        except ValueError as err:
            raise argparse.ArgumentError(self, str(err)) from err
        setattr(namespace, self.dest, values)


def _seed(text: str) -> int:
    """argparse type: numpy takes non-negative integer seeds."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _nz(x: float) -> float:
    return x + 0.0  # folds -0.0 into 0.0 for stable output


def format_complex(z: complex) -> str:
    return f"{_nz(z.real):.15g}{_nz(z.imag):+.15g}i"


def load_map_argument(text: str):
    """argparse type: inline JSON, a file path, or a bare gallery name; a spec
    that mapspec rejects raises MapSpecError, which main reports."""
    raw = text.strip()
    if raw.startswith("{"):
        return parse_map_spec(raw)
    if raw in GALLERY:
        return parse_map_spec({"type": "gallery", "name": raw})
    if not os.path.exists(raw):
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither inline JSON, an existing file, nor a gallery name")
    try:
        with open(raw, "r", encoding="utf-8") as fh:
            spec = fh.read()
    except OSError as err:
        raise argparse.ArgumentTypeError(f"cannot read map file: {err}") from err
    return parse_map_spec(spec)


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
    value, deriv = args.map.eval(args.z)
    print(f"{_nz(value.real):.15g} {_nz(value.imag):.15g} | "
          f"{_nz(deriv.real):.15g} {_nz(deriv.imag):.15g}")
    return 0


def cmd_valence(args) -> int:
    report = valence_at(args.map, args.w, schedule=args.schedule)
    print(f"w = {format_complex(args.w)}")
    for r, count, residual in zip(report.radii, report.counts, report.residuals):
        print(f"r={r:.12g} count={count} residual={residual:.3e}")
    if report.failed_radius is not None:
        print(f"failed-radius = {report.failed_radius:.12g}")
    print(f"value = {report.value}")
    print(f"stabilized = {'true' if report.stabilized else 'false'}")
    return 0


def cmd_heatmap(args) -> int:
    grid = valence_heatmap(args.map, args.resolution, args.radius)
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


def _render_suite(report: SuiteReport, seconds: float):
    return (report_jsonl(report), report.ok,
            f"suite={report.suite} cases={report.cases_run} "
            f"failures={len(report.failures)} wall-time={seconds:.2f}s")


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


# argparse keywords of each shared option and each verify option (see SUITES)
OPTIONS = {
    "map": {"type": load_map_argument, "help": "inline JSON, file path, or gallery name"},
    "out": {"help": "output path (default: stdout)"},
    "seed": {"type": _seed, "help": "random seed, a non-negative integer"},
    "cases": {"type": int, "help": "number of cases"},
    "targets": {"type": int, "help": "targets per product"},
    "mobius-cases": {"type": int, "help": "number of Mobius cases"},
    "k": {"type": int, "help": "slit-power exponent"},
    "candidate": {"type": load_map_argument,
                  "help": "map spec: inline JSON, file path, or gallery name"},
    "bound": {"type": int, "help": "claimed valence bound"},
    "expect": {"choices": VERDICTS, "help": "expected verdict (overrides inference)"},
    "w": {"type": parse_complex, "help": 'target, "a+bi" or "a,b"'},
    "n-list": {"type": _comma_list(int), "help": "comma list of escape indices"},
}


def cmd_verify(args) -> int:
    name, params = SUITES[args.suite]
    # the suite's options default to absent, so these are the ones given
    given = vars(args)
    kwargs = {key: value for key, value in given.items() if key in params.values()}
    t0 = time.perf_counter()
    result = getattr(verifier, name)(**kwargs)
    seconds = time.perf_counter() - t0
    if isinstance(result, SuiteReport):
        payload, ok, note = _render_suite(result, seconds)
    elif isinstance(result, PipelineVerdict):
        payload, ok, note = _render_verdict(result, kwargs["candidate"], given.get("expect"))
    else:
        payload, ok, note = _render_hurwitz(*result)
    status = _write_out(given.get("out"), payload)
    if status != 0:
        return status
    if note is not None:
        print(note, file=sys.stderr)
    return 0 if ok else 1


def cmd_gallery(args) -> int:
    options = {"k": args.k, "n": args.n, "epsilon": args.epsilon, "c": args.c_param,
               "a": None if args.a is None else [args.a.real, args.a.imag],
               "base": None if args.base is None else args.base.spec}
    params = {key: value for key, value in options.items() if value is not None}
    print(json.dumps(gallery_spec(args.name, params), sort_keys=True))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="blaschke-lab",
        description="Numerical laboratory for holomorphic self-maps of the "
                    "unit disc: Blaschke products, winding-number valence, "
                    "conformal slit maps, and scripted verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a map and its derivative")
    p_eval.add_argument("--map", required=True, **OPTIONS["map"])
    p_eval.add_argument("--z", required=True, type=parse_complex, action=_Checked,
                        check=_check_disc,
                        help='point inside the unit disc, "a+bi" or "a,b"')
    p_eval.set_defaults(fn=cmd_eval)

    p_val = sub.add_parser("valence", help="valence report at a target")
    p_val.add_argument("--map", required=True, **OPTIONS["map"])
    p_val.add_argument("--w", required=True, **OPTIONS["w"])
    p_val.add_argument("--schedule", type=_comma_list(float), action=_Checked,
                       check=_check_radii, help="comma list of radii in (0,1)")
    p_val.set_defaults(fn=cmd_valence)

    p_heat = sub.add_parser("heatmap", help="valence heatmap over the disc")
    p_heat.add_argument("--map", required=True, **OPTIONS["map"])
    p_heat.add_argument("--resolution", type=int, default=64, action=_Checked,
                        check=_check_resolution)
    p_heat.add_argument("--radius", type=float, default=0.999, action=_Checked,
                        check=lambda r: _check_radii((r,)))
    p_heat.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p_heat.add_argument("--out", **OPTIONS["out"])
    p_heat.set_defaults(fn=cmd_heatmap)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.set_defaults(fn=cmd_verify)
    suites = p_ver.add_subparsers(dest="suite", required=True)
    # the range check that the suites run on each of their parameters that has one
    checks = {"n_products": _check_sizes, "n_targets": _check_sizes, "n_pairs": _check_sizes,
              "n_mobius": _check_sizes, "valence_bound": _check_valence_bound,
              "k": _check_power_exponent, "n_list": _check_escape_indices,
              "w": _check_demo_target}
    for suite, (name, params) in SUITES.items():
        slots = inspect.signature(getattr(verifier, name)).parameters
        required = {key for key, slot in slots.items() if slot.default is slot.empty}
        # each option is absent unless given; the signature holds its default
        p_suite = suites.add_parser(suite, argument_default=argparse.SUPPRESS)
        for option, param in params.items():
            check = {"action": _Checked, "check": checks[param]} if param in checks else {}
            p_suite.add_argument(f"--{option}", dest=param or option, required=param in required,
                                 **OPTIONS[option], **check)
        p_suite.add_argument("--out", **OPTIONS["out"])

    p_gal = sub.add_parser("gallery", help="emit a canonical gallery map spec")
    p_gal.add_argument("name", help=f"one of: {', '.join(GALLERY)}")
    p_gal.add_argument("--k", **OPTIONS["k"])
    p_gal.add_argument("--n", type=int, help="escape index")
    p_gal.add_argument("--epsilon", type=float, help="scaled-exp factor")
    p_gal.add_argument("--c-param", type=float, help="scaled-exp rate c")
    p_gal.add_argument("--a", type=parse_complex, help="frostman shift parameter")
    p_gal.add_argument("--base", type=load_map_argument, help="frostman base map spec")
    p_gal.set_defaults(fn=cmd_gallery)
    return parser


def main(argv=None) -> int:
    try:
        # inside the try: map specs are read while the arguments are parsed
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
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
