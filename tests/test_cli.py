import argparse
import inspect
import json
import math
import re
from pathlib import Path

import pytest

from blaschke_lab import cli, verifier
from blaschke_lab.cli import format_complex, main, parse_complex
from blaschke_lab.errors import InternalConsistencyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("0.5+0.3i") == 0.5 + 0.3j
    assert parse_complex("-0.5-0.3i") == -0.5 - 0.3j
    assert parse_complex("0.7i") == 0.7j
    assert parse_complex("1e-10") == 1e-10
    assert parse_complex("0.5,0.3") == 0.5 + 0.3j
    assert parse_complex("-1e-10") == -1e-10
    assert parse_complex("0.7I") == parse_complex("0.7j") == 0.7j
    assert parse_complex("i") == 1j
    # argparse reports an ArgumentTypeError's own message under the option name
    for text in ("zebra", "1,2,3", "1,abc", ",0"):
        with pytest.raises(argparse.ArgumentTypeError,
                           match=f"cannot parse complex number from '{text}'$"):
            parse_complex(text)
    for text in ("inf", "nan,0", "-infi"):
        with pytest.raises(argparse.ArgumentTypeError,
                           match=f"complex number '{text}' must have finite components"):
            parse_complex(text)


def test_format_complex_15_digits():
    assert format_complex(0.25 + 0j) == "0.25+0i"
    assert format_complex(-0.5 - 0.3j) == "-0.5-0.3i"
    assert format_complex(1 / 3 + 0j).startswith("0.333333333333333")


def test_eval_square(capsys):
    code, out, _ = run_cli(capsys, "eval",
                           "--map", '{"type":"blaschke","lambda":[1,0],"zeros":[[0,0],[0,0]]}',
                           "--z", "0.5")
    assert code == 0
    assert out.strip() == "0.25 0 | 1 0"


def test_eval_gallery_slit(capsys):
    code, out, _ = run_cli(capsys, "eval", "--map", "slit-g", "--z", "0")
    assert code == 0
    value = float(out.split()[0])
    assert abs(value - (-(3 - 2 * math.sqrt(2)))) < 1e-12


def test_eval_malformed_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--map", '{"type":"nope"}', "--z", "0.1")
    assert code == 2
    assert "unknown map type" in err

    code, out, err = run_cli(capsys, "eval", "--map",
                             '{"type":"gallery","name":"scaled-exp","params":{"eps":1e-5}}',
                             "--z", "0")
    assert code == 2
    assert out == ""
    assert "$.params.eps" in err


def test_eval_non_finite_gallery_param_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--map",
                             '{"type":"gallery","name":"slit-power","params":{"k":Infinity}}',
                             "--z", "0.1")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_eval_exterior_point_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "--map", "half", "--z", "1.5")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: blaschke-lab eval ")
    assert err.endswith("blaschke-lab eval: error: argument --z: |z| must be < 1, got 1.5+0i\n")


@pytest.mark.parametrize("text", ["1,abc", ",0"])
def test_unparsable_complex_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "eval", "--map", "half", "--z", text)
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: argument --z: cannot parse complex number from {text!r}\n")


@pytest.mark.parametrize("argv", [
    ("gallery", "scaled-exp", "--c-param", "1000"),
    ("eval", "--map", '{"type":"gallery","name":"scaled-exp","params":{"c":1000}}',
     "--z", "0"),
], ids=["gallery", "eval"])
def test_scaled_exp_with_a_large_c_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("map would leave the disc\n")


@pytest.mark.parametrize("argv", [
    ("eval", "--map", "half", "--z", "nan,0"),
    ("valence", "--map", "half", "--w", "inf,1"),
])
def test_nonfinite_pair_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_valence_square(capsys):
    code, out, _ = run_cli(capsys, "valence",
                           "--map", '{"type":"blaschke","lambda":[1,0],"zeros":[[0,0],[0,0]]}',
                           "--w", "0.25")
    assert code == 0
    assert "value = 2" in out
    assert "stabilized = true" in out


def test_valence_scaled_exp_signed_targets(capsys):
    code, out, _ = run_cli(capsys, "valence", "--map", "scaled-exp", "--w", "1e-10")
    assert code == 0 and "value = 3" in out
    # negative targets need the --w=<value> form so argparse keeps the sign
    code, out, _ = run_cli(capsys, "valence", "--map", "scaled-exp", "--w=-1e-10")
    assert code == 0 and "value = 4" in out


def test_valence_custom_schedule(capsys):
    code, out, _ = run_cli(capsys, "valence", "--map", "atomic-inner",
                           "--w", "0.36787944117144233",
                           "--schedule", "0.9,0.99,0.999")
    assert code == 0
    assert "value = 15" in out
    assert "stabilized = false" in out


@pytest.mark.parametrize("schedule,message", [
    ("1.5", "contour radius must lie in (0, 1), got 1.5"),
    ("0.5,0.4", "contour radii must be strictly increasing"),
])
def test_valence_bad_schedule_exits_2(capsys, schedule, message):
    code, out, err = run_cli(capsys, "valence", "--map", "half", "--w", "0.1",
                             "--schedule", schedule)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: blaschke-lab valence ")
    assert err.endswith(f"blaschke-lab valence: error: argument --schedule: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (("valence", "--map", "half", "--w", "0.1", "--schedule", ""),
     "argument --schedule: invalid float list value: ''"),
    (("valence", "--map", "half", "--w", "0.1", "--schedule", "0.5,"),
     "argument --schedule: invalid float list value: '0.5,'"),
    (("valence", "--map", "half", "--w", "0.1", "--schedule", "0.5,abc"),
     "argument --schedule: invalid float list value: '0.5,abc'"),
    (("verify", "hurwitz-demo", "--n-list", "2,x"),
     "argument --n-list: invalid int list value: '2,x'"),
    (("verify", "hurwitz-demo", "--n-list", "2.5"),
     "argument --n-list: invalid int list value: '2.5'"),
    (("verify", "theorem-a", "--seed", "-1", "--cases", "1", "--targets", "1"),
     "argument --seed: expected a non-negative integer, got '-1'"),
    # the map and complex-number readers
    (("eval", "--map", "nope", "--z", "0"),
     "argument --map: 'nope' is neither inline JSON, an existing file, nor a gallery name"),
    (("eval", "--map", "half", "--z", "inf"),
     "argument --z: complex number 'inf' must have finite components, got (inf+0j)"),
    (("valence", "--map", "nope", "--w", "0"),
     "argument --map: 'nope' is neither inline JSON, an existing file, nor a gallery name"),
    (("valence", "--map", "half", "--w=inf,1"),
     "argument --w: complex number 'inf,1' must have finite components, got (inf+1j)"),
    (("heatmap", "--map", "nope"),
     "argument --map: 'nope' is neither inline JSON, an existing file, nor a gallery name"),
    (("verify", "theorem-3-1", "--candidate", "nope"),
     "argument --candidate: 'nope' is neither inline JSON, an existing file, "
     "nor a gallery name"),
    (("verify", "hurwitz-demo", "--w=inf,1"),
     "argument --w: complex number 'inf,1' must have finite components, got (inf+1j)"),
    (("verify", "hurwitz-demo", "--w", "abc"),
     "argument --w: cannot parse complex number from 'abc'"),
    (("gallery", "frostman", "--base", "half", "--a", "1,x"),
     "argument --a: cannot parse complex number from '1,x'"),
    (("gallery", "frostman", "--base", "nope"),
     "argument --base: 'nope' is neither inline JSON, an existing file, nor a gallery name"),
], ids=["schedule-empty", "schedule-trailing-comma", "schedule-abc", "n-list-x",
        "n-list-2.5", "seed-negative", "eval-map", "eval-z-inf", "valence-map",
        "valence-w-inf", "heatmap-map", "3-1-candidate", "hurwitz-w-inf", "hurwitz-w-abc",
        "frostman-a", "frostman-base"])
def test_an_unparsable_option_exits_2_and_is_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    # a verify suite is its own subcommand: "blaschke-lab verify <suite>"
    prog = " ".join(("blaschke-lab",) + argv[:2 if argv[0] == "verify" else 1])
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith(f"{prog}: error: {message}\n")


def test_an_unreadable_map_file_exits_2_and_is_named(tmp_path, capsys):
    code, out, err = run_cli(capsys, "heatmap", "--map", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "blaschke-lab heatmap: error: argument --map: cannot read map file: " in err


def _option_actions(parser, path=()):
    """(subcommand path, action) for each option of each (nested) subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _option_actions(child, path + (name,))
        elif action.option_strings:
            yield path, action


def test_a_shared_option_takes_its_keywords_from_one_declaration():
    takers = {}
    for path, action in _option_actions(cli.build_parser()):
        option = action.option_strings[-1].removeprefix("--")
        if option in cli.OPTIONS:
            keywords = cli.OPTIONS[option]
            assert (action.type, action.help) == (keywords.get("type"), keywords["help"]), path
            takers.setdefault(option, []).append(path)
    assert cli.OPTIONS["map"]["type"] is cli.load_map_argument
    assert cli.OPTIONS["w"]["type"] is cli.parse_complex
    assert takers["map"] == [("eval",), ("valence",), ("heatmap",)]
    assert takers["w"] == [("valence",), ("verify", "hurwitz-demo")]
    assert takers["k"] == [("verify", "theorem-3-2"), ("gallery",)]
    assert takers["out"] == [("heatmap",)] + [("verify", suite) for suite in cli.SUITES]


@pytest.mark.parametrize("argv,tail", [
    # the preimage 0.6 lies outside r = 0.3
    (("--map", "half", "--w", "0.3"), "value = 0\nstabilized = false\n"),
    # a map of unbounded valence
    (("--map", "atomic-inner", "--w", "0.36787944117144233"), "value = 1\nstabilized = false\n"),
], ids=["half", "atomic-inner"])
def test_agreeing_counts_inside_the_stop_radius_are_not_stabilized(capsys, argv, tail):
    code, out, _ = run_cli(capsys, "valence", *argv, "--schedule", "0.1,0.2,0.3")
    assert code == 0
    assert out.count("count=") == 3
    assert out.endswith(tail)


def test_valence_reports_the_failed_radius_of_a_constant_map(capsys):
    code, out, _ = run_cli(capsys, "valence",
                           "--map", '{"type":"blaschke","lambda":[1,0],"zeros":[]}',
                           "--w", "1")
    assert code == 0
    assert out == "w = 1+0i\nfailed-radius = 0.5\nvalue = 0\nstabilized = false\n"


def test_an_escaping_library_error_exits_1(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise InternalConsistencyError("winding counts decreased along radii")

    monkeypatch.setattr(cli, "valence_at", failing)
    code, out, err = run_cli(capsys, "valence", "--map", "half", "--w", "0.1")
    assert code == 1
    assert out == ""
    assert err == "error: winding counts decreased along radii\n"


def test_heatmap_csv_to_file(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "heatmap", "--map", "half",
                           "--resolution", "16", "--radius", "0.99",
                           "--format", "csv", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "x,y,count"
    assert "max-count=1" in out


def test_heatmap_pgm_stdout(capsys):
    code, out, err = run_cli(capsys, "heatmap", "--map",
                             '{"type":"mobius","alpha":[0,0],"lambda":[1,0]}',
                             "--resolution", "16", "--radius", "0.9",
                             "--format", "pgm")
    assert code == 0
    assert out.startswith("P2\n16 16\n255\n")
    assert "min-count=1" in err and "max-count=1" in err


def test_heatmap_unwritable_path_exits_3(capsys):
    code, _, err = run_cli(capsys, "heatmap", "--map", "half",
                           "--resolution", "16", "--radius", "0.9",
                           "--out", "/nonexistent-dir/grid.csv")
    assert code == 3
    assert "cannot write" in err


def test_verify_requires_seed(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem-a")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("argv", [
    ("theorem-a", "--cases", "0", "--targets", "1"),
    ("theorem-a", "--cases", "1", "--targets", "0"),
    ("theorem-b", "--cases", "0"),
    ("theorem-c", "--cases", "0", "--mobius-cases", "1"),
    ("theorem-c", "--cases", "1", "--mobius-cases", "0"),
])
def test_verify_zero_size_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--seed", "1")
    assert code == 2
    assert out == ""
    assert "positive" in err


def test_verify_theorem_3_1_requires_candidate(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem-3-1")
    assert code == 2
    assert out == ""
    assert "--candidate" in err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_verify_theorem_3_1_bound_below_one_exits_2(capsys, bound):
    mobius = '{"type":"mobius","alpha":[0.3,0],"lambda":[0.5,0.8660254037844386]}'
    code, out, err = run_cli(capsys, "verify", "theorem-3-1", "--candidate", mobius,
                             "--bound", bound)
    assert code == 2
    assert out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("argv,option", [
    (("theorem-b", "--seed", "1", "--targets", "7"), "--targets"),
    (("hurwitz-demo", "--seed", "3"), "--seed"),
    (("theorem-3-1", "--candidate", "half", "--cases", "3"), "--cases"),
    (("theorem-a", "--k", "3", "--seed", "1"), "--k"),
    (("theorem-b", "--seed", "1", "--cases", "1", "--mobius-cases", "2"), "--mobius-cases"),
    (("theorem-3-2", "--candidate", "half"), "--candidate"),
    (("theorem-c", "--seed", "1", "--expect", "automorphism"), "--expect"),
    (("theorem-a", "--seed", "1", "--n-list", "2,3"), "--n-list"),
], ids=["b-targets", "hurwitz-seed", "3-1-cases", "a-k", "b-mobius-cases",
        "3-2-candidate", "c-expect", "a-n-list"])
def test_verify_option_the_suite_does_not_take_exits_2(capsys, argv, option):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert option in err


def test_verify_expect_takes_only_verdicts(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem-3-1", "--candidate", "slit-power",
                             "--expect", "not_inner")
    assert code == 2
    assert out == ""
    assert "not-inner" in err


@pytest.mark.parametrize("argv,message", [
    (("heatmap", "--map", "half", "--resolution", "5"),
     "argument --resolution: resolution must lie in [16, 4096]"),
    (("heatmap", "--map", "half", "--radius", "1.5"),
     "argument --radius: contour radius must lie in (0, 1), got 1.5"),
    (("verify", "theorem-a", "--seed", "1", "--cases", "0"),
     "argument --cases: suite sizes must be positive"),
    (("verify", "theorem-a", "--seed", "1", "--targets", "-3"),
     "argument --targets: suite sizes must be positive"),
    (("verify", "theorem-b", "--seed", "1", "--cases", "0"),
     "argument --cases: suite sizes must be positive"),
    (("verify", "theorem-c", "--seed", "1", "--cases", "0"),
     "argument --cases: suite sizes must be positive"),
    (("verify", "theorem-c", "--seed", "1", "--mobius-cases", "0"),
     "argument --mobius-cases: suite sizes must be positive"),
    (("verify", "theorem-3-2", "--k", "1"),
     "argument --k: power exponent k must be an integer >= 2"),
    (("verify", "theorem-3-1", "--candidate", "half", "--bound", "0"),
     "argument --bound: valence bound must be at least 1, got 0"),
    (("verify", "hurwitz-demo", "--w", "0.6"),
     "argument --w: demo target must satisfy |w| < 0.5"),
    (("verify", "hurwitz-demo", "--n-list", "2,1"),
     "argument --n-list: escape index n must be an integer >= 2"),
], ids=["resolution", "radius", "a-cases", "a-targets", "b-cases", "c-cases",
        "c-mobius-cases", "3-2-k", "3-1-bound", "hurwitz-w", "hurwitz-n-list"])
def test_a_value_out_of_its_range_exits_2_and_is_named(capsys, argv, message):
    # the option runs the library's own check, so the reason is the library's
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    prog = " ".join(("blaschke-lab",) + argv[:2 if argv[0] == "verify" else 1])
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith(f"{prog}: error: {message}\n")


def test_the_parser_is_built_once_and_keeps_no_values(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(verifier, "demo_hurwitz_escape",
                        lambda **kwargs: seen.append(kwargs) or ([(2, 2)], 1))
    for argv in (("--w", "0.2", "--n-list", "3"), ()):
        assert run_cli(capsys, "verify", "hurwitz-demo", *argv)[0] == 0
    assert seen == [{"w": 0.2, "n_list": (3,)}, {}]


def test_verify_calls_the_suite_function_bound_on_the_verifier_module(monkeypatch, capsys):
    # a wrapper installed on the verifier's name (a tracer, say) sees CLI runs
    monkeypatch.setattr(verifier, "demo_hurwitz_escape",
                        lambda n_list=(2,), w=0.1: ([(7, 2)], 1))
    code, out, _ = run_cli(capsys, "verify", "hurwitz-demo")
    assert code == 0
    assert out == "n,valence\n7,2\nlimit,1\n"


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _signature(suite):
    return inspect.signature(getattr(verifier, cli.SUITES[suite][0])).parameters


def _required_options(suite):
    """The options of a suite whose parameter has no default."""
    slots = _signature(suite)
    return {option for option, param in cli.SUITES[suite][1].items()
            if param is not None and slots[param].default is slots[param].empty}


def test_each_verify_subcommand_takes_exactly_its_suite_options():
    suites = _subcommands(_subcommands(cli.build_parser())["verify"])
    assert list(suites) == list(cli.SUITES)
    for suite, (_, params) in cli.SUITES.items():
        actions = {a.option_strings[-1]: a for a in suites[suite]._actions
                   if a.option_strings != ["-h", "--help"]}
        assert set(actions) == {f"--{option}" for option in params} | {"--out"}
        assert {option for option in params if actions[f"--{option}"].required} \
            == _required_options(suite)


def test_every_suite_parameter_is_in_its_function_signature():
    for suite, (_, params) in cli.SUITES.items():
        slots = _signature(suite)
        named = {param for param in params.values() if param is not None}
        assert named <= set(slots), suite
        # a parameter without a default has an option
        assert {key for key, slot in slots.items() if slot.default is slot.empty} <= named


def test_verify_suite_help_lists_only_its_options(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem-b", "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--seed", "--cases", "--out"}


def test_a_candidate_that_does_not_parse_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem-3-1", "--candidate", '{"type":"nope"}')
    assert code == 2
    assert out == ""
    assert err == "error: $: unknown map type 'nope'\n"


def test_the_readme_suite_table_matches_the_suites():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Verify suites and their options", 1)[1].split("\n###", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", table, flags=re.M)
    assert [suite for suite, _ in rows] == list(cli.SUITES)
    for suite, cell in rows:
        options = dict(re.findall(r"`--([a-z-]+)` \(([^)]*)\)", cell))
        assert set(options) == set(cli.SUITES[suite][1]), suite
        assert {o for o, note in options.items() if "required" in note} \
            == _required_options(suite), suite


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "who-knows")
    assert code == 2
    assert out == ""
    assert "argument suite: invalid choice: 'who-knows'" in err


def test_verify_theorem_b_small(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem-b", "--seed", "1",
                             "--cases", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    summary = json.loads(lines[-1])["summary"]
    assert summary["failures"] == 0
    assert "wall-time" in err


def test_verify_byte_identical_runs(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "theorem-c", "--seed", "9",
                             "--cases", "3", "--mobius-cases", "2")
    code2, out2, _ = run_cli(capsys, "verify", "theorem-c", "--seed", "9",
                             "--cases", "3", "--mobius-cases", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_pipeline_candidates(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem-3-1",
                           "--candidate", "atomic-inner")
    assert code == 0
    case = json.loads(out.splitlines()[0])
    assert case["verdict"] == "valence-unbounded"
    assert case["profile"] == [[0.9, 1], [0.99, 5], [0.999, 15]]

    code, out, _ = run_cli(capsys, "verify", "theorem-3-1",
                           "--candidate", '{"type":"mobius","alpha":[0.3,0],"lambda":[0.5,0.8660254037844386]}')
    assert code == 0
    assert json.loads(out.splitlines()[0])["verdict"] == "automorphism"

    code, out, _ = run_cli(capsys, "verify", "theorem-3-1",
                           "--candidate", "slit-power")
    assert code == 0
    assert json.loads(out.splitlines()[0])["verdict"] == "not-inner"


def test_verify_pipeline_expectation_mismatch_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem-3-1",
                           "--candidate", "atomic-inner", "--expect", "automorphism")
    assert code == 1


def test_verify_pipeline_names_the_critical_point_of_a_blaschke_candidate(capsys):
    candidate = '{"type":"blaschke","lambda":[1,0],"zeros":[[0.3,0.1],[-0.2,0.4]]}'
    code, out, _ = run_cli(capsys, "verify", "theorem-3-1", "--candidate", candidate,
                           "--bound", "2", "--expect", "vanishing-derivative")
    assert code == 0
    case = json.loads(out.splitlines()[0])
    assert case["verdict"] == "vanishing-derivative"
    assert "critical point 0.032369+0.237374i" in case["detail"]


def test_verify_hurwitz_demo_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, "verify", "hurwitz-demo", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "n,valence\n2,2\n10,2\n100,2\nlimit,1\n"


def test_gallery_emits_canonical_specs(capsys):
    code, out, _ = run_cli(capsys, "gallery", "half")
    assert code == 0
    assert json.loads(out) == {"type": "gallery", "name": "half"}

    code, out, _ = run_cli(capsys, "gallery", "scaled-exp")
    assert json.loads(out)["params"] == {"epsilon": 1e-10, "c": 10.0}

    code, out, _ = run_cli(capsys, "gallery", "slit-power", "--k", "2")
    assert json.loads(out)["params"] == {"k": 2}

    code, out, _ = run_cli(capsys, "gallery", "frostman", "--base", "atomic-inner",
                           "--a", "0.001")
    spec = json.loads(out)
    assert spec["params"]["base"] == {"type": "gallery", "name": "atomic-inner"}

    code, out, _ = run_cli(capsys, "gallery", "escape")
    assert json.loads(out)["params"] == {"n": 2}

    code, out, _ = run_cli(capsys, "gallery", "frostman", "--base", "atomic-inner")
    assert json.loads(out)["params"]["a"] == [0.0, 0.0]


def test_gallery_unknown_name_exits_2(capsys):
    code, _, err = run_cli(capsys, "gallery", "nope")
    assert code == 2
    assert "valid names" in err

    code, out, err = run_cli(capsys, "gallery", "frostman")
    assert code == 2
    assert out == ""
    assert "$.params.base" in err

    code, out, err = run_cli(capsys, "gallery", "half", "--k", "3")
    assert code == 2
    assert "$.params.k" in err


def test_map_from_file(tmp_path, capsys):
    spec_path = tmp_path / "map.json"
    spec_path.write_text('{"type":"gallery","name":"half"}')
    code, out, _ = run_cli(capsys, "eval", "--map", str(spec_path), "--z", "0.8")
    assert code == 0
    assert out.split()[0] == "0.4"
