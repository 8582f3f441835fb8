import json

import pytest

from blaschke_lab.errors import MapSpecError
from blaschke_lab.mapspec import gallery_spec, parse_map_spec


def test_parse_mobius():
    handle = parse_map_spec({"type": "mobius", "alpha": [0.3, 0.0],
                             "lambda": [0.0, 1.0]})
    v, _ = handle.eval(0.3)
    assert abs(v) < 1e-15
    assert handle.blaschke is not None and handle.blaschke.degree == 1


def test_parse_blaschke():
    handle = parse_map_spec({"type": "blaschke", "lambda": [1.0, 0.0],
                             "zeros": [[0.0, 0.0], [0.0, 0.0]]})
    v, _ = handle.eval(0.5)
    assert abs(v - 0.25) < 1e-15


def test_parse_from_json_string():
    handle = parse_map_spec('{"type": "gallery", "name": "half"}')
    v, _ = handle.eval(0.8)
    assert v == 0.4 + 0j


def test_parse_compose_structural():
    node = {"type": "compose",
            "outer": {"type": "blaschke", "lambda": [1, 0], "zeros": [[0, 0], [0, 0]]},
            "inner": {"type": "blaschke", "lambda": [1, 0], "zeros": [[0, 0], [0, 0], [0, 0]]}}
    handle = parse_map_spec(node)
    assert handle.blaschke is not None
    assert handle.blaschke.degree == 6
    v, _ = handle.eval(0.9)
    assert abs(v - 0.9 ** 6) < 1e-12


def test_parse_compose_generic_with_gallery():
    node = {"type": "compose",
            "outer": {"type": "gallery", "name": "half"},
            "inner": {"type": "gallery", "name": "atomic-inner"}}
    handle = parse_map_spec(node)
    import math
    v, _ = handle.eval(0.0)
    assert abs(v - 0.5 * math.exp(-1)) < 1e-15


def test_parse_gallery_with_params():
    handle = parse_map_spec({"type": "gallery", "name": "scaled-exp",
                             "params": {"epsilon": 1e-8, "c": 5.0}})
    v, _ = handle.eval(0.0)
    assert abs(v - 1e-8) < 1e-20


def test_parse_frostman_nested():
    node = {"type": "gallery", "name": "frostman",
            "params": {"base": {"type": "gallery", "name": "atomic-inner"},
                       "a": [0.0, 0.0]}}
    handle = parse_map_spec(node)
    import math
    v, _ = handle.eval(0.0)
    assert abs(v + math.exp(-1)) < 1e-15


def test_unknown_type_names_path():
    with pytest.raises(MapSpecError) as info:
        parse_map_spec({"type": "compose",
                        "outer": {"type": "gallery", "name": "half"},
                        "inner": {"type": "wat"}})
    assert info.value.path == "$.inner"


def test_bad_field_names_path():
    with pytest.raises(MapSpecError) as info:
        parse_map_spec({"type": "blaschke", "lambda": [1, 0],
                        "zeros": [[0, 0], [7]]})
    assert info.value.path == "$.zeros[1]"


def test_invariant_violation_is_spec_error():
    with pytest.raises(MapSpecError):
        parse_map_spec({"type": "mobius", "alpha": [2.0, 0.0], "lambda": [1, 0]})
    with pytest.raises(MapSpecError):
        parse_map_spec({"type": "mobius", "alpha": [0.0, 0.0], "lambda": [2, 0]})


def test_not_an_object():
    with pytest.raises(MapSpecError):
        parse_map_spec([1, 2, 3])
    with pytest.raises(MapSpecError):
        parse_map_spec("{oops")


@pytest.mark.parametrize("text", [
    '{"type":"gallery","name":"slit-power","params":{"k":Infinity}}',
    '{"type":"gallery","name":"slit-power","params":{"k":NaN}}',
    '{"type":"gallery","name":"slit-power","params":{"k":2.5}}',
    '{"type":"gallery","name":"escape","params":{"n":-Infinity}}',
    '{"type":"gallery","name":"escape","params":{"n":2.5}}',
    '{"type":"gallery","name":"scaled-exp","params":{"epsilon":NaN}}',
    '{"type":"gallery","name":"scaled-exp","params":{"c":Infinity}}',
], ids=["k-inf", "k-nan", "k-fraction", "n-inf", "n-fraction", "epsilon-nan", "c-inf"])
def test_malformed_gallery_params_are_spec_errors(text):
    with pytest.raises(MapSpecError):
        parse_map_spec(text)


def test_gallery_spec_fills_defaults():
    spec = gallery_spec("scaled-exp")
    assert spec["params"] == {"epsilon": 1e-10, "c": 10.0}
    spec = gallery_spec("slit-power", {"k": 3})
    assert spec["params"]["k"] == 3
    assert json.dumps(spec)  # JSON-serializable


def test_gallery_spec_roundtrips_through_parser():
    for name in ("half", "scaled-exp", "slit-g", "slit-power", "atomic-inner", "escape"):
        spec = gallery_spec(name)
        handle = parse_map_spec(spec)
        assert handle.eval(0.2 + 0.1j)
