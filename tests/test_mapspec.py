import json

import pytest

from blaschke_lab.errors import MapSpecError
from blaschke_lab.mapspec import GALLERY, gallery_spec, parse_map_spec


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
    # unhashable names are unknown names too, not a TypeError
    with pytest.raises(MapSpecError) as info:
        parse_map_spec({"type": ["mobius"]})
    assert info.value.path == "$"
    with pytest.raises(MapSpecError) as info:
        parse_map_spec({"type": "gallery", "name": ["half"]})
    assert info.value.path == "$.name"


def test_bad_field_names_path():
    with pytest.raises(MapSpecError) as info:
        parse_map_spec({"type": "blaschke", "lambda": [1, 0],
                        "zeros": [[0, 0], [7]]})
    assert info.value.path == "$.zeros[1]"
    with pytest.raises(MapSpecError, match=r"list of \[re, im\] pairs") as info:
        parse_map_spec({"type": "blaschke", "lambda": [1, 0], "zeros": 3})
    assert info.value.path == "$.zeros"
    with pytest.raises(MapSpecError, match="params must be an object") as info:
        parse_map_spec({"type": "gallery", "name": "half", "params": []})
    assert info.value.path == "$.params"


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


@pytest.mark.parametrize("node, path", [
    ({"type": "compose", "outer": '{"type":"gallery","name":"half"}',
      "inner": {"type": "gallery", "name": "half"}}, "$.outer"),
    ({"type": "compose", "outer": {"type": "gallery", "name": "half"},
      "inner": "slit-power"}, "$.inner"),
    ({"type": "gallery", "name": "frostman",
      "params": {"base": '{"type":"gallery","name":"atomic-inner"}'}}, "$.params.base"),
], ids=["encoded-outer", "bare-name-inner", "encoded-frostman-base"])
def test_only_the_root_is_decoded_from_json_text(node, path):
    for data in (node, json.dumps(node)):
        with pytest.raises(MapSpecError) as info:
            parse_map_spec(data)
        assert info.value.path == path
        assert "map spec node must be a JSON object" in str(info.value)


HALF = {"type": "gallery", "name": "half"}
SQUARE = {"type": "blaschke", "lambda": [1, 0], "zeros": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("node, path", [
    ({"type": "mobius", "alpha": [0, 0], "lambda": [1, 0], "extra": 1}, "$.extra"),
    (dict(SQUARE, extra=1), "$.extra"),
    ({"type": "compose", "outer": HALF, "inenr": HALF}, "$.inenr"),
    ({"type": "gallery", "name": "half", "parms": {}}, "$.parms"),
    ({"type": "gallery", "name": "scaled-exp", "params": {"eps": 1e-5}}, "$.params.eps"),
    ({"type": "gallery", "name": "half", "params": {"k": 9}}, "$.params.k"),
    ({"type": "compose", "outer": HALF, "inner": dict(SQUARE, extra=1)}, "$.inner.extra"),
    ({"type": "gallery", "name": "frostman",
      "params": {"base": {"type": "gallery", "name": "escape", "params": {"m": 3}}}},
     "$.params.base.params.m"),
], ids=["mobius", "blaschke", "compose", "gallery", "scaled-exp-param", "half-param",
        "nested-compose", "frostman-base"])
def test_unknown_keys_are_spec_errors_at_their_path(node, path):
    with pytest.raises(MapSpecError) as info:
        parse_map_spec(node)
    assert info.value.path == path
    assert repr(path.rsplit(".", 1)[1]) in str(info.value)


def test_gallery_spec_fills_defaults():
    spec = gallery_spec("scaled-exp")
    assert spec["params"] == {"epsilon": 1e-10, "c": 10.0}
    spec = gallery_spec("slit-power", {"k": 3})
    assert spec["params"]["k"] == 3
    assert json.dumps(spec)  # JSON-serializable


def test_gallery_spec_roundtrips_through_parser():
    for name in GALLERY:
        spec = gallery_spec(name, {"base": HALF} if name == "frostman" else None)
        handle = parse_map_spec(spec)
        assert handle.spec == spec
        assert handle.eval(0.2 + 0.1j)
