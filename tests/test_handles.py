"""Map handles are built once: every constructor returns a frozen
DiscMapHandle that compares and hashes by identity, every dataclass of the
package is frozen, and a parsed spec echoes its input."""

import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import blaschke_lab
from blaschke_lab.cli import main
from blaschke_lab.gallery import make_atomic_inner, make_half_map, make_limit_of_escape
from blaschke_lab.maps import (
    BlaschkeProduct,
    DiscMapHandle,
    MobiusAutomorphism,
    blaschke_handle,
    compose_handles,
    identity_handle,
    mobius_handle,
    opaque,
)
from blaschke_lab.mapspec import GALLERY, NODE_KEYS, parse_map_spec

PRODUCT = BlaschkeProduct(lam=1.0 + 0j, zeros=(0.2 + 0j, -0.4j))
MOBIUS = {"type": "mobius", "alpha": [0, 0], "lambda": [1, 0]}
BLASCHKE = {"type": "blaschke", "lambda": [1, 0], "zeros": [[0, 0], [0.5, 0]]}
HALF = {"type": "gallery", "name": "half"}

# one spec per node type; compose twice, for its structural and generic branch
NODES = {
    "mobius": MOBIUS,
    "blaschke": BLASCHKE,
    "compose": {"type": "compose", "outer": BLASCHKE, "inner": MOBIUS},
    "compose-generic": {"type": "compose", "outer": HALF, "inner": BLASCHKE},
    "gallery": HALF,
}

CONSTRUCTORS = {
    "blaschke_handle": lambda: blaschke_handle(PRODUCT),
    "mobius_handle": lambda: mobius_handle(MobiusAutomorphism(alpha=0.3 + 0j, lam=1j)),
    "identity_handle": identity_handle,
    "compose_handles": lambda: compose_handles(make_half_map(), blaschke_handle(PRODUCT)),
    "opaque": lambda: opaque(blaschke_handle(PRODUCT)),
    "make_limit_of_escape": make_limit_of_escape,
    **{f"gallery-{name}": (lambda factory=factory, name=name:
                           factory(base=make_half_map()) if name == "frostman" else factory())
       for name, (factory, _) in GALLERY.items()},
    **{f"parse-{kind}": (lambda node=node: parse_map_spec(node)) for kind, node in NODES.items()},
}


def test_the_nodes_cover_every_node_type():
    assert {node["type"] for node in NODES.values()} == set(NODE_KEYS)


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_handles_are_frozen_and_compare_by_identity(build):
    handle = build()
    assert isinstance(handle, DiscMapHandle)
    for name in ("fn", "descriptor", "spec", "blaschke", "inner"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(handle, name, getattr(handle, name))
    twin = dataclasses.replace(handle)
    assert handle == handle and handle != twin
    assert hash(handle) == object.__hash__(handle)


def test_every_dataclass_of_the_package_is_frozen():
    classes = {}
    for info in pkgutil.iter_modules(blaschke_lab.__path__):
        module = importlib.import_module(f"blaschke_lab.{info.name}")
        classes.update((name, cls) for name, cls in inspect.getmembers(module, inspect.isclass)
                       if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__)
    assert {"DiscMapHandle", "HeatmapGrid", "BlaschkeProduct"} <= set(classes)
    assert [name for name, cls in classes.items()
            if not cls.__dataclass_params__.frozen] == []


@pytest.mark.parametrize("node", [MOBIUS, BLASCHKE], ids=["mobius", "blaschke"])
def test_a_parsed_spec_echoes_its_input(node):
    spec = parse_map_spec(json.dumps(node)).spec
    # [0, 0] == [0.0, 0.0] in Python, so the JSON text is what tells them apart
    assert json.dumps(spec) == json.dumps(node)


def test_the_theorem_3_1_candidate_record_echoes_the_spec(capsys):
    assert main(["verify", "theorem-3-1", "--candidate", json.dumps(MOBIUS)]) == 0
    record = capsys.readouterr().out.splitlines()[0]
    assert '"candidate":{"alpha":[0,0],"lambda":[1,0],"type":"mobius"}' in record


# the gallery's inner flags; a Frostman shift keeps its base's flag
GALLERY_INNER = {"half": False, "scaled-exp": False, "slit-g": False, "slit-power": False,
                 "atomic-inner": True, "escape": True}


def test_every_gallery_constructor_sets_the_inner_flag():
    assert set(GALLERY_INNER) | {"frostman"} == set(GALLERY)
    for name, (factory, _) in GALLERY.items():
        if name == "frostman":
            for base in (make_half_map(), make_atomic_inner()):
                assert factory(base=base, a=0.5j).inner is base.inner
        else:
            assert factory().inner is GALLERY_INNER[name], name
    assert make_limit_of_escape().inner is True


SQUARE = blaschke_handle(BlaschkeProduct(lam=1.0 + 0j, zeros=(0j, 0j)))
UNIMODULAR = blaschke_handle(BlaschkeProduct(lam=1j, zeros=()))
SHIFT = mobius_handle(MobiusAutomorphism(alpha=0.5 + 0j, lam=1.0 + 0j))


@pytest.mark.parametrize("outer, inner, flag", [
    (SQUARE, SHIFT, True),                   # two Blaschke products
    (SQUARE, make_atomic_inner(), True),     # after an inner map, the outer's flag
    (make_half_map(), make_atomic_inner(), False),
    (SHIFT, make_half_map(), False),         # an automorphism keeps the inner's flag
    (SHIFT, make_atomic_inner(), True),
    (SHIFT, opaque(SQUARE), None),
    (make_atomic_inner(), make_half_map(), None),
    (make_half_map(), opaque(SQUARE), None),
    (make_half_map(), UNIMODULAR, None),     # after a constant, nothing follows
], ids=["blaschke", "inner-outer", "half-outer", "shift-half", "shift-atomic",
        "shift-opaque", "after-half", "after-opaque", "after-constant"])
def test_compose_handles_sets_the_inner_flag_by_structure(outer, inner, flag):
    assert compose_handles(outer, inner).inner is flag


def test_opaque_and_plain_handles_do_not_know_whether_they_are_inner():
    assert opaque(SQUARE).inner is None
    assert DiscMapHandle(SQUARE.fn, "plain").inner is None
    assert parse_map_spec(BLASCHKE).inner is True
    assert parse_map_spec(NODES["compose-generic"]).inner is False
