"""Recursive JSON map specs: the wire format for naming maps on the CLI.

    {"type": "mobius", "alpha": [re, im], "lambda": [re, im]}
    {"type": "blaschke", "lambda": [re, im], "zeros": [[re, im], ...]}
    {"type": "compose", "outer": <spec>, "inner": <spec>}
    {"type": "gallery", "name": <string>, "params": {...}}

Parse failures name the offending node path, e.g. "$.outer.zeros[2]";
a key a node does not take is one such failure, e.g. "$.params.eps".
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import replace

from .errors import MapSpecError
from .gallery import (
    frostman_shift,
    make_atomic_inner,
    make_escape_sequence,
    make_half_map,
    make_scaled_exponential,
    make_slit_map,
    make_slit_power,
)
from .maps import (
    BlaschkeProduct,
    DiscMapHandle,
    MobiusAutomorphism,
    blaschke_compose,
    blaschke_handle,
    compose_handles,
    mobius_handle,
)


def _complex_from(node, path):
    if (not isinstance(node, (list, tuple)) or len(node) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)):
        raise MapSpecError("expected a [re, im] pair of numbers", path)
    return complex(node[0], node[1])


def _number_from(node, path):
    if (not isinstance(node, (int, float)) or isinstance(node, bool)
            or not math.isfinite(node)):
        raise MapSpecError("expected a finite number", path)
    return node


def _spec_from(node, path):
    # looks parse_map_spec up at call time, as the compose branch does, so
    # that a wrapper installed on that name also sees nested frostman bases
    return parse_map_spec(node, path)


# The keys each node type takes besides "type".
NODE_KEYS = {
    "mobius": ("alpha", "lambda"),
    "blaschke": ("lambda", "zeros"),
    "compose": ("outer", "inner"),
    "gallery": ("name", "params"),
}

# name -> (factory, reader of each parameter); the factory's signature
# holds the defaults, and a parameter without one is required.
GALLERY = {
    "half": (make_half_map, {}),
    "scaled-exp": (make_scaled_exponential, {"epsilon": _number_from, "c": _number_from}),
    "slit-g": (make_slit_map, {}),
    "slit-power": (make_slit_power, {"k": _number_from}),
    "atomic-inner": (make_atomic_inner, {}),
    "frostman": (frostman_shift, {"base": _spec_from, "a": _complex_from}),
    "escape": (make_escape_sequence, {"n": _number_from}),
}


def _reject_unknown_keys(node: dict, known, path: str):
    for key in node:
        if key not in known:
            raise MapSpecError(f"unknown key {key!r} (known: {', '.join(known) or 'none'})",
                               f"{path}.{key}")


def parse_map_spec(data, path: str = "$") -> DiscMapHandle:
    """Turn a spec object (or, at the root only, JSON text) into an evaluation handle."""
    if isinstance(data, str) and path == "$":
        try:
            data = json.loads(data)
        except json.JSONDecodeError as err:
            raise MapSpecError(f"not valid JSON: {err}", path) from err
    if not isinstance(data, dict):
        raise MapSpecError("map spec node must be a JSON object", path)
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in NODE_KEYS:
        raise MapSpecError(f"unknown map type {kind!r}", path)
    _reject_unknown_keys(data, ("type",) + NODE_KEYS[kind], path)
    if kind == "mobius":
        alpha = _complex_from(data.get("alpha"), f"{path}.alpha")
        lam = _complex_from(data.get("lambda"), f"{path}.lambda")
        try:
            handle = mobius_handle(MobiusAutomorphism(alpha=alpha, lam=lam))
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
        return replace(handle, spec=dict(data))
    if kind == "blaschke":
        lam = _complex_from(data.get("lambda"), f"{path}.lambda")
        zeros_node = data.get("zeros")
        if not isinstance(zeros_node, list):
            raise MapSpecError("expected a list of [re, im] pairs", f"{path}.zeros")
        zeros = tuple(_complex_from(zn, f"{path}.zeros[{i}]")
                      for i, zn in enumerate(zeros_node))
        try:
            handle = blaschke_handle(BlaschkeProduct(lam=lam, zeros=zeros))
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
        return replace(handle, spec=dict(data))
    if kind == "compose":
        outer = parse_map_spec(data.get("outer"), f"{path}.outer")
        inner = parse_map_spec(data.get("inner"), f"{path}.inner")
        if (outer.blaschke is not None and inner.blaschke is not None
                and outer.blaschke.degree >= 1 and inner.blaschke.degree >= 1):
            handle = blaschke_handle(blaschke_compose(outer.blaschke, inner.blaschke))
        else:
            handle = compose_handles(outer, inner)
        return replace(handle, spec={"type": "compose", "outer": outer.spec,
                                     "inner": inner.spec})
    return _parse_gallery(data, path)


def _parse_gallery(data, path):
    name = data.get("name")
    if not isinstance(name, str) or name not in GALLERY:
        raise MapSpecError(
            f"unknown gallery name {name!r}; valid names: {', '.join(GALLERY)}",
            f"{path}.name")
    factory, readers = GALLERY[name]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise MapSpecError("params must be an object", f"{path}.params")
    _reject_unknown_keys(params, readers, f"{path}.params")
    for key, slot in inspect.signature(factory).parameters.items():
        if slot.default is slot.empty and key not in params:
            raise MapSpecError(f"{name} needs a {key!r} parameter", f"{path}.params.{key}")
    kwargs = {key: read(params[key], f"{path}.params.{key}")
              for key, read in readers.items() if key in params}
    try:
        return factory(**kwargs)
    except ValueError as err:
        raise MapSpecError(str(err), path) from err


def gallery_spec(name: str, params: dict | None = None) -> dict:
    """Canonical spec JSON for a gallery member (validates by construction)."""
    node = {"type": "gallery", "name": name}
    if params:
        node["params"] = dict(params)
    return parse_map_spec(node).spec
