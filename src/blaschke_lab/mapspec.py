"""Recursive JSON map specs: the wire format for naming maps on the CLI.

    {"type": "mobius", "alpha": [re, im], "lambda": [re, im]}
    {"type": "blaschke", "lambda": [re, im], "zeros": [[re, im], ...]}
    {"type": "compose", "outer": <spec>, "inner": <spec>}
    {"type": "gallery", "name": <string>, "params": {...}}

Parse failures name the offending node path, e.g. "$.outer.zeros[2]".
"""

from __future__ import annotations

import json
import math

from .errors import MapSpecError
from .gallery import (
    GALLERY_NAMES,
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


def parse_map_spec(data, path: str = "$") -> DiscMapHandle:
    """Turn a spec object (or JSON string) into an evaluation handle."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as err:
            raise MapSpecError(f"not valid JSON: {err}", path) from err
    if not isinstance(data, dict):
        raise MapSpecError("map spec node must be a JSON object", path)
    kind = data.get("type")
    if kind == "mobius":
        alpha = _complex_from(data.get("alpha"), f"{path}.alpha")
        lam = _complex_from(data.get("lambda"), f"{path}.lambda")
        try:
            handle = mobius_handle(MobiusAutomorphism(alpha=alpha, lam=lam))
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
        handle.spec = dict(data)
        return handle
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
        handle.spec = dict(data)
        return handle
    if kind == "compose":
        outer = parse_map_spec(data.get("outer"), f"{path}.outer")
        inner = parse_map_spec(data.get("inner"), f"{path}.inner")
        if (outer.blaschke is not None and inner.blaschke is not None
                and outer.blaschke.degree >= 1 and inner.blaschke.degree >= 1):
            handle = blaschke_handle(blaschke_compose(outer.blaschke, inner.blaschke))
        else:
            handle = compose_handles(outer, inner)
        handle.spec = {"type": "compose", "outer": outer.spec, "inner": inner.spec}
        return handle
    if kind == "gallery":
        return _parse_gallery(data, path)
    raise MapSpecError(f"unknown map type {kind!r}", path)


def _parse_gallery(data, path):
    name = data.get("name")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise MapSpecError("params must be an object", f"{path}.params")
    if name == "half":
        return make_half_map()
    if name == "scaled-exp":
        epsilon = _number_from(params.get("epsilon", 1e-10), f"{path}.params.epsilon")
        c = _number_from(params.get("c", 10.0), f"{path}.params.c")
        try:
            return make_scaled_exponential(epsilon, c)
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
    if name == "slit-g":
        return make_slit_map()
    if name == "slit-power":
        k = _number_from(params.get("k", 2), f"{path}.params.k")
        try:
            return make_slit_power(k)
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
    if name == "atomic-inner":
        return make_atomic_inner()
    if name == "frostman":
        base_node = params.get("base")
        if base_node is None:
            raise MapSpecError("frostman needs a base map spec", f"{path}.params.base")
        base = parse_map_spec(base_node, f"{path}.params.base")
        a = _complex_from(params.get("a", [0.0, 0.0]), f"{path}.params.a")
        try:
            return frostman_shift(base, a)
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
    if name == "escape":
        n = _number_from(params.get("n", 2), f"{path}.params.n")
        try:
            return make_escape_sequence(n)
        except ValueError as err:
            raise MapSpecError(str(err), path) from err
    raise MapSpecError(
        f"unknown gallery name {name!r}; valid names: {', '.join(GALLERY_NAMES)}",
        f"{path}.name")


def gallery_spec(name: str, params: dict | None = None) -> dict:
    """Canonical spec JSON for a gallery member (validates by construction)."""
    node = {"type": "gallery", "name": name}
    if params:
        node["params"] = dict(params)
    return parse_map_spec(node).spec
