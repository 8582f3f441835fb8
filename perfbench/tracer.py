"""Outside-in tracer: spans around the public functions of blaschke_lab.

Each function is wrapped at every name its callers look it up by: the
defining module's global, each module that imported it by name, and the
class attribute for ``DiscMapHandle.eval_many``.  Spans stay in memory
as tuples with the index of their parent span; layer statistics and the
span dump are computed from them after the run.  Tracing assumes one
thread: the benchmark switches it off around multi-threaded calls.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time

from blaschke_lab.valence import ERROR_MARK

# (layer name, defining module, attribute path)
TARGETS = (
    ("cli.main", "blaschke_lab.cli", "main"),
    ("mapspec.parse_map_spec", "blaschke_lab.mapspec", "parse_map_spec"),
    ("verifier.check_theorem_A", "blaschke_lab.verifier", "check_theorem_A"),
    ("verifier.check_theorem_3_1", "blaschke_lab.verifier", "check_theorem_3_1"),
    ("verifier.check_theorem_3_2", "blaschke_lab.verifier", "check_theorem_3_2"),
    ("verifier.demo_hurwitz_escape", "blaschke_lab.verifier", "demo_hurwitz_escape"),
    ("valence.valence_at", "blaschke_lab.valence", "valence_at"),
    ("valence.valence_profile", "blaschke_lab.valence", "valence_profile"),
    ("valence.valence_heatmap", "blaschke_lab.valence", "valence_heatmap"),
    ("valence.winding_number", "blaschke_lab.valence", "winding_number"),
    ("maps.eval_many", "blaschke_lab.maps", "DiscMapHandle.eval_many"),
    ("maps.blaschke_preimages", "blaschke_lab.maps", "blaschke_preimages"),
    ("maps.blaschke_critical_points", "blaschke_lab.maps", "blaschke_critical_points"),
    ("maps.blaschke_compose", "blaschke_lab.maps", "blaschke_compose"),
    ("maps.mobius_recover", "blaschke_lab.maps", "mobius_recover"),
    ("numerics.aberth_roots", "blaschke_lab.numerics", "aberth_roots"),
)

MAP_KINDS = ("blaschke", "atomic-inner", "slit-power", "scaled-exp", "other")


def map_kind(handle) -> str:
    """Gallery kind of an evaluation handle, from its public attributes."""
    if getattr(handle, "blaschke", None) is not None:
        return "blaschke"
    spec = getattr(handle, "spec", None) or {}
    if spec.get("type") == "gallery" and spec.get("name") in MAP_KINDS:
        return spec["name"]
    return "other"


def _eval_many_info(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return (int(getattr(z, "size", 1)), map_kind(args[0]))


def _aberth_info(args, kwargs, result):
    poly = args[0] if args else kwargs["p"]
    return poly.degree


def _heatmap_info(args, kwargs, result):
    return None if result is None else int((result.cells == ERROR_MARK).sum())


INFO = {
    "maps.eval_many": _eval_many_info,
    "numerics.aberth_roots": _aberth_info,
    "valence.valence_heatmap": _heatmap_info,
}


class Tracer:
    """Installs wrappers; records (name, parent, t0, t1, error, info) spans
    while ``enabled`` is true and passes calls straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.errors = {}
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        info_fn = INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                if not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True
                    tracer.errors[error] = tracer.errors.get(error, 0) + 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = info_fn(args, kwargs, result) if info_fn else None
                spans[index] = (name, parent, t0, t1, error, info)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self):
        """Wrap every target at each binding inside the blaschke_lab package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "blaschke_lab" or n.startswith("blaschke_lab.")) and m is not None]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def take(self):
        """Return and clear the spans and error counts recorded so far."""
        spans, errors = list(self.spans), dict(self.errors)
        self.spans.clear()
        self.errors.clear()
        return spans, errors


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_stats(spans, errors) -> dict:
    """Per-layer statistics of one traced pass.

    ``calls`` counts every span; ``s`` sums the spans with no ancestor of
    the same name, so recursion and nested map handles are not counted
    twice; ``self_s`` is span time minus the time of direct child spans.
    ``maps.eval_many`` counts, nodes and time are taken from outermost
    evaluations only, because a power, Frostman or composed handle
    evaluates its base through a nested ``eval_many``.
    """
    n = len(spans)
    child_time = [0.0] * n
    outermost = [True] * n          # no ancestor with the same name
    under_valence_at = [False] * n
    for i, (name, parent, t0, t1, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][1]
            outermost[i] = anc < 0
            under_valence_at[i] = (spans[parent][0] == "valence.valence_at"
                                   or under_valence_at[parent])

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    out = {}
    for name, _, _ in TARGETS:
        idx = by_name.get(name, [])
        durations = [spans[i][3] - spans[i][2] for i in idx]
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.s"] = sum(d for i, d in zip(idx, durations) if outermost[i])
        out[f"{name}.self_s"] = sum(d - child_time[i] for i, d in zip(idx, durations))
        out[f"{name}.errors"] = sum(1 for i in idx if spans[i][4] is not None)
        out[f"{name}.p50_ms"] = _percentile_ms(durations, 50)
        out[f"{name}.p99_ms"] = _percentile_ms(durations, 99)

    evals = [i for i in by_name.get("maps.eval_many", []) if outermost[i]]
    nodes = sum(spans[i][5][0] for i in evals)
    eval_s = out["maps.eval_many.s"]
    out["maps.eval_many.calls"] = len(evals)
    out["maps.eval_many.nodes"] = nodes
    out["maps.eval_many.nodes_per_call"] = nodes / len(evals) if evals else 0.0
    out["maps.eval_many.ns_per_node"] = eval_s * 1e9 / nodes if nodes else 0.0
    for kind in MAP_KINDS:
        out[f"maps.eval_many.nodes.{kind}"] = sum(
            spans[i][5][0] for i in evals if spans[i][5][1] == kind)

    winding = by_name.get("valence.winding_number", [])
    targets = out["valence.valence_at.calls"]
    per_target = sum(1 for i in winding if under_valence_at[i])
    out["valence.winding_number.per_target"] = per_target / targets if targets else 0.0
    out["valence.winding_number.ok_ratio"] = (
        sum(1 for i in winding if spans[i][4] is None) / len(winding) if winding else 0.0)

    degrees = [spans[i][5] for i in by_name.get("numerics.aberth_roots", [])]
    out["numerics.aberth_roots.mean_degree"] = (
        sum(degrees) / len(degrees) if degrees else 0.0)
    out["valence.valence_heatmap.error_cells"] = sum(
        spans[i][5] or 0 for i in by_name.get("valence.valence_heatmap", []))

    for cls, count in errors.items():
        out[f"errors.{cls}.count"] = count
    return out


def dump_spans(path, passes) -> None:
    """Write the spans of every traced pass as gzipped CSV rows
    pass,index,name,parent,t0,t1,error,info."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,index,name,parent,t0,t1,error,info\n")
        for p, spans in enumerate(passes):
            for i, (name, parent, t0, t1, error, info) in enumerate(spans):
                info_text = "" if info is None else (
                    f"{info[0]}:{info[1]}" if isinstance(info, tuple) else str(info))
                fh.write(f"{p},{i},{name},{parent},{t0:.9f},{t1:.9f},"
                         f"{error or ''},{info_text}\n")
