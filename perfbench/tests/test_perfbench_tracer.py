"""The outside-in tracer counts exactly what a profiler hook sees."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer as tracer_mod  # noqa: E402
from blaschke_lab import cli, maps, mapspec, numerics, valence, verifier  # noqa: E402


def _profile_counts(fn):
    """Independent count of calls (and eval_many nodes) via sys.setprofile."""
    codes = {maps.DiscMapHandle.eval_many.__code__: "maps.eval_many",
             valence.winding_number.__code__: "valence.winding_number",
             valence.valence_at.__code__: "valence.valence_at",
             numerics.aberth_roots.__code__: "numerics.aberth_roots"}
    counts = dict.fromkeys(codes.values(), 0)
    counts["nodes"] = 0

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            name = codes[frame.f_code]
            counts[name] += 1
            if name == "maps.eval_many":
                counts["nodes"] += int(np.size(frame.f_locals["z"]))

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def _traced(fn):
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        fn()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return tracer_mod.layer_stats(*tracer.take())


def test_counts_match_a_profiler_on_a_small_seeded_run():
    run = lambda: verifier.check_theorem_A(3, 2, 4)  # noqa: E731
    expected = _profile_counts(run)
    stats = _traced(run)
    for name in ("maps.eval_many", "valence.winding_number", "valence.valence_at",
                 "numerics.aberth_roots"):
        assert stats[f"{name}.calls"] == expected[name] > 0, name
    assert stats["maps.eval_many.nodes"] == expected["nodes"]
    assert sum(stats[f"maps.eval_many.nodes.{k}"] for k in tracer_mod.MAP_KINDS) \
        == expected["nodes"]
    assert stats["valence.valence_at.calls"] == 2 * 4 + 3
    assert 0 <= stats["valence.winding_number.self_s"] <= stats["valence.winding_number.s"]


def test_uninstall_restores_every_binding():
    originals = (cli.main, cli.valence_at, verifier.valence_at, valence.winding_number,
                 maps.DiscMapHandle.__dict__["eval_many"], maps.aberth_roots,
                 mapspec.parse_map_spec)
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert verifier.valence_at is cli.valence_at is not originals[2]
    tracer.uninstall()
    assert (cli.main, cli.valence_at, verifier.valence_at, valence.winding_number,
            maps.DiscMapHandle.__dict__["eval_many"], maps.aberth_roots,
            mapspec.parse_map_spec) == originals


def test_an_exception_counts_once_across_nested_boundaries():
    bad = '{"type":"compose","outer":{"type":"wat"},"inner":{"type":"mobius",' \
          '"alpha":[0,0],"lambda":[1,0]}}'
    stats = _traced(lambda: cli.main(["eval", "--map", bad, "--z", "0.1"]))
    assert stats["mapspec.parse_map_spec.calls"] == 2
    assert stats["mapspec.parse_map_spec.errors"] == 2   # the nested call and cli's call
    assert stats["errors.MapSpecError.count"] == 1
    assert stats["cli.main.errors"] == 0                  # main turns it into exit code 2
