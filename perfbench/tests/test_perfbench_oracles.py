"""The oracles agree with the program's own enumerations, and a result
altered after the program produced it is counted as failed and wrong."""

import cmath
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from blaschke_lab import gallery  # noqa: E402


def _targets(count=40, seed=5):
    rng = np.random.default_rng(seed)
    return [complex(0.95 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))
            for _ in range(count)]


def test_closed_forms_match_gallery_enumerations():
    for w in _targets():
        for rho in (0.5, 0.9, 0.99, 0.999):
            assert oracles.atomic_inner_count(w, rho) == gallery.atomic_preimage_count(rho, w)
            assert oracles.slit_square_count(w, rho) == sum(
                abs(z) < rho for z in gallery.power_preimages(w, 2))
    for w in (1e-10, -1e-10, 0.5, 3e-9j, -2e-11 + 1e-11j):
        assert oracles.scaled_exp_count(w, 1.0) == len(gallery.scaled_exp_preimages(w))


def _op(ops, key):
    return next(op for op in ops if op.key == key)


def test_a_corrupted_heatmap_cell_is_counted():
    op = _op(workloads.build_heatmap(3, 0), "heatmap-square")
    outcome = op.run()
    clean = op.check(outcome)
    assert clean.items > 1000 and clean.failed == clean.wrong == 0

    lines = outcome.output.splitlines()
    i = next(k for k, line in enumerate(lines) if line.endswith(",2"))
    for replacement, wrong in ((",3", 1), (",-2", 0)):
        altered = lines[:i] + [lines[i][:-2] + replacement] + lines[i + 1:]
        outcome.output = "\n".join(altered) + "\n"
        verdict = op.check(outcome)
        assert (verdict.items, verdict.failed, verdict.wrong) == (clean.items, 1, wrong)


def test_a_corrupted_valence_is_counted():
    op = workloads.cli_op("a", ["verify", "theorem-a", "--seed", "2", "--cases", "2",
                                "--targets", "3"], workloads._theorem_a_check)
    outcome = op.run()
    assert op.check(outcome) == workloads.Verdict(8, 0, 0)
    lines = outcome.output.splitlines()
    case = json.loads(lines[0])
    case["valence"] += 1
    outcome.output = "\n".join([json.dumps(case)] + lines[1:]) + "\n"
    assert op.check(outcome) == workloads.Verdict(8, 1, 1)


def test_a_corrupted_solver_root_and_changed_bytes_are_counted():
    ops = workloads.build_solvers(4, 0)
    op = next(op for op in ops if op.key == "preimages-0")   # mpmath spot-checked
    outcome = op.run()
    assert op.check(outcome) == workloads.Verdict(1, 0, 0)

    ledger = run.Ledger(reference=None)
    ledger.record(0, [op], [outcome])
    rs = outcome.value
    moved = (rs.roots[0] + 1e-6,) + rs.roots[1:]
    outcome.value = type(rs)(moved, rs.multiplicities, rs.residuals)
    assert op.check(outcome) == workloads.Verdict(1, 1, 1)

    outcome.value = rs
    outcome.output += " "
    ledger.record(0, [op], [outcome])
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (2, 1, 1)

    stale = run.Ledger(reference=["0" * 16])
    stale.record(0, [op], [outcome])
    stale.check_reference()
    assert (stale.attempted, stale.failed, stale.wrong) == (1, 1, 1)


def test_passes_draw_fresh_inputs_from_seed_and_pass():
    first, again, other = (workloads.build_solvers(7, p) for p in (0, 0, 1))
    outputs = [[op.run().output for op in ops[:5]] for ops in (first, again, other)]
    assert outputs[0] == outputs[1]
    assert set(outputs[0]).isdisjoint(outputs[2])


def test_calibration_units_run_inside_an_op_and_are_taken_out_of_its_time():
    import calibrate

    def busy():
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
        return workloads.Outcome("", 0, None)

    sampler = calibrate.Sampler()
    sampler.take_scale = lambda: 1.0          # only units run inside the op count
    try:
        total, seconds, _, _ = run.run_pass([workloads.Op("busy", busy, None)], sampler)
    finally:
        sampler.close()
    assert sampler.spent > 0.003              # about one 0.7 ms unit every 7 ms
    assert seconds == [total] and abs(total + sampler.spent - 0.05) < 0.005
