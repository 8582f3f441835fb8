"""Outside-in benchmark of blaschke-lab.

Run from the repository root:

    python3 perfbench/run.py --workload theorem-a --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs per interpreter; ``--workload all`` starts one fresh
interpreter per workload.  With ``--trace 0`` the run prints the
end-to-end metrics listed in BENCHMARK.json, with ``--trace 1`` the
per-layer metrics from the outside-in tracer.  Human-readable lines come
first; the last line of stdout is one JSON object.  A result file with
the environment, sizes and every figure goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("theorem-a", "heatmap", "solvers", "gallery-suites")
SETUP_PROBES = 7
MIN_PASSES = 2
DEFAULT_SEED = 1
REFERENCE = HERE / "reference_digests.json"

# Counts of check_theorem_A(1, 10, 50) when this benchmark was defined;
# traced theorem-a runs report whether the tracer still reproduces them.
TRACER_BASELINE = {"maps.eval_many.calls": 27885, "maps.eval_many.nodes": 686046,
                   "valence.winding_number.calls": 7830, "valence.valence_at.calls": 503,
                   "numerics.aberth_roots.calls": 500}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default 1, whose outputs are checked "
                             "against perfbench/reference_digests.json)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's output digests as the reference "
                             "for the default seed")
    return parser.parse_args(argv)


def import_program(root: Path):
    """Put the checkout's src/ first on sys.path and import blaschke_lab from it."""
    src = root / "src"
    if not (src / "blaschke_lab" / "__init__.py").is_file():
        raise BenchError(f"no blaschke_lab package under {src}")
    os.environ["BLASCHKE_LAB_THREADS"] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import blaschke_lab.cli
    if src.resolve() not in Path(blaschke_lab.__file__).resolve().parents:
        raise BenchError(f"blaschke_lab imported from {blaschke_lab.__file__}, not {src}")


def load_metric_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = root / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def environment(root: Path, args, sizes) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": git_commit(root),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "sizes": sizes,
            "BLASCHKE_LAB_THREADS": os.environ.get("BLASCHKE_LAB_THREADS")}


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, each timed from inside
    and scaled by the host speed its own calibration units saw."""
    env = dict(os.environ, BLASCHKE_LAB_THREADS="1")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, env=env)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(dict(zip(("raw_s", "scale"), map(float, proc.stdout.split()[-2:]))))
    return times


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Ledger:
    """Judges every outcome: oracle verdicts, byte-identity between two
    runs of the same inputs and, for the default seed, each pass's outputs
    against the committed reference digest of that pass."""

    def __init__(self, reference):
        self.reference = reference
        self.digests = {}                 # pass index -> {op key: digest}
        self.attempted = self.failed = self.wrong = 0
        self.notes = []

    def _bad(self, note):
        self.failed += 1
        self.wrong += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def record(self, pass_index, ops, outcomes):
        seen = self.digests.setdefault(pass_index, {})
        for op, outcome in zip(ops, outcomes):
            verdict = op.check(outcome)
            self.attempted += verdict.items
            self.failed += verdict.failed
            self.wrong += verdict.wrong
            digest = _digest(outcome.output)
            if seen.setdefault(op.key, digest) != digest:
                self._bad(f"pass {pass_index} {op.key}: output bytes differ between "
                          "two runs of the same inputs")

    def pass_digest(self, pass_index) -> str:
        seen = self.digests[pass_index]
        return _digest("".join(f"{key}={seen[key]}\n" for key in sorted(seen)))

    def check_reference(self):
        """Passes beyond the recorded ones are not checked."""
        for pass_index, expected in enumerate(self.reference or ()):
            if pass_index in self.digests and self.pass_digest(pass_index) != expected:
                self._bad(f"pass {pass_index}: outputs differ from the reference digest")


def run_pass(ops, sampler):
    """Run each op once with the sampler on.  Returns the pass time (ops
    only, calibration units taken out), each op's time, the outcomes and
    the host-speed scale the units measured."""
    outcomes, seconds = [], []
    for op in ops:
        cal0 = sampler.spent
        t0 = time.perf_counter()
        sampler.on()
        outcomes.append(op.run())
        sampler.off()
        seconds.append(time.perf_counter() - t0 - (sampler.spent - cal0))
    return sum(seconds), seconds, outcomes, sampler.take_scale()


def threads2_speedup() -> dict:
    """Wall time of one 32x32 grid with threads=1 over threads=2."""
    from blaschke_lab import gallery, maps, valence
    grids = {"z2": maps.blaschke_handle(maps.BlaschkeProduct(1.0 + 0j, (0j, 0j))),
             "atomic-inner": gallery.make_atomic_inner()}
    out, total = {}, [0.0, 0.0]
    for name, handle in grids.items():
        spent = []
        for threads in (1, 2):
            t0 = time.perf_counter()
            valence.valence_heatmap(handle, 32, 0.99, threads=threads)
            spent.append(time.perf_counter() - t0)
        out[f"valence.valence_heatmap.threads2_speedup.{name}"] = spent[0] / spent[1]
        total = [total[0] + spent[0], total[1] + spent[1]]
    out["valence.valence_heatmap.threads2_speedup"] = total[0] / total[1]
    return out


def census_fail_frac(seed: int) -> dict:
    import workloads
    ops = workloads.build_census(seed)
    tally = {}
    for op in ops:
        solver = "blaschke_preimages" if "preimages" in op.key else "blaschke_critical_points"
        failed = op.check(op.run()).failed
        done, bad = tally.get(solver, (0, 0))
        tally[solver] = (done + 1, bad + failed)
    return {f"census.{solver}.fail_frac": bad / done for solver, (done, bad) in tally.items()}


def validate_tracer(tracer_mod) -> dict:
    """Trace check_theorem_A(1, 10, 50) and compare with the recorded counts."""
    from blaschke_lab import verifier
    tracer = tracer_mod.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        verifier.check_theorem_A(1, 10, 50)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    stats = tracer_mod.layer_stats(*tracer.take())
    return {key: (stats[key], expected) for key, expected in TRACER_BASELINE.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, reference):
    """Timed passes over fresh inputs until ``seconds`` have elapsed, then
    pass 0's inputs once more, untimed, to check the outputs repeat.  A
    traced run follows each untraced pass with a traced run of the same
    inputs instead."""
    import tracer as tracer_mod
    import workloads
    from calibrate import Sampler
    ledger = Ledger(reference)
    sampler = Sampler()
    tracer = tracer_mod.Tracer()
    passes, layer_passes, span_passes = [], [], []
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
            p = len(passes)
            ops = workloads.BUILDERS[workload](seed, p)
            elapsed, op_seconds, outcomes, scale = run_pass(ops, sampler)
            ledger.record(p, ops, outcomes)
            record = {"raw_s": elapsed, "scale": scale, "ops_s": op_seconds}
            passes.append(record)
            if not trace:
                continue
            tracer.install()
            tracer.enabled = True
            try:
                t0 = time.perf_counter()
                outcomes = [op.run() for op in ops]
                record["traced_s"] = time.perf_counter() - t0
            finally:
                tracer.enabled = False
                tracer.uninstall()
            spans, errors = tracer.take()
            layer_passes.append(tracer_mod.layer_stats(spans, errors))
            span_passes.append(spans)
            ledger.record(p, ops, outcomes)
        if not trace:
            ops = workloads.BUILDERS[workload](seed, 0)
            ledger.record(0, ops, [op.run() for op in ops])
    finally:
        sampler.close()
    ledger.check_reference()
    return ledger, passes, layer_passes, span_passes


def end_to_end(passes, setup) -> dict:
    """wall_s: mean pass time in reference seconds (calibrate.py); the op
    percentiles use the same per-pass scale."""
    ops_ms = sorted(t * p["scale"] * 1e3 for p in passes for t in p["ops_s"])
    q = statistics.quantiles(ops_ms, n=100, method="inclusive") if len(ops_ms) > 1 else ops_ms * 99
    return {"setup_s": statistics.median(x["raw_s"] * x["scale"] for x in setup),
            "setup_raw_s": statistics.median(x["raw_s"] for x in setup),
            "wall_s": statistics.fmean(p["raw_s"] * p["scale"] for p in passes),
            "wall_raw_s": statistics.fmean(p["raw_s"] for p in passes),
            "host_scale": statistics.fmean(p["scale"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_p50_ms": q[49], "op_p99_ms": q[98], "op_samples": len(ops_ms)}


def per_layer(layer_passes, passes, wanted) -> dict:
    keys = sorted({k for stats in layer_passes for k in stats})
    out = {k: statistics.median(stats.get(k, 0) for stats in layer_passes) for k in keys}
    out["trace_overhead_s"] = statistics.fmean(p["traced_s"] - p["raw_s"] for p in passes)
    out["errors.other.count"] = sum(v for k, v in out.items()
                                    if k.startswith("errors.") and k not in wanted)
    return out


def run_one(root: Path, args) -> int:
    spec = load_metric_spec(root)
    seed = args.seed
    import_program(root)
    setup = [] if args.trace else setup_seconds(args.workload, seed)
    import tracer as tracer_mod
    import workloads
    sizes = workloads.SIZES[args.workload]
    reference = None
    if seed == DEFAULT_SEED and not args.write_reference:
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        reference = recorded.get(args.workload, {}).get("passes", [])

    ledger, passes, layer_passes, span_passes = measure(
        args.workload, seed, args.seconds, bool(args.trace), reference)

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        wanted = spec["per_layer"]
        figures = per_layer(layer_passes, passes, {m["name"] for m in wanted})
        figures.update(threads2_speedup())
        if args.workload == "solvers":
            figures.update(census_fail_frac(seed))
        if args.workload == "theorem-a":
            extra["tracer_validation"] = validate_tracer(tracer_mod)
        tracer_mod.dump_spans(results_dir / f"{stem}-spans.csv.gz", span_passes)
    else:
        figures = end_to_end(passes, setup)
        wanted = spec["end_to_end"]

    if args.write_reference:
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        recorded[args.workload] = {"seed": seed, "sizes": sizes,
                                   "passes": [ledger.pass_digest(p) for p in sorted(ledger.digests)]}
        REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": float(figures.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    fail_frac = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    correct = ledger.wrong == 0
    env = environment(root, args, sizes)
    record = {"environment": env, "passes": passes, "setup_probes": setup,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "wrong": ledger.wrong, "fail_frac": fail_frac, "notes": ledger.notes,
              "figures": figures, **extra}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True,
                                                         default=str) + "\n")

    print(f"# {args.workload} seed={seed} trace={args.trace} passes={len(passes)}"
          f" python={env['python']} numpy={env['numpy']} nproc={env['nproc']}"
          f" commit={env['git_commit'][:12]}")
    print(f"# sizes {json.dumps(sizes)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        shown = {"errors.other.count"} | {m["name"] for m in wanted}
        for name in sorted(k for k in figures if k.startswith("errors.") and k not in shown):
            print(f"{args.workload} {name} = {figures[name]:.6g} count (in errors.other.count)")
    else:
        for name, unit in (("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("op_samples", "count"),
                           ("wall_raw_s", "s"), ("setup_raw_s", "s"), ("host_scale", "ratio")):
            print(f"{args.workload} {name} = {figures[name]:.6g} {unit}")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ({ledger.failed}/{ledger.attempted}),"
          f" wrong = {ledger.wrong}")
    for note in ledger.notes:
        print(f"# {note}")
    for key, (seen, expected) in extra.get("tracer_validation", {}).items():
        print(f"# tracer check_theorem_A(1, 10, 50) {key} = {seen} "
              f"({'matches' if seen == expected else 'differs from'} {expected} recorded)")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(root: Path, args) -> int:
    """Each workload in a fresh interpreter; one combined JSON line at the end."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload == "all":
            load_metric_spec(root)
            if not (root / "src" / "blaschke_lab").is_dir():
                raise BenchError(f"no blaschke_lab package under {root / 'src'}")
            return run_all(root, args)
        return run_one(root, args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
