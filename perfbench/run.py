"""Benchmark for coevent: four seeded workloads, checked answers, metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced rounds with rounds that record spans around every call
into the package's public functions, and reports per-layer metrics, each per
operation of the workload, plus the tracing overhead (traced minus untraced
time of the work the spans wrap).  Times are scaled to the host's speed by a
reference task timed before and after every operation (see workloads.Tally).
The last line of standard output is one JSON object; `--workload all` runs each
workload in its own process and prints one line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("cli", "sweep", "enumerate", "scale")
SETUP_REPEATS = 9
OUT_DIR = ".perfbench_out"

# Per-layer metrics: span name -> (metric for its seconds, metric for its counts).
# histories.df_bytes_computed is 16 n^2 per DF requested from a constructor:
# computed, not measured.
SPAN_METRICS = {
    "cli.main": ("cli.in_process_s", None),
    "scenarios.build_scenario": ("scenarios.build_scenario_s", None),
    "scenarios.analyze_df": ("scenarios.analyze_s", None),
    "scenarios.emit_report": ("scenarios.emit_s", "scenarios.report_bytes"),
    "histories.enumerate_histories": ("histories.enumerate_s", None),
    "histories.build_df": ("histories.build_df_s", None),
    "histories.raw_df": ("histories.build_df_s", None),
    "histories.validate_df": ("histories.validate_s", None),
    "measure_analysis.find_zero_sets": ("measure_analysis.zero_sets_s",
                                        "measure_analysis.zero_events"),
    "measure_analysis.maximal_zero_events": ("measure_analysis.maximal_s",
                                             "measure_analysis.maximal_events"),
    "measure_analysis.find_decoherent_partitions": ("measure_analysis.partitions_s", None),
    "coevents.enumerate_primitive_coevents": ("coevents.enumerate_s", "coevents.coevents"),
    "coevents.distinguishability_report": ("coevents.distinguish_s", None),
    "composition.tensor_df": ("composition.tensor_s", None),
    "composition.composition_anomalies": ("composition.anomalies_s", None),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def samples(wl, tally) -> int:
    """Units of work measured: operations, or rounds for per-round workloads."""
    if getattr(wl, "per_round", False):
        return len(tally.rounds)
    return sum(len(r) for r in tally.rounds)


def typical_s(wl, tally) -> float:
    """Median operation time; for a per-round workload, the time of a typical
    round: the sum over its operations of each one's median time."""
    if getattr(wl, "per_round", False):
        return sum(statistics.median(times) for times in tally.by_op.values())
    return statistics.median(t for r in tally.rounds for t in r)


def traced_work_s(wl, tally) -> float:
    """Time of the work a Tracer wraps, per operation: for cli, whose timed
    operations are subprocesses, the same commands through coevent.cli.main."""
    if tally.in_process:
        return statistics.mean(statistics.median(t) for t in tally.in_process.values())
    return typical_s(wl, tally)


def measure(wl, seconds: float, tallies, tracer=None, caught=None):
    """Whole rounds until ``seconds`` have passed, at least one per tally.

    Rounds go to the tallies in turn; with a tracer, it records spans only
    in the rounds of the last tally.  Warnings caught in a round go to that
    round's tally.
    """
    start = time.perf_counter()
    i = 0
    while True:
        tally = tallies[i % len(tallies)]
        if tracer is not None:
            tracer.active = tally is tallies[-1]
        before = len(caught) if caught is not None else 0
        tally.new_round()
        wl.run_round(tally, tracer)
        if caught is not None:
            tally.warnings.extend(caught[before:])
        i += 1
        if i >= len(tallies) and time.perf_counter() - start >= seconds:
            return


def peak_rss_mb(name: str) -> float:
    # The cli workload's program runs in child processes: report the largest.
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, tally, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_s.p50": typical_s(wl, tally),
        "max_n": tally.max_n,
        "verified_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb(wl.name),
    }


def per_layer(wl, tracer, tally, untraced, probes: dict) -> dict:
    from tracing import DF_CONSTRUCTORS, LAYERS, totals
    ops = samples(wl, tally)
    t = totals(tracer.spans)
    # Span times are wall times: scale them as the traced rounds' operations were.
    speed = sum(map(sum, tally.rounds)) / sum(tally.wall)
    out = {name: 0.0 for secs, cnt in SPAN_METRICS.values() for name in (secs, cnt) if name}
    for span_name, (secs, cnt) in SPAN_METRICS.items():
        _, seconds, count = t["names"].get(span_name, (0, 0.0, 0))
        out[secs] += seconds * speed / ops
        if cnt:
            out[cnt] += count / ops
    out["histories.df_bytes_computed"] = sum(
        16 * s.count ** 2 for s in tracer.spans if s.name in DF_CONSTRUCTORS) / ops
    ce_s = t["names"].get("coevents.enumerate_primitive_coevents", (0, 0.0, 0))
    out["coevents.per_s"] = ce_s[2] / (ce_s[1] * speed) if ce_s[1] else 0.0
    out["cli.bare_python_s"] = probes.get("cli.bare_python_s", 0.0) * speed
    out["cli.import_s"] = probes.get("cli.import_s", 0.0) * speed
    for layer in LAYERS:
        calls, self_s = t["layers"][layer]
        out[f"{layer}.calls"] = calls / ops
        out[f"{layer}.self_s"] = self_s * speed / ops
    for layer in ("measure_analysis", "coevents"):
        out[f"{layer}.slow_warnings"] = sum(
            1 for w in tally.warnings if "may be slow" in str(w.message)
            and os.path.basename(w.filename) == f"{layer}.py") / ops
    out["trace.overhead_s"] = traced_work_s(wl, tally) - traced_work_s(wl, untraced)
    return out


def exception_self_check(wl) -> list:
    """An exception that is not a known failure must count as a wrong answer."""
    from workloads import Tally
    probe = Tally(wl)
    probe.new_round()
    with probe.timed("planted"):
        raise RuntimeError("planted exception")
    probe.settle(list, 1)
    return [] if probe.wrong == 1 else ["verifier took a planted exception for a known failure"]


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_one(args) -> int:
    # One BLAS thread: every workload is one client in one process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "coevent")):
        return fail(f"no package source at {src}")
    sys.path.insert(0, src)
    import coevent  # noqa: F401
    import coevent.cli  # noqa: F401
    if not os.path.abspath(coevent.__file__).startswith(src + os.sep):
        return fail(f"imported coevent from {coevent.__file__}, not from {src}")
    if not os.path.isdir(os.path.join(ROOT, "tests", "golden")):
        return fail("tests/golden is missing")

    from tracing import Tracer
    from workloads import WORKLOADS, Tally, fresh_import_s

    workdir = os.path.join(ROOT, OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, workdir)
        # Each set-up scaled to the host's speed as operations are (workloads.Tally).
        setups, ref_s = [], wl.reference()
        for _ in range(SETUP_REPEATS):
            import_s = fresh_import_s(ROOT)
            t = time.perf_counter()
            wl.generate(args.seed)
            gen_s = time.perf_counter() - t
            after = wl.reference()
            setups.append((import_s + gen_s) * 2.0 * wl.reference_nominal_s / (ref_s + after))
            ref_s = after
        setup_s = statistics.median(setups)
        phases = [Tally(wl)] if args.trace == 0 else [Tally(wl), Tally(wl)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                self_check = wl.prepare() + exception_self_check(wl)
            except Exception as exc:  # noqa: BLE001  (the program failed on a check input)
                self_check = [f"could not run: {type(exc).__name__}: {exc}"]
            if args.trace == 0:
                measure(wl, args.seconds, phases)
            else:
                tracer = Tracer()
                tracer.install()
                try:
                    measure(wl, args.seconds, phases, tracer, caught)
                    probes = wl.probes(5) if hasattr(wl, "probes") else {}
                finally:
                    tracer.uninstall()
        if args.trace == 0:
            values = end_to_end(wl, phases[0], setup_s)
        else:
            values = per_layer(wl, tracer, phases[1], phases[0], probes)
            trace_path = os.path.join(ROOT, OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit = units("end_to_end" if args.trace == 0 else "per_layer")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    report(args, wl, values, unit, phases, self_check)
    result = {
        "correct": wrong == 0 and not self_check,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def machine() -> str:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30
    return (f"nproc {os.cpu_count()}, memory {mem:.1f} GiB, Python {platform.python_version()}, "
            f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"with OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


def report(args, wl, values, unit, phases, self_check):
    """Human-readable lines: every metric with unit and samples, and the checks."""
    tally = phases[-1]
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  machine: {machine()}")
    for key, value in values.items():
        n = f"  n={samples(wl, tally)}" if key.startswith("op_s") else ""
        print(f"  {key:42s} {value:14.6g} {unit[key]}{n}")
    print(f"  host speed: reference task median {statistics.median(tally.refs):.6g} s "
          f"(nominal {wl.reference_nominal_s:g} s, n={len(tally.refs)}); unscaled wall time "
          f"per operation, median {statistics.median(tally.wall):.6g} s")
    for label, p in zip(("untraced", "traced") if len(phases) == 2 else ("run",), phases):
        ratio = p.failed / p.attempted if p.attempted else 0.0
        rate = p.verified / p.verified_s if p.verified_s else 0.0
        print(f"  verifier [{label}]: attempted {p.attempted}, passed {p.attempted - p.failed}, "
              f"failed {p.failed} (wrong answers {p.wrong}), failed_ratio {ratio:.4f}; "
              f"{rate:.4g} verified ops per second of operation time")
        for reason, count in p.reasons.most_common(8):
            print(f"    {count:6d} x {reason[:150]}")
    print("  verifier self-check: " + ("ok" if not self_check else "; ".join(self_check)))


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak RSS are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
