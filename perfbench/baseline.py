"""Reproduce, once, each row of the ROADMAP "Baseline" table.

Run from the root of a checkout:

    python3 perfbench/baseline.py

Each timing is the best of 3 except the n = 4096 build and the n = 9
partition search, which run once.  BLAS threads are left at the library's
default, as when the table was first measured.  Prints a Markdown table
with the ROADMAP value beside each reproduced number, then one JSON line.
The n = 4096 build allocates several dense 4096 x 4096 complex matrices
(about 0.8 GB peak RSS).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import coevent as ce  # noqa: E402

import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=SRC)


def best(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def subprocess_s(args, repeats=3):
    return best(lambda: subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, check=True,
                                       capture_output=True, timeout=600), repeats)


def import_s():
    code = "import time; t = time.perf_counter(); import coevent.cli; print(time.perf_counter() - t)"
    out = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV, check=True,
                                capture_output=True, timeout=600).stdout) for _ in range(3)]
    return min(out)


def rows():
    rng = np.random.default_rng(0)
    out = []
    run = subprocess_s(["-m", "coevent.cli", "scenario", "run", "pbr-v2"])
    out.append(("`coevent scenario run pbr-v2` (subprocess)", "0.35 s",
                f"{run:.2f} s, of which `import coevent.cli` {import_s():.2f} s"))
    sweep_sub = subprocess_s(["-m", "coevent.cli", "scenario", "sweep", "--start", "-1",
                              "--end", "1", "--steps", "60"])
    sweep_in = best(lambda: ce.emit_report(ce.theta_sweep(-1.0, 1.0, 60)))
    out.append(("`scenario sweep --steps 60` (subprocess / in-process)", "0.43 s / 0.18 s",
                f"{sweep_sub:.2f} s / {sweep_in:.2f} s"))
    per = [best(lambda n=name, p=params: ce.emit_report(ce.run_scenario(n, p)))
           for name, params in (("pbr-v1", {}), ("pbr-v2", {}), ("composite-product", {}),
                                ("appendix-theta", {"theta": 0.3}),
                                ("appendix-hamiltonian", {"theta": 0.3}))]
    out.append(("any shipped scenario, in-process run + emit", "5-18 ms",
                f"{min(per) * 1e3:.1f}-{max(per) * 1e3:.1f} ms"))
    df = ce.raw_df(workloads.gram(workloads.generic_factor(rng, 20, 2)))
    zero = best(lambda: ce.find_zero_sets(df))
    cat = ce.find_zero_sets(df)
    co = best(lambda: ce.enumerate_primitive_coevents(df, cat))
    out.append(("raw rank-2 DF, n=20: zero table / co-events", "0.022 s / 1.69 s",
                f"{zero:.3f} s / {co:.2f} s"))
    slices, labels = workloads.alternating_slices(0.7, 5)
    df = ce.build_df(workloads.make_schema(np.array([1, 0], dtype=complex), slices, labels))
    cat = ce.find_zero_sets(df)
    co = best(lambda: ce.enumerate_primitive_coevents(df, cat))
    n_co = len(ce.enumerate_primitive_coevents(df, cat))
    out.append(("qubit, 5 alternating slices (n=32, 2 sectors of 16)",
                "co-events 0.57-0.74 s; 3918 zero events, 40 co-events",
                f"co-events {co:.2f} s; {cat.counts()['zero_sectorwise']} zero events, "
                f"{n_co} co-events"))
    df = ce.raw_df(workloads.gram(workloads.generic_factor(rng, 9, 2)))
    t0 = time.perf_counter()
    ce.find_decoherent_partitions(df, "weak", 9)
    out.append(("`find_decoherent_partitions`, n=9", "2.9 s",
                f"{time.perf_counter() - t0:.1f} s"))
    out.append(("`build_df`, d=8, 4 slices (n=4096)", "18.2 s, 268 MB matrix; eigvalsh 17.1 s",
                build_4096(rng)))
    try:
        slices, labels = workloads.random_slices(rng, 2, 6)
        ce.build_df(workloads.make_schema(workloads.haar_unitary(rng, 2)[:, 0], slices, labels))
        crash = "no error"
    except ValueError as exc:
        crash = f"ValueError: {exc}"
    out.append(("any DF with n >= 64 histories", "crashes", f"n=64: {crash}"))
    return out


def build_4096(rng) -> str:
    """Time build_df at n = 4096 and the eigvalsh inside its validation."""
    slices, labels = workloads.random_slices(rng, 8, 4)
    schema = workloads.make_schema(workloads.haar_unitary(rng, 8)[:, 0], slices, labels)
    eig = []
    original = np.linalg.eigvalsh

    def timed_eigvalsh(a):
        t0 = time.perf_counter()
        try:
            return original(a)
        finally:
            eig.append(time.perf_counter() - t0)

    np.linalg.eigvalsh = timed_eigvalsh
    t0 = time.perf_counter()
    try:
        ce.build_df(schema)
        end = "passed"
    except ValueError as exc:
        end = f"then ValueError: {exc}"
    finally:
        np.linalg.eigvalsh = original
    total = time.perf_counter() - t0
    return (f"{total:.1f} s, {16 * 4096 ** 2 / 1e6:.0f} MB matrix; eigvalsh {sum(eig):.1f} s; "
            f"{end}")


def main() -> int:
    warnings.simplefilter("ignore")
    table = rows()
    print("| workload | ROADMAP | reproduced |")
    print("| --- | --- | --- |")
    for name, roadmap, got in table:
        print(f"| {name} | {roadmap} | {got} |")
    print(json.dumps({name: got for name, _, got in table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
