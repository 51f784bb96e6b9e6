#!/usr/bin/env python3
"""One-off measurements for NOTES.md, not part of the gated benchmark.

    python3 perfbench/oneoff.py

1. ``tiled-xk`` scaling for k in {1, 2, 4, 8}: set-up time and median ms
   per trial for each mode.
2. Serial against ``parallel=True`` (level-1 thread pool) on ``ieee30``
   ``multiarea-robust``, alternating the two per trial.

Prints markdown tables.  Takes a few minutes on 2 cores.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time

import run


def scaling(workdir, seed=1):
    print("| k | buses | areas | setup ms | " + " | ".join(f"{m} ms" for m in run.MODES)
          + " | trials |")
    print("|---|---|---|---|" + "---|" * len(run.MODES) + "---|")
    for k in (1, 2, 4, 8):
        wl = run.Workload(f"tiled-x{k}", "", tiles=k)
        inputs = run.Inputs(wl, seed, workdir)
        setups = []
        for _ in range(5):
            t0 = time.perf_counter()
            inputs.prepare()
            setups.append(time.perf_counter() - t0)
        trials = 5 if k <= 4 else 3
        times = {m: [] for m in run.MODES}
        run_one = run.run_one
        run_one(inputs.exp, 0, "multiarea-robust")  # warm-up
        for t in range(trials):
            for m in run.MODES:
                times[m].append(run_one(inputs.exp, t, m)[0])
        cols = " | ".join(f"{1e3 * statistics.median(times[m]):.1f}" for m in run.MODES)
        print(f"| {k} | {inputs.exp.net.n_bus} | {inputs.exp.part.area_count} | "
              f"{1e3 * statistics.median(setups):.1f} | {cols} | {trials} |", flush=True)


def parallel(workdir, seed=1, trials=60):
    from gridstate import cli

    inputs = run.Inputs(run.WORKLOADS["ieee30"], seed, workdir)
    exp = inputs.exp
    times = {False: [], True: []}
    cli.run_trial(exp, 0, True, False, True)  # warm-up
    for t in range(trials):
        for par in ((False, True) if t % 2 else (True, False)):
            t0 = time.perf_counter()
            cli.run_trial(exp, t, True, False, par)
            times[par].append(time.perf_counter() - t0)
    print("| path | median ms | p25 ms | p75 ms | trials |")
    print("|---|---|---|---|---|")
    for par, label in ((False, "serial"), (True, "parallel=True")):
        q = statistics.quantiles(times[par], n=4)
        print(f"| {label} | {1e3 * statistics.median(times[par]):.1f} | {1e3 * q[0]:.1f} | "
              f"{1e3 * q[2]:.1f} | {trials} |")


def main():
    run._import_program()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="oneoff-", dir=run.OUT_DIR)
    try:
        scaling(workdir)
        print()
        parallel(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
