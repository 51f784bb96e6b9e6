#!/usr/bin/env python3
"""Monte-Carlo trial benchmark for gridstate.

    python3 perfbench/run.py --workload ieee30 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The unit of work is one Monte-Carlo trial exactly as
``cli.run_mode`` does it on the default serial path: ``cli.run_trial``
then ``cli.compute_errors``.  Every trial runs all four modes on the same
seeded inputs, in an order that rotates per trial.  Trials continue until
``--seconds`` have passed and at least the workload's ``first`` trials
ran; accuracy, the paper-claim check and per-layer counts use those first
trials only, so they are deterministic for a seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
trial untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace

# single-threaded BLAS: the serial pipeline's matrices are small, and
# threaded BLAS on a shared machine adds noise and changes rounding
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

MODES = ("central-wls", "central-robust", "multiarea-wls", "multiarea-robust")
CLAIM_MODES = ("multiarea-robust", "multiarea-wls")

# per-trial gate: estimates must be finite and within these absolute
# errors; far above any error the four modes reach on these workloads,
# and far below a diverged or wrongly referenced estimate
GATE_DVM = 0.5  # pu
GATE_DVA = 0.5  # rad

REF_SEED = 0  # the bundled ieee30.cfg seed
REF_RTOL = 1e-6
SETUP_REPEATS = 15  # traced set-up calls behind the per-layer set-up metrics
QUIET_WINDOWS = 40
QUIET_MIN_TRIALS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lambda_strategy: str = "approx"
    tiles: int = 0  # 0: the bundled IEEE-30 files
    outage: bool = False
    first: int = 180  # trials behind the accuracy and claim metrics
    trace_first: int = 50  # traced trials behind the per-layer counts
    ref_trials: int = 4  # reference-digest trials at REF_SEED
    claim_gated: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ieee30",
            "the paper's experiment: level-1 per-row measurement model dominates, specs repeat every trial",
        ),
        Workload(
            "ieee30-outage",
            "exact lambda pays for the min_g search; 4 FLOW pairs drop per trial, so no two trials share specs",
            lambda_strategy="exact",
            outage=True,
            # exact lambda does not beat WLS on mean |dV| at this commit:
            # reported, not gated (see NOTES.md)
            claim_gated=False,
        ),
        Workload(
            "tiled-x4",
            "120 buses, 12 areas: per-trial views/Ybus, branch scans, dense coordinator and whitening grow",
            tiles=4,
            first=24,
            trace_first=4,
            ref_trials=2,
        ),
    )
}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "gridstate", "__init__.py")):
        raise SystemExit(f"perfbench: no gridstate sources under {SRC}")
    sys.path.insert(0, SRC)
    import gridstate

    if not os.path.abspath(gridstate.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported gridstate from {gridstate.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# inputs


class Inputs:
    """A prepared workload: input files, the Experiment, per-trial specs."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        import workloads

        self.wl = wl
        if wl.tiles:
            texts = workloads.tiled_texts(wl.tiles, seed)
        else:
            texts = workloads.ieee30_texts(seed, wl.lambda_strategy)
        self.paths = workloads.write_inputs(workdir, texts)
        self.exp = self.prepare()
        if self.exp.cfg.lambda_strategy != wl.lambda_strategy or self.exp.cfg.seed != seed:
            raise SystemExit("perfbench: generated config was not read back as written")
        if wl.tiles:
            failures = workloads.check_tiled(self.exp, wl.tiles, texts["plan"])
            if failures:
                raise SystemExit("perfbench: tiled grid gate failed: " + "; ".join(failures))
        if self.exp.warnings:
            raise SystemExit("perfbench: redundancy warnings: " + "; ".join(self.exp.warnings))
        self.draws = workloads.OutageDraws(self.exp, seed) if wl.outage else None

    def prepare(self):
        from gridstate import cli

        p = self.paths
        return cli.prepare(p["case"], p["partition"], p["plan"], p["config"])

    def for_trial(self, trial: int):
        """The Experiment for one trial; outage drop sets are drawn and
        checked here, outside any timing."""
        if self.draws is None:
            return self.exp
        return replace(self.exp, specs=self.draws.specs_for(trial))


def run_one(exp, trial: int, mode: str):
    """The unit of work: (seconds, result, |dV|, |dtheta|)."""
    from gridstate import cli

    central = mode.startswith("central")
    robust = mode.endswith("robust")
    t0 = time.perf_counter()
    res = cli.run_trial(exp, trial, robust, central)
    dvm, dva = cli.compute_errors(res, exp.truth)
    return time.perf_counter() - t0, res, dvm, dva


def gate(res, truth, dvm, dva) -> str | None:
    """Per-trial correctness gate; the reason it failed, or None."""
    if tuple(res.bus_ids) != tuple(sorted(truth.bus_ids)):
        return "estimate does not cover every bus"
    if not (all(map(math.isfinite, res.vm)) and all(map(math.isfinite, res.va))):
        return "non-finite estimate"
    if dvm.max() > GATE_DVM or dva.max() > GATE_DVA:
        return f"error above the gate: max|dV|={dvm.max():.3g} max|dth|={dva.max():.3g}"
    return None


class Tally:
    """Attempted and failed mode-trials, with the first failure's report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, count: int, note: str):
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)


def safe_run(exp, trial, mode, tally: Tally):
    """run_one inside the boundary that keeps the benchmark going; returns
    None for a trial that raised or missed the gate."""
    tally.attempted += 1
    try:
        out = run_one(exp, trial, mode)
    except Exception:  # noqa: BLE001 - a failed trial is counted, not fatal
        tally.fail(1, f"{mode} trial {trial} raised:\n{traceback.format_exc()}")
        return None
    reason = gate(out[1], exp.truth, out[2], out[3])
    if reason:
        tally.fail(1, f"{mode} trial {trial}: {reason}")
        return None
    return out


# ---------------------------------------------------------------------------
# reference digests


def digest(inputs: Inputs, trials: int, tally: Tally) -> dict:
    """{mode: [mean |dV|, mean |dtheta|]} over trials 0..trials-1, or None
    for a mode with a failed trial (counted in ``tally``)."""
    out = {}
    for mode in MODES:
        got = [safe_run(inputs.for_trial(t), t, mode, tally) for t in range(trials)]
        if None in got:
            out[mode] = None
            continue
        out[mode] = [statistics.fmean(float(g[2].mean()) for g in got),
                     statistics.fmean(float(g[3].mean()) for g in got)]
    return out


def check_reference(wl: Workload, workdir: str, tally: Tally):
    """Run the reference trials at REF_SEED (also the warm-up) and compare
    each mode's digest with the stored one at relative tolerance REF_RTOL."""
    with open(REFERENCE) as fh:
        stored = json.load(fh)[wl.name]
    got = digest(Inputs(wl, REF_SEED, workdir), wl.ref_trials, tally)
    for mode in MODES:
        if got[mode] is None:
            continue  # the failed trial is already counted
        if not all(math.isclose(g, s, rel_tol=REF_RTOL) for g, s in zip(got[mode], stored[mode])):
            tally.fail(wl.ref_trials, f"{mode}: reference digest {got[mode]} != stored {stored[mode]}")


def write_reference(workdir: str):
    """Regenerate reference.json from the current program; refuses when
    any reference trial fails."""
    out, tally = {}, Tally()
    for wl in WORKLOADS.values():
        out[wl.name] = digest(Inputs(wl, REF_SEED, workdir), wl.ref_trials, tally)
        print(wl.name, out[wl.name], flush=True)
    if tally.failed:
        raise SystemExit("perfbench: reference trials failed:\n" + "\n".join(tally.notes))
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the timed loop


@dataclass
class Trial:
    """Timings of one trial index: seconds per mode, the same trials under
    the tracer, and one ``cli.prepare`` call made before the trial."""

    index: int
    setup: float
    times: dict
    traced: dict


def run_loop(inputs: Inputs, seconds: float, tally: Tally, tracer=None):
    """Trials until ``seconds`` passed and the first trials (``first``, or
    ``trace_first`` under a tracer) ran.

    Returns ([Trial], per mode the (mean |dV|, mean |dtheta|) of each first
    trial, per mode the (TSE, coordinator) iterations of each first trial).
    """
    first = inputs.wl.first if tracer is None else inputs.wl.trace_first
    trials = []
    errors = {m: [] for m in MODES}
    iters = {m: [] for m in MODES}
    end = time.perf_counter() + seconds
    t = 0
    while t < first or time.perf_counter() < end:
        t0 = time.perf_counter()
        inputs.prepare()
        rec = Trial(t, time.perf_counter() - t0, {}, {})
        exp = inputs.for_trial(t)
        k = t % len(MODES)
        for mode in MODES[k:] + MODES[:k]:
            got = safe_run(exp, t, mode, tally)
            if got is None:
                continue
            dt, res, dvm, dva = got
            rec.times[mode] = dt
            if t < first:
                errors[mode].append((float(dvm.mean()), float(dva.mean())))
                iters[mode].append((sum(lr.tse_iterations for lr in res.locals),
                                    res.coordinator_iterations))
            if tracer is not None:
                traced_one(exp, t, mode, res, tracer, rec, tally)
        trials.append(rec)
        t += 1
    return trials, errors, iters


def traced_one(exp, t, mode, untraced_res, tracer, rec: Trial, tally):
    """The same trial again under the tracer; it must give the same result."""
    import numpy as np

    tally.attempted += 1
    tracer.install()
    tracer.begin((mode, t))
    try:
        dt, res, _, _ = tracer.span("trial", run_one, exp, t, mode)
    except Exception:  # noqa: BLE001
        tally.fail(1, f"{mode} trial {t} raised under the tracer:\n{traceback.format_exc()}")
        return
    finally:
        tracer.uninstall()
    if not (np.array_equal(res.vm, untraced_res.vm) and np.array_equal(res.va, untraced_res.va)):
        tally.fail(1, f"{mode} trial {t}: traced result differs from untraced")
    rec.traced[mode] = dt


def quiet_half(trials: list) -> list:
    """The trials of the quieter half of the run.

    The host this was built on has phases, seconds to several minutes
    long, in which everything runs up to 1.6x slower (process CPU time slows as much
    as wall time, so it is not preemption).  The run is cut into windows
    of consecutive trials, at most QUIET_WINDOWS of at least
    QUIET_MIN_TRIALS each, and the half of the windows whose median
    ``cli.prepare`` time is lowest is kept.  ``cli.prepare`` does the same
    work before every trial, so its time tracks the host's speed and not
    the trials' own cost: selecting on it keeps costly trials in.
    """
    n = len(trials)
    w = max(1, min(QUIET_WINDOWS, n // QUIET_MIN_TRIALS))
    windows = [trials[i * n // w:(i + 1) * n // w] for i in range(w)]
    kept = sorted(range(w), key=lambda i: statistics.median(r.setup for r in windows[i]))
    return [r for i in sorted(kept[: (w + 1) // 2]) for r in windows[i]]


def claim(wl: Workload, errors: dict, tally: Tally) -> str:
    """Paper's claim: multiarea-robust beats multiarea-wls on mean |dV|."""
    rob, wls = (statistics.fmean(e[0] for e in errors[m]) for m in CLAIM_MODES)
    held = rob < wls
    line = (f"claim multiarea-robust < multiarea-wls on mean |dV| over {len(errors[CLAIM_MODES[0]])} "
            f"trials: {rob:.4e} vs {wls:.4e} -> {'holds' if held else 'DOES NOT HOLD'}")
    if not wl.claim_gated:
        return line + " (reported, not gated on this workload)"
    if not held:
        tally.fail(len(errors[CLAIM_MODES[0]]), line)
    return line


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def mode_times(trials, mode):
    return [r.times[mode] for r in trials if mode in r.times]


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(inputs: Inputs, seconds: float, tally: Tally):
    """(metrics, tails): the end-to-end metrics, and the per-mode 90th
    percentiles, which are printed but not part of the result line."""
    trials, errors, _ = run_loop(inputs, seconds, tally)
    print(claim(inputs.wl, errors, tally))
    quiet = quiet_half(trials)
    note = f"quiet half: {len(quiet)} of {len(trials)} trials"
    print(note)

    metrics = {"setup_s": (statistics.median(r.setup for r in quiet), "s", f"n={len(quiet)}")}
    tails = {}
    for mode in MODES:
        ts = mode_times(quiet, mode)
        if len(ts) < 2:
            raise SystemExit(f"perfbench: {mode} completed {len(ts)} trials in the quiet half")
        metrics[f"trial_ms.{mode}"] = (1e3 * statistics.median(ts), "ms", f"n={len(ts)}")
        tails[f"trial_ms_p90.{mode}"] = (1e3 * p90(ts), "ms", f"n={len(ts)}")
    rob = errors["multiarea-robust"]
    metrics["err_vm.multiarea-robust"] = (statistics.fmean(e[0] for e in rob), "pu", f"{len(rob)} trials")
    metrics["err_va.multiarea-robust"] = (statistics.fmean(e[1] for e in rob), "rad", f"{len(rob)} trials")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "")
    ok = 1.0 - tally.failed / tally.attempted
    metrics["ok_frac"] = (ok, "fraction", f"{tally.attempted - tally.failed}/{tally.attempted} mode-trials")
    return metrics, tails


def per_layer(inputs: Inputs, seconds: float, tally: Tally, seed: int) -> dict:
    import spans

    tracer = spans.Tracer()
    for i in range(SETUP_REPEATS):
        tracer.install()
        tracer.begin(("setup", i))
        try:
            inputs.prepare()
        finally:
            tracer.uninstall()
    trials, errors, iters = run_loop(inputs, seconds, tally, tracer)
    print(claim(inputs.wl, errors, tally))
    quiet = {r.index for r in quiet_half(trials)}
    print(f"quiet half: {len(quiet)} of {len(trials)} trials")

    rows = spans.trial_metrics(tracer)
    metrics = {}
    parse = [sum(1e3 * (s[3] - s[2]) for s in tracer.spans
                 if s[5] == ("setup", i) and s[1].startswith("caseio.parse_"))
             for i in range(SETUP_REPEATS)]
    pf = [s for s in tracer.spans if s[1] == "powerflow.run_powerflow"]
    metrics["caseio.parse.ms"] = (statistics.median(parse), "ms", f"median of {len(parse)}")
    metrics["powerflow.run_powerflow.ms"] = (
        statistics.median(1e3 * (s[3] - s[2]) for s in pf), "ms", f"median of {len(pf)}")
    metrics["powerflow.run_powerflow.iters"] = (pf[0][7]["iters"], "count", "")

    first = inputs.wl.trace_first
    for mode in MODES:
        quiet_rows = [r for key, r in rows.items() if key[0] == mode and key[1] in quiet]
        first_rows = [r for key, r in rows.items() if key[0] == mode and key[1] < first]
        for metric in spans.PER_TRIAL:
            unit = spans.unit_of(metric)
            if unit == "count":
                value = statistics.fmean(r.get(metric, 0) for r in first_rows)
            else:
                value = statistics.fmean(r.get(metric, 0.0) for r in quiet_rows)
            metrics[f"{metric}.{mode}"] = (value, unit, "")
        tse = sum(i[0] for i in iters[mode])
        metrics[f"{spans.WLS_ITERS}.{mode}"] = (tse / len(iters[mode]), "count", "")
        metrics[f"{spans.COORD_ITERS}.{mode}"] = (
            statistics.fmean(i[1] for i in iters[mode]), "count", "")
        h_calls = sum(r.get("wls.h_calls", 0) for r in first_rows)
        metrics[f"{spans.H_PER_ITER}.{mode}"] = (h_calls / tse, "calls/iter", "")
        both = [r for r in trials if r.index in quiet and mode in r.traced]
        over = 1e3 * (statistics.median(r.traced[mode] for r in both)
                      - statistics.median(r.times[mode] for r in both))
        metrics[f"trace.overhead_ms.{mode}"] = (over, "ms", f"n={len(both)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{inputs.wl.name}-seed{seed}.jsonl")
    header = {"workload": inputs.wl.name, "seed": seed,
              "outage_redraws": inputs.draws.redraws if inputs.draws else 0}
    tracer.write(path, header)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics


# ---------------------------------------------------------------------------
# reporting


def print_end_to_end(name, metrics, tails):
    print(f"== {name}: end-to-end (untraced)")
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:<30} {value:>14.6g} {unit:<9} {note}")
    # their run-to-run spread on a shared host comes close to the largest
    # bound a gated metric may have (NOTES.md), so they are not gated
    print("  printed only, not gated:")
    for key, (value, unit, note) in tails.items():
        print(f"  {key:<30} {value:>14.6g} {unit:<9} {note}")


def print_per_layer(name, metrics):
    print(f"== {name}: per-layer (traced); counts over the first trials, times per trial")
    setup = [k for k in metrics if not k.endswith(MODES)]
    for key in setup:
        value, unit, note = metrics[key]
        print(f"  {key:<36} {value:>12.6g} {unit:<10} {note}")
    bases = list(dict.fromkeys(k[: -len(m) - 1] for k in metrics for m in MODES if k.endswith("." + m)))
    print(f"  {'metric':<36} " + " ".join(f"{m:>17}" for m in MODES))
    for base in bases:
        unit = metrics[f"{base}.{MODES[0]}"][1]
        vals = " ".join(f"{metrics[f'{base}.{m}'][0]:>17.6g}" for m in MODES)
        print(f"  {base + ' [' + unit + ']':<36} {vals}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct &= res["correct"]
        combined.update({f"{name}/{k}": (v["value"], v["unit"]) for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in combined.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json from the current program and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    _import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_reference:
        workdir = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
        try:
            write_reference(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"run-{wl.name}-", dir=OUT_DIR)
    try:
        tally = Tally()
        check_reference(wl, workdir, tally)
        inputs = Inputs(wl, args.seed, workdir)
        if args.trace:
            metrics = per_layer(inputs, args.seconds, tally, args.seed)
            print_per_layer(wl.name, metrics)
        else:
            metrics, tails = end_to_end(inputs, args.seconds, tally)
            print_end_to_end(wl.name, metrics, tails)
        if inputs.draws is not None:
            print(f"outage drop sets: {inputs.draws.redraws} redraws for unobservable draws")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print(result_line(tally.failed == 0, tally.attempted, tally.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
