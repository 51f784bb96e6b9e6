"""Command-line driver and Monte-Carlo experiment harness.

Subcommands: ``powerflow`` (load flow report), ``estimate`` (single or
multi-trial estimation in any of the four modes), ``compare`` (paired-seed
comparison of two configurations).  Outputs are CSV/JSON data files; the
same inputs and seed always produce byte-identical files.

Exit codes: 0 success, 1 usage/validation, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import caseio
from .caseio import ExperimentConfig, ResultTable, manifest_for, write_results
from .errors import NumericalError, ValidationError
from .hybrid import sample_delta
from .measurement import MeasurementSet, ModelView, redundancy, synthesize
from .multiarea import GlobalResult, Structure, compute_errors
# the one-set pipelines stay in cli's namespace, where perfbench's tracer wraps them
from .multiarea import run_centralized, run_two_level  # noqa: F401
from .netmodel import AreaPartition, PowerNetwork, single_area
from .powerflow import StateVector, masked_mismatch, run_powerflow

log = logging.getLogger("gridstate")


def _setup_logging():
    level = os.environ.get("GRIDSTATE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


@dataclass
class Experiment:
    """Loaded and cross-validated inputs for one experiment.

    ``structures`` holds one estimation structure per partition kind
    (central or multi-area), built by :func:`run_trial` on the first
    trial's specs and rebuilt only when a trial brings a row its spec
    pool lacks; a ``dataclasses.replace`` copy with other specs (a meter
    outage) shares it.
    """

    net: PowerNetwork
    part: AreaPartition | None
    specs: tuple
    cfg: ExperimentConfig
    truth: StateVector
    view: ModelView
    warnings: list[str]
    texts: dict[str, str]
    structures: dict = field(default_factory=dict, repr=False, compare=False)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def _resolve_text(path: str | None, bundled: str) -> tuple[str, str]:
    """(text, label); a bare fixture name or None falls back to the bundle."""
    if path is None:
        return caseio.bundled_text(bundled), bundled
    if os.path.exists(path):
        return _read(path), path
    if path in caseio.BUNDLED:
        return caseio.bundled_text(path), path
    raise OSError(f"cannot read {path}: file not found")


def prepare(case=None, partition=None, plan=None, config=None, overrides=None) -> Experiment:
    """Load case/partition/plan/config, run the truth load flow, and record
    redundancy warnings."""
    if config:
        cfg = caseio.parse_config(_resolve_text(config, "ieee30.cfg")[0])
    else:
        cfg = caseio.default_config()
    if overrides:
        cfg = replace(cfg, **overrides)

    case_text, case_label = _resolve_text(case, "ieee30.case")
    net = caseio.parse_case(case_text)
    texts = {case_label: case_text}

    part = None
    part_path = partition or cfg.partition
    if part_path is None and case_text == caseio.bundled_text("ieee30.case"):
        part_path = "ieee30.areas"
    if part_path:
        part_text, part_label = _resolve_text(part_path, "ieee30.areas")
        part = caseio.parse_partition(part_text, net)
        texts[part_label] = part_text

    plan_path = plan or cfg.plan
    plan_text, plan_label = _resolve_text(plan_path, "ieee30.plan")
    plan_obj = caseio.parse_plan(plan_text)
    texts[plan_label] = plan_text

    specs = plan_obj.expand(net)
    warnings = []
    if part is not None:
        _, warnings = redundancy(net, part, plan_obj)
        for w in warnings:
            log.warning("%s", w)

    truth = run_powerflow(net).state
    view = ModelView.full(net)
    return Experiment(net, part, specs, cfg, truth, view, warnings, texts)


def synth_for_trial(exp: Experiment, trial: int) -> MeasurementSet:
    """Measurement realization for one trial; deterministic in (seed, trial)."""
    rng = np.random.default_rng([exp.cfg.seed, trial])
    return synthesize(exp.view, exp.truth, exp.specs, exp.cfg.sigma_for, rng)


def make_delta_sampler(seed: int, trial: int):
    """Structured-perturbation sampler, deterministic in (seed, trial, key),
    key (1, area) at level 1 and (2, 0) at level 2, so paired method runs
    see identical perturbations."""
    def sampler(key, q, p):
        return sample_delta(np.random.default_rng([seed, trial, *key]), q, p)

    return sampler


def run_trial(exp: Experiment, trial: int, robust: bool, central: bool = False,
              parallel: bool = False) -> GlobalResult:
    """One full pipeline run; perturbations are sampled whenever the config
    sets both uncertainty scales (s0, e0) nonzero, for robust and plain
    runs alike.

    The central (single-area) or multi-area structure held for the
    network and partition runs the trial's specs when they are its spec
    pool or rows of it (:meth:`Structure.select`).  It is built anew when
    the network or partition changed, and over its pool plus the new rows
    when the trial brings a row the pool lacks."""
    mset = synth_for_trial(exp, trial)
    perturb = None
    if exp.cfg.s0 > 0.0 and exp.cfg.e0 > 0.0:
        perturb = make_delta_sampler(exp.cfg.seed, trial)
    central = central or exp.part is None
    ref = exp.part.global_ref if exp.part is not None else None
    key = (exp.net, ref if central else exp.part)
    held = exp.structures.get(central)
    structure = held[1] if held is not None and held[0] == key else None
    if structure is None or structure.select(exp.specs) is None:
        part = single_area(exp.net, ref) if central else exp.part
        specs = exp.specs if structure is None else _union(structure.specs, exp.specs)
        structure = Structure(exp.net, part, specs)
        exp.structures[central] = (key, structure)
    return structure.run(mset, exp.cfg, robust, perturb, parallel)


def _union(pool, specs):
    """``pool`` followed by the rows of ``specs`` it lacks."""
    return pool + tuple((Counter(specs) - Counter(pool)).elements())


def run_mode(exp: Experiment, mode: str, parallel: bool = False):
    """All trials of one mode; returns (mean |dV|, mean |dtheta|, last result)."""
    central = mode.startswith("central")
    robust = mode.endswith("robust")
    n = exp.net.n_bus
    sum_dvm = np.zeros(n)
    sum_dva = np.zeros(n)
    last = None
    for trial in range(exp.cfg.trials):
        res = run_trial(exp, trial, robust, central, parallel)
        dvm, dva = compute_errors(res, exp.truth)
        sum_dvm += dvm
        sum_dva += dva
        last = res
    return sum_dvm / exp.cfg.trials, sum_dva / exp.cfg.trials, last


# ---------------------------------------------------------------------------
# subcommands


def cmd_powerflow(args) -> int:
    net = caseio.parse_case(_resolve_text(args.case, "ieee30.case")[0])
    if args.tol is not None and not 0.0 < args.tol < np.inf:
        raise ValidationError("--tol must be positive and finite")
    sol = run_powerflow(net, tol=args.tol or 1e-8, max_iter=args.max_iter)
    check = masked_mismatch(net, sol.state)
    print(f"converged in {sol.iterations} iterations, max mismatch {sol.max_mismatch:.3e} "
          f"(independent check {check:.3e})")
    print(f"{'bus':>4} {'V [pu]':>9} {'theta [deg]':>12}")
    for k, bid in enumerate(sol.state.bus_ids):
        print(f"{bid:>4} {sol.state.v1[k]:>9.5f} {np.degrees(sol.state.v2[k]):>12.4f}")
    return 0


def _error_table(exp, mode, mean_dvm, mean_dva, manifest) -> ResultTable:
    truth = exp.truth
    table = ResultTable(
        ["bus", "true_vm", "true_va_deg", "mean_abs_err_vm", "mean_abs_err_va_deg", "method"],
        manifest=manifest,
    )
    bus_ids = tuple(sorted(truth.bus_ids))
    for bid in bus_ids:
        k = truth.index(bid)
        j = bus_ids.index(bid)
        table.add(bid, float(truth.v1[k]), float(np.degrees(truth.v2[k])),
                  float(mean_dvm[j]), float(np.degrees(mean_dva[j])), mode)
    return table


def _summarize(exp, mode, mean_dvm, mean_dva, result):
    print(f"mode {mode}: trials={exp.cfg.trials} seed={exp.cfg.seed}")
    if exp.part is not None and result is not None and not mode.startswith("central"):
        bus_ids = tuple(sorted(exp.truth.bus_ids))
        for area in exp.part.areas:
            idx = [bus_ids.index(b) for b in area.internal]
            if idx:
                print(f"  area {area.index} internal: mean|dV|={mean_dvm[idx].mean():.3e} "
                      f"mean|dth|={mean_dva[idx].mean():.3e} rad")
        idx = [bus_ids.index(b) for b in exp.part.boundary_buses()]
        if idx:
            print(f"  coordinator boundary: mean|dV|={mean_dvm[idx].mean():.3e} "
                  f"mean|dth|={mean_dva[idx].mean():.3e} rad")
    print(f"  overall: mean|dV|={mean_dvm.mean():.3e} mean|dth|={mean_dva.mean():.3e} rad")


def cmd_estimate(args) -> int:
    overrides = _cfg_overrides(args)
    exp = prepare(args.case, args.partition, args.plan, args.config, overrides)
    mode = args.mode or exp.cfg.mode
    if mode not in caseio.MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if mode.startswith("multiarea") and exp.part is None:
        raise ValidationError("multi-area modes need a partition (flag or config)")
    mean_dvm, mean_dva, last = run_mode(exp, mode, parallel=args.parallel)
    _summarize(exp, mode, mean_dvm, mean_dva, last)

    os.makedirs(args.out, exist_ok=True)
    manifest = manifest_for(f"estimate --mode {mode}", exp.cfg.seed,
                            caseio.render_config(exp.cfg), fixtures=exp.texts)
    table = _error_table(exp, mode, mean_dvm, mean_dva, manifest)
    path = os.path.join(args.out, f"estimate_{mode}.{args.format}")
    write_results(table, path, args.format)
    print(f"wrote {path}")
    return 0


def cmd_compare(args) -> int:
    overrides = _cfg_overrides(args)
    runs = {}
    for tag, cfg_path in (("a", args.config_a), ("b", args.config_b)):
        exp = prepare(args.case, args.partition, args.plan, cfg_path, overrides)
        mode = exp.cfg.mode
        runs[tag] = (exp, mode) + run_mode(exp, mode)[:2]
    exp_a, mode_a, dvm_a, dva_a = runs["a"]
    exp_b, mode_b, dvm_b, dva_b = runs["b"]
    if exp_a.cfg.trials == 1:
        print("note: single-trial comparison, not statistically meaningful")
    err_a = 0.5 * (dvm_a + dva_a)
    err_b = 0.5 * (dvm_b + dva_b)
    wins = float(np.mean(err_a <= err_b))
    print(f"A ({mode_a}): mean|dV|={dvm_a.mean():.3e} mean|dth|={dva_a.mean():.3e}")
    print(f"B ({mode_b}): mean|dV|={dvm_b.mean():.3e} mean|dth|={dva_b.mean():.3e}")
    print(f"per-bus win rate of A (mean error <= B): {wins:.1%}")

    os.makedirs(args.out, exist_ok=True)
    config_text = caseio.render_config(exp_a.cfg) + caseio.render_config(exp_b.cfg)
    manifest = manifest_for("compare", exp_a.cfg.seed, config_text,
                            fixtures={**exp_a.texts, **exp_b.texts})
    table = ResultTable(
        ["bus", "mean_abs_err_vm_a", "mean_abs_err_va_deg_a",
         "mean_abs_err_vm_b", "mean_abs_err_va_deg_b"],
        manifest=manifest,
    )
    bus_ids = tuple(sorted(exp_a.truth.bus_ids))
    for j, bid in enumerate(bus_ids):
        table.add(bid, float(dvm_a[j]), float(np.degrees(dva_a[j])),
                  float(dvm_b[j]), float(np.degrees(dva_b[j])))
    path = os.path.join(args.out, f"compare.{args.format}")
    write_results(table, path, args.format)
    print(f"wrote {path}")
    return 0


def _cfg_overrides(args) -> dict:
    out = {}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        out["trials"] = args.trials
    if getattr(args, "tol", None) is not None:
        out["epsilon"] = args.tol
    if getattr(args, "mu", None) is not None:
        out["mu"] = args.mu
        out["lambda_strategy"] = "approx"
    if getattr(args, "lambda_exact", False):
        out["lambda_strategy"] = "exact"
    if getattr(args, "uncertainty", None) is not None:
        parts = args.uncertainty.split(",")
        if len(parts) != 2:
            raise ValidationError("--uncertainty expects 's0,e0'")
        try:
            out["s0"], out["e0"] = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValidationError("--uncertainty expects numeric 's0,e0'") from None
    return out


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a usage error (exit 1, not 2)."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gridstate", description="Two-level robust multi-area state estimation")
    sub = ap.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("powerflow", help="run the truth load flow")
    pf.add_argument("--case", help="case file (default: bundled IEEE 30-bus)")
    pf.add_argument("--tol", type=float, help="mismatch tolerance (default 1e-8)")
    pf.add_argument("--max-iter", type=int, default=20)
    pf.set_defaults(func=cmd_powerflow)

    def common(p):
        p.add_argument("--case")
        p.add_argument("--partition")
        p.add_argument("--plan")
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--tol", type=float, help="Gauss-Newton epsilon")
        lam = p.add_mutually_exclusive_group()
        lam.add_argument("--mu", type=float, help="use approximate lambda = (1+mu)||S'RS||")
        lam.add_argument("--lambda-exact", action="store_true", dest="lambda_exact")
        p.add_argument("--uncertainty", help="uncertainty scales 's0,e0'")
        p.add_argument("--out", default=".")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    est = sub.add_parser("estimate", help="run an estimation pipeline")
    common(est)
    est.add_argument("--parallel", action="store_true", help="run level 1 areas concurrently")
    est.add_argument("--config")
    est.add_argument("--mode", choices=caseio.MODES)
    est.set_defaults(func=cmd_estimate)

    cmp_ = sub.add_parser("compare", help="paired-seed comparison of two configs")
    common(cmp_)
    cmp_.add_argument("--config-a", required=True)
    cmp_.add_argument("--config-b", required=True)
    cmp_.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
