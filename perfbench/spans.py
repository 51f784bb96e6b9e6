"""Outside-in layer trace: spans recorded around calls into gridstate.

``Tracer.install`` replaces each traced function at the place its caller
looks it up (a module attribute or a class attribute) with a wrapper that
records a span; ``uninstall`` restores the originals.  Nothing under
``src/`` changes.  A span is (id, name, start, end, parent id, trial id,
self seconds, attrs); self time is the span's duration minus the time its
direct children cover.  The serial pipeline runs on one thread, so spans
nest strictly.

``PowerNetwork.branch`` runs thousands of times per trial, so it is a
counted leaf rather than a span: its calls and seconds are summed per
trial and still subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import json
from time import perf_counter

from gridstate import bdu, caseio, cli, hybrid, measurement, multiarea, netmodel, powerflow, wls

BRANCH = "netmodel.branch"


def _rows(args, _out):
    return {"rows": len(args[2])}


def _hybrid_rows(args, _out):
    return {"rows": len(args[0].z)}


def _pf_iters(_args, out):
    return {"iters": out.iterations}


# (owner, attribute, span name, attrs(args, result) or None); owners are the
# modules or classes whose namespace the caller resolves the name in
SPANS = (
    (cli, "prepare", "cli.prepare", None),
    (caseio, "parse_case", "caseio.parse_case", None),
    (caseio, "parse_partition", "caseio.parse_partition", None),
    (caseio, "parse_plan", "caseio.parse_plan", None),
    (caseio, "parse_config", "caseio.parse_config", None),
    (cli, "redundancy", "measurement.redundancy", None),
    (cli, "run_powerflow", "powerflow.run_powerflow", _pf_iters),
    (cli, "run_trial", "cli.run_trial", None),
    (cli, "synthesize", "measurement.synthesize", None),
    (cli, "run_centralized", "multiarea.run_centralized", None),
    (cli, "run_two_level", "multiarea.run_two_level", None),
    (cli, "compute_errors", "multiarea.compute_errors", None),
    (multiarea, "run_two_level", "multiarea.run_two_level", None),
    (multiarea, "split_measurements", "multiarea.split_measurements", None),
    (multiarea, "coordinator_measurements", "multiarea.coordinator_measurements", None),
    (multiarea, "level1_run", "multiarea.level1_run", None),
    (multiarea, "level2_run", "multiarea.level2_run", None),
    (multiarea, "check_observable", "wls.check_observable", None),
    (multiarea, "wls_estimate", "wls.wls_estimate", None),
    (multiarea, "build_hybrid_model", "hybrid.build_hybrid_model", None),
    (multiarea, "stack_model", "hybrid.stack_model", None),
    (multiarea, "uncertainty_for_model", "hybrid.uncertainty_for_model", None),
    (multiarea, "apply_perturbation", "hybrid.apply_perturbation", None),
    (multiarea, "hybrid_solve", "hybrid.hybrid_solve", _hybrid_rows),
    (multiarea, "hybrid_solve_robust", "hybrid.hybrid_solve_robust", _hybrid_rows),
    (hybrid, "bdu_solve", "bdu.bdu_solve", None),
    (bdu, "min_g", "bdu.min_g", None),
    (measurement, "h_eval", "measurement.h_eval", _rows),
    (wls, "h_eval", "measurement.h_eval", _rows),
    (multiarea, "h_eval", "measurement.h_eval", _rows),
    (wls, "jacobian_polar", "measurement.jacobian_polar", None),
    (multiarea, "jacobian_polar", "measurement.jacobian_polar", None),
    (measurement.ModelView, "__init__", "measurement.ModelView", None),
    (measurement, "build_ybus", "netmodel.build_ybus", None),
    (powerflow, "build_ybus", "netmodel.build_ybus", None),
)
LEAVES = ((netmodel.PowerNetwork, "branch", BRANCH),)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, trial, self_s, attrs)
        self.leaves = {}  # trial -> {leaf name: [calls, seconds]}
        self.trial = None
        self._stack = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._saved = []

    def install(self):
        for owner, attr, name, attrs in SPANS:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, attrs))
        for owner, attr, name in LEAVES:
            self._patch(owner, attr, self._leaf_wrapper(getattr(owner, attr), name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def begin(self, trial):
        """Tag the spans that follow with ``trial`` (any JSON-able id)."""
        self.trial = trial
        self.leaves.setdefault(trial, {})

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``; the harness's own spans."""
        return self._span_wrapper(fn, name, None)(*args, **kwargs)

    def _span_wrapper(self, fn, name, attrs):
        stack = self._stack

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            extra = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.spans.append((sid, name, t0, t1, parent, self.trial, t1 - t0 - frame[1], extra))

        return traced

    def _leaf_wrapper(self, fn, name):
        stack = self._stack

        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                if stack:
                    stack[-1][1] += d
                acc = self.leaves[self.trial].setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += d

        return counted

    def write(self, path, header: dict):
        """Spans as JSON lines after one header line; leaf totals last."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            keys = ("id", "name", "start", "end", "parent", "trial", "self_s", "attrs")
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
            for trial, leaves in self.leaves.items():
                for name, (calls, secs) in leaves.items():
                    fh.write(json.dumps({"leaf": name, "trial": trial, "calls": calls, "seconds": secs}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

# metric -> (span names, what to sum: "n" calls, "ms" inclusive, "self_ms"
# exclusive, or an attrs key)
TRIAL_METRICS = {
    "netmodel.build_ybus.calls": (("netmodel.build_ybus",), "n"),
    "netmodel.build_ybus.ms": (("netmodel.build_ybus",), "ms"),
    "measurement.ModelView.ms": (("measurement.ModelView",), "ms"),
    "measurement.h_eval.calls": (("measurement.h_eval",), "n"),
    "measurement.h_eval.rows": (("measurement.h_eval",), "rows"),
    "measurement.h_eval.self_ms": (("measurement.h_eval",), "self_ms"),
    "measurement.jacobian_polar.calls": (("measurement.jacobian_polar",), "n"),
    "measurement.jacobian_polar.self_ms": (("measurement.jacobian_polar",), "self_ms"),
    "wls.wls_estimate.self_ms": (("wls.wls_estimate",), "self_ms"),
    "wls.check_observable.ms": (("wls.check_observable",), "ms"),
    "hybrid.build.ms": (
        ("hybrid.build_hybrid_model", "hybrid.stack_model",
         "hybrid.uncertainty_for_model", "hybrid.apply_perturbation"),
        "ms",
    ),
    "hybrid.solve.self_ms": (("hybrid.hybrid_solve", "hybrid.hybrid_solve_robust"), "self_ms"),
    "hybrid.rows": (("hybrid.hybrid_solve", "hybrid.hybrid_solve_robust"), "rows"),
    "bdu.bdu_solve.self_ms": (("bdu.bdu_solve",), "self_ms"),
    "bdu.min_g.ms": (("bdu.min_g",), "ms"),
    "bdu.min_g.calls": (("bdu.min_g",), "n"),
    "multiarea.level1_run.ms": (("multiarea.level1_run",), "ms"),
    "multiarea.level2_run.self_ms": (("multiarea.level2_run",), "self_ms"),
    "multiarea.split.ms": (
        ("multiarea.split_measurements", "multiarea.coordinator_measurements"), "ms"),
    "measurement.synthesize.ms": (("measurement.synthesize",), "ms"),
    "cli.compute_errors.ms": (("multiarea.compute_errors",), "ms"),
}
PER_TRIAL = (BRANCH + ".calls", BRANCH + ".ms", *TRIAL_METRICS)
# taken from the trial results by the harness, not from spans
WLS_ITERS = "wls.iters"
COORD_ITERS = "multiarea.coord_iters"
H_PER_ITER = "wls.h_per_iter"


def unit_of(metric: str) -> str:
    return "ms" if metric.endswith("ms") else "count"


def trial_metrics(tracer: Tracer) -> dict:
    """{trial: {metric: value}} summed over each trial's spans, plus the
    h_eval calls made inside wls_estimate (``wls.h_calls``)."""
    out = {}
    names = {}
    for sid, name, *_ in tracer.spans:
        names[sid] = name
    parent_of = {rec[0]: rec[4] for rec in tracer.spans}
    wanted = {}
    for metric, (span_names, what) in TRIAL_METRICS.items():
        for n in span_names:
            wanted.setdefault(n, []).append((metric, what))
    for sid, name, t0, t1, parent, trial, self_s, extra in tracer.spans:
        row = out.setdefault(trial, {})
        for metric, what in wanted.get(name, ()):
            if what == "n":
                v = 1
            elif what == "ms":
                v = 1e3 * (t1 - t0)
            elif what == "self_ms":
                v = 1e3 * self_s
            else:
                v = extra[what]
            row[metric] = row.get(metric, 0) + v
        if name == "measurement.h_eval":
            p = parent
            while p is not None and names[p] != "wls.wls_estimate":
                p = parent_of[p]
            if p is not None:
                row["wls.h_calls"] = row.get("wls.h_calls", 0) + 1
    for trial, leaves in tracer.leaves.items():
        calls, secs = leaves.get(BRANCH, (0, 0.0))
        row = out.setdefault(trial, {})
        row[BRANCH + ".calls"] = calls
        row[BRANCH + ".ms"] = 1e3 * secs
    return out
