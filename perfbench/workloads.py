"""Benchmark inputs, written out as the files ``cli.prepare`` reads.

* ``ieee30``: the bundled 3-area IEEE-30 experiment with the bundled
  ``ieee30.cfg`` values (approx lambda, mu=100, s0=e0=0.05).
* ``ieee30-outage``: the same network with exact lambda; every trial
  loses a seeded set of non-tie FLOW pairs (``OutageDraws``).
* ``tiled-x<k>``: IEEE-30 tiled k times (``tile_ieee30``), approx lambda.

The program sees only the generated files and measurement sets; the
benchmark seed is written into the config as its ``seed`` key.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from gridstate import caseio, measurement, multiarea, netmodel, powerflow, wls

# tie branch copied between replicas, and the bus it joins in each replica
TIE_TEMPLATE = (15, 23)
TIE_BUS = 30

# drop sets come from their own stream of the benchmark seed
OUTAGE_STREAM = 7
OUTAGE_DROPS = 4
OUTAGE_MAX_DRAWS = 1000


def config_text(seed: int, lambda_strategy: str = "approx") -> str:
    """The bundled ``ieee30.cfg`` with its seed and lambda strategy set."""
    out, seen = [], set()
    for line in caseio.bundled_text("ieee30.cfg").splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key == "seed":
            line = f"seed = {int(seed)}"
        elif key == "lambda_strategy":
            line = f"lambda_strategy = {lambda_strategy}"
        seen.add(key)
        out.append(line)
    if not {"seed", "lambda_strategy"} <= seen:
        raise ValueError("bundled ieee30.cfg lacks a seed or lambda_strategy key")
    return "\n".join(out) + "\n"


def write_inputs(workdir: str, texts: dict) -> dict:
    """Write {role: text} as files in workdir; returns {role: path}."""
    paths = {}
    for role, text in texts.items():
        path = os.path.join(workdir, f"input.{role}")
        with open(path, "w") as fh:
            fh.write(text)
        paths[role] = path
    return paths


def ieee30_texts(seed: int, lambda_strategy: str = "approx") -> dict:
    return {
        "case": caseio.bundled_text("ieee30.case"),
        "partition": caseio.bundled_text("ieee30.areas"),
        "plan": caseio.bundled_text("ieee30.plan"),
        "config": config_text(seed, lambda_strategy),
    }


# ---------------------------------------------------------------------------
# k-times tiled IEEE-30


def slack_output(net: netmodel.PowerNetwork, state) -> float:
    """Active power the slack bus injects at a solved load flow."""
    adm = netmodel.build_ybus(net)
    order = [state.index(b) for b in adm.bus_ids]
    p, _ = powerflow.calc_injections(adm.y, state.vm[order], state.va[order])
    return float(p[adm.index(net.slack_bus.id)])


def tile_ieee30(k: int) -> dict:
    """Case, partition and plan texts of IEEE-30 tiled k times.

    Replica r renumbers bus b as b + 30 r and keeps its three areas
    (indices 3 r + 1..3).  Replica slacks other than the first become PV
    buses that inject the single-replica slack output, and bus 30 of each
    replica is tied to bus 30 of the next by a copy of line 15-23 with a
    FLOW pair metered at each end and an INJ pair at every tied bus 30.
    Same-bus ties carry no flow, so every replica's load flow equals the
    IEEE-30 one.
    """
    if k < 1:
        raise ValueError("tile count must be at least 1")
    base = caseio.load_ieee30()
    n = base.n_bus
    if base.bus_ids != tuple(range(1, n + 1)):
        raise ValueError("tiling expects IEEE-30 buses numbered 1..n")
    part = caseio.load_ieee30_partition(base)
    plan = caseio.load_ieee30_plan()
    p_slack = slack_output(base, powerflow.run_powerflow(base).state)
    tie = base.branch(*TIE_TEMPLATE)

    buses, branches, areas, entries = [], [], [], []
    for r in range(k):
        off = n * r
        for b in base.buses:
            bus = replace(b, id=b.id + off)
            if r and b.kind == netmodel.SLACK:
                bus = replace(bus, kind=netmodel.GENERATOR, va=0.0, p=p_slack, q=0.0)
            buses.append(bus)
        branches.extend(replace(br, f=br.f + off, t=br.t + off) for br in base.branches)
        for a in part.areas:
            own = ",".join(str(b + off) for b in sorted(a.own))
            areas.append(f"AREA {3 * r + a.index} REF {a.ref_bus + off} : {own}")
        for e in plan.entries:
            if e.kind == "flow":
                entries.append(f"FLOW {e.branch[0] + off} {e.branch[1] + off} {e.side}")
            else:
                entries.append(f"{e.kind.upper()} {e.bus + off}")
        if k > 1:
            # the tie adds the neighbour's bus 30 to this area's states; an
            # injection pair at the tie bus keeps eta >= 1.3 (area 3 of
            # IEEE-30 sits at 1.304, and the tie's FLOW pairs alone give 1.26)
            entries.append(f"INJ {TIE_BUS + off}")
        if r + 1 < k:
            f, t = TIE_BUS + off, TIE_BUS + off + n
            branches.append(replace(tie, f=f, t=t))
            entries.extend([f"FLOW {f} {t} from", f"FLOW {f} {t} to"])
    net = netmodel.PowerNetwork(tuple(buses), tuple(branches), base.base_mva)
    return {
        "case": caseio.render_case(net),
        "partition": "\n".join(areas) + "\n",
        "plan": "\n".join(entries) + "\n",
    }


def tiled_texts(k: int, seed: int) -> dict:
    texts = tile_ieee30(k)
    texts["config"] = config_text(seed)
    return texts


def check_tiled(exp, k: int, plan_text: str, min_eta: float = 1.3) -> list[str]:
    """Gate for a prepared tiled grid; returns the failures (empty = pass).

    ``cli.prepare`` already raised if the truth load flow did not
    converge.  Every replica's truth must equal the IEEE-30 truth within
    1e-8, and every area must keep eta >= ``min_eta`` with no redundancy
    warning.
    """
    base_truth = powerflow.run_powerflow(caseio.load_ieee30()).state
    n = base_truth.vm.shape[0]
    failures = []
    for r in range(k):
        for b in base_truth.bus_ids:
            vm, va = exp.truth.at(b + n * r)
            vm0, va0 = base_truth.at(b)
            if abs(vm - vm0) > 1e-8 or abs(va - va0) > 1e-8:
                failures.append(f"replica {r} bus {b}: truth differs from IEEE-30")
    report, warnings = measurement.redundancy(exp.net, exp.part, caseio.parse_plan(plan_text))
    failures.extend(warnings)
    for idx, (_, _, eta) in sorted(report.items()):
        if eta < min_eta:
            failures.append(f"area {idx}: eta = {eta:.3f} < {min_eta}")
    if len(report) != 3 * k:
        failures.append(f"expected {3 * k} areas, found {len(report)}")
    return failures


# ---------------------------------------------------------------------------
# meter outages


class OutageDraws:
    """Per-trial spec sets that drop ``OUTAGE_DROPS`` non-tie FLOW pairs.

    The drop set of trial t depends only on (seed, t).  A draw that leaves
    any area's level-1 model, or the centralized model, unobservable is
    redrawn; ``redraws`` counts those.
    """

    def __init__(self, exp, seed: int):
        self.exp = exp
        self.seed = int(seed)
        self.redraws = 0
        by_key = {}
        for m in exp.specs:
            if m.kind in measurement.FLOW_KINDS and not exp.part.is_tie(exp.net.branch(*m.branch)):
                by_key.setdefault((m.branch, m.side), []).append(m.id)
        self.pairs = [tuple(ids) for ids in by_key.values()]
        if len(self.pairs) < OUTAGE_DROPS:
            raise ValueError("too few non-tie FLOW pairs to drop")
        self.partitions = [exp.part, netmodel.single_area(exp.net, exp.part.global_ref)]
        self.views = {
            (i, a.index): measurement.ModelView.for_area(exp.net, p, a.index)
            for i, p in enumerate(self.partitions)
            for a in p.areas
        }

    def observable(self, specs) -> bool:
        """The pipeline's own level-1 rank check, for every area of the
        multi-area and the centralized partition."""
        mset = measurement.MeasurementSet(tuple(specs))
        for i, part in enumerate(self.partitions):
            scada, pmu = multiarea.split_measurements(part, mset)
            for area in part.areas:
                # the anchor rows level 1 adds to its SCADA set
                anchor = multiarea._pmu_ref_anchor(pmu[area.index], area.ref_bus)
                model = wls.PolarModel(
                    self.views[(i, area.index)],
                    tuple(scada[area.index]) + anchor,
                    pin_angle=not anchor,
                )
                if not wls.check_observable(model):
                    return False
        return True

    def specs_for(self, trial: int) -> tuple:
        rng = np.random.default_rng([self.seed, OUTAGE_STREAM, trial])
        for _ in range(OUTAGE_MAX_DRAWS):
            pick = rng.choice(len(self.pairs), OUTAGE_DROPS, replace=False)
            dropped = {mid for k in pick for mid in self.pairs[k]}
            specs = tuple(m for m in self.exp.specs if m.id not in dropped)
            if self.observable(specs):
                return specs
            self.redraws += 1
        raise RuntimeError(f"trial {trial}: no observable drop set in {OUTAGE_MAX_DRAWS} draws")
