"""File formats: network cases, partitions, measurement plans, experiment
configs, and result persistence.

All formats are line-oriented with ``#`` comments.  Angles are radians in
files and API, degrees only in human-facing report columns.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources

from .errors import ParseError, ValidationError, is_integer
from .measurement import MeasurementPlan, PlanEntry
from .netmodel import BUS_KINDS, AreaPartition, Branch, Bus, PowerNetwork, partition


def _tokens(text):
    """Yield (line_number, token_list), skipping blanks and comments."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line.split()


def _floats(parts, ln, what):
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad numeric field in {what} record: {exc}", line=ln) from None


def parse_case(text: str) -> PowerNetwork:
    """Parse a network case file (BUS / BRANCH / BASEMVA records)."""
    buses, branches = [], []
    base_mva = 100.0
    seen_any = False
    for ln, parts in _tokens(text):
        seen_any = True
        rec, args = parts[0].upper(), parts[1:]
        if rec == "BASEMVA":
            if len(args) != 1:
                raise ParseError("BASEMVA expects one value", line=ln)
            base_mva = _floats(args, ln, "BASEMVA")[0]
        elif rec == "BUS":
            if len(args) != 8:
                raise ParseError(f"BUS expects 8 fields, got {len(args)}", line=ln)
            try:
                bid = int(args[0])
            except ValueError:
                raise ParseError(f"bad bus id {args[0]!r}", line=ln) from None
            kind = args[1].lower()
            if kind not in BUS_KINDS:
                raise ParseError(f"unknown bus kind {args[1]!r}", line=ln)
            vm, va, p, q, gs, bs = _floats(args[2:], ln, "BUS")
            if any(b.id == bid for b in buses):
                raise ParseError(f"duplicate bus id {bid}", line=ln)
            try:
                buses.append(Bus(bid, kind, vm, va, p, q, gs, bs))
            except ValidationError as exc:
                raise ParseError(str(exc), line=ln) from None
        elif rec == "BRANCH":
            if len(args) != 7:
                raise ParseError(f"BRANCH expects 7 fields, got {len(args)}", line=ln)
            try:
                f, t = int(args[0]), int(args[1])
            except ValueError:
                raise ParseError("bad branch endpoint", line=ln) from None
            r, x, b, tap, shift = _floats(args[2:], ln, "BRANCH")
            try:
                branches.append(Branch(f, t, r, x, b, tap, shift))
            except ValidationError as exc:
                raise ParseError(str(exc), line=ln) from None
        else:
            raise ParseError(f"unknown record type {rec!r}", line=ln)
    if not seen_any:
        raise ParseError("empty case file", line=1)
    return PowerNetwork(tuple(buses), tuple(branches), base_mva)


def render_case(net: PowerNetwork) -> str:
    """Inverse of parse_case (field-level round trip)."""
    out = [f"BASEMVA {net.base_mva!r}"]
    for b in net.buses:
        out.append(
            f"BUS {b.id} {b.kind} {b.vm!r} {b.va!r} {b.p!r} {b.q!r} {b.gs!r} {b.bs!r}"
        )
    for br in net.branches:
        out.append(
            f"BRANCH {br.f} {br.t} {br.r!r} {br.x!r} {br.b!r} {br.tap!r} {br.shift!r}"
        )
    return "\n".join(out) + "\n"


def parse_partition(text: str, net: PowerNetwork) -> AreaPartition:
    """Parse ``AREA idx REF busid : bus,bus,...`` lines and classify."""
    assignment: dict[int, int] = {}
    refs: dict[int, int] = {}
    for ln, parts in _tokens(text):
        if parts[0].upper() != "AREA":
            raise ParseError(f"expected AREA record, got {parts[0]!r}", line=ln)
        try:
            colon = parts.index(":")
        except ValueError:
            raise ParseError("AREA record missing ':'", line=ln) from None
        head, tail = parts[1:colon], parts[colon + 1 :]
        if len(head) != 3 or head[1].upper() != "REF":
            raise ParseError("AREA record must read 'AREA idx REF busid : ...'", line=ln)
        try:
            idx, ref = int(head[0]), int(head[2])
            members = [int(tok) for g in tail for tok in g.split(",") if tok]
        except ValueError as exc:
            raise ParseError(f"bad integer in AREA record: {exc}", line=ln) from None
        if idx in refs:
            raise ParseError(f"area {idx} defined twice", line=ln)
        refs[idx] = ref
        for m in members:
            if m in assignment:
                raise ParseError(f"bus {m} assigned to two areas", line=ln)
            assignment[m] = idx
    if not refs:
        raise ParseError("empty partition file", line=1)
    return partition(net, assignment, refs)


def parse_plan(text: str) -> MeasurementPlan:
    """Parse INJ / FLOW / PMU records into a measurement plan."""
    entries = []
    for ln, parts in _tokens(text):
        rec, args = parts[0].upper(), parts[1:]
        try:
            if rec == "INJ":
                if len(args) != 1:
                    raise ValueError
                entries.append(PlanEntry("inj", bus=int(args[0])))
            elif rec == "FLOW":
                if len(args) != 3:
                    raise ValueError
                side = args[2].lower()
                if side not in ("from", "to"):
                    raise ParseError(f"flow side must be 'from' or 'to', got {args[2]!r}", line=ln)
                entries.append(PlanEntry("flow", branch=(int(args[0]), int(args[1])), side=side))
            elif rec == "PMU":
                if len(args) != 1:
                    raise ValueError
                entries.append(PlanEntry("pmu", bus=int(args[0])))
            else:
                raise ParseError(f"unknown plan record {rec!r}", line=ln)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"malformed {rec} record", line=ln) from None
    if not entries:
        raise ParseError("empty measurement plan", line=1)
    return MeasurementPlan(tuple(entries))


MODES = ("central-wls", "central-robust", "multiarea-wls", "multiarea-robust")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an estimation experiment needs beyond the case itself."""

    partition: str | None = None
    plan: str | None = None
    sigma_injection: float = 0.01
    sigma_flow: float = 0.008
    sigma_pmu: float = 0.001
    s0: float = 0.0
    e0: float = 0.0
    lambda_strategy: str = "approx"
    mu: float = 100.0
    trials: int = 1
    seed: int = 0
    epsilon: float = 1e-6
    k_limit: int = 20
    mode: str = "multiarea-robust"

    def __post_init__(self):
        # NaN passes every ordered comparison below, and inf never converges
        for name in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("sigma_injection", "sigma_flow", "sigma_pmu"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"{name} must be positive")
        for name in sorted(_INT_KEYS):
            if not is_integer(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer")
        if self.trials < 1:
            raise ValidationError("trial count must be at least 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.epsilon <= 0.0:
            raise ValidationError("epsilon must be positive")
        if self.k_limit < 1:
            raise ValidationError("k_limit must be at least 1")
        for name in ("s0", "e0", "mu"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.lambda_strategy not in ("exact", "approx"):
            raise ValidationError(f"unknown lambda strategy {self.lambda_strategy!r}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")

    def sigma_for(self, kind: str) -> float:
        if kind in ("p_inj", "q_inj"):
            return self.sigma_injection
        if kind in ("p_flow", "q_flow"):
            return self.sigma_flow
        return self.sigma_pmu


_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_KEYS = {"trials", "seed", "k_limit"}
_STR_KEYS = {"partition", "plan", "lambda_strategy", "mode"}
_FLOAT_KEYS = tuple(k for k in _CONFIG_TYPES if k not in _INT_KEYS | _STR_KEYS)


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; unknown keys are errors (strict mode)."""
    values = {}
    for ln, parts in _tokens(text):
        joined = " ".join(parts)
        if "=" not in joined:
            raise ParseError("expected 'key = value'", line=ln)
        key, _, val = (s.strip() for s in joined.partition("="))
        if key not in _CONFIG_TYPES:
            raise ParseError(f"unknown config key {key!r}", line=ln)
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", line=ln)
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _STR_KEYS:
                values[key] = val
            else:
                values[key] = float(val)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", line=ln) from None
    try:
        return ExperimentConfig(**values)
    except ValidationError as exc:
        raise ValidationError(f"invalid config: {exc}") from None


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical ``key = value`` text of a config: every set key, in field
    order; :func:`parse_config` reads it back to an equal config."""
    lines = []
    for name in _CONFIG_TYPES:
        value = getattr(cfg, name)
        if value is None:
            continue
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# bundled fixtures

BUNDLED = ("ieee30.case", "ieee30.areas", "ieee30.plan", "ieee30.cfg")


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise ValidationError(f"no bundled fixture named {name!r}")
    return resources.files("gridstate.data").joinpath(name).read_text()


def load_ieee30() -> PowerNetwork:
    return parse_case(bundled_text("ieee30.case"))


def load_ieee30_partition(net: PowerNetwork | None = None) -> AreaPartition:
    if net is None:
        net = load_ieee30()
    return parse_partition(bundled_text("ieee30.areas"), net)


def load_ieee30_plan() -> MeasurementPlan:
    return parse_plan(bundled_text("ieee30.plan"))


def load_ieee30_config() -> ExperimentConfig:
    return parse_config(bundled_text("ieee30.cfg"))


# ---------------------------------------------------------------------------
# result persistence


@dataclass
class ResultTable:
    """Column-ordered result rows plus the run manifest embedded on output."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValidationError("row width does not match column count")
        self.rows.append(list(values))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def manifest_for(command: str, seed, config_text: str, fixtures: dict | None = None) -> dict:
    """Reproducibility manifest; ``config_text`` is the effective config
    (see :func:`render_config`).  No wall-clock fields: outputs must be
    byte-identical for identical inputs and seed."""
    man = {
        "command": command,
        "seed": seed,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
    }
    if fixtures:
        man["fixtures"] = {
            k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(fixtures.items())
        }
    return man


def write_results(table: ResultTable, path, fmt: str = "csv") -> None:
    """Persist a result table deterministically (byte-identical per input)."""
    if fmt == "csv":
        lines = [f"# {json.dumps(table.manifest, sort_keys=True)}"]
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_fmt(v) for v in row))
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = json.dumps(
            {"manifest": table.manifest, "columns": table.columns, "rows": table.rows},
            sort_keys=True,
            indent=1,
        ) + "\n"
    else:
        raise ValidationError(f"unknown result format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
