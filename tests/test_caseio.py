import json
import os
from dataclasses import replace

import pytest

from gridstate import caseio
from gridstate.caseio import (
    ExperimentConfig,
    ResultTable,
    manifest_for,
    parse_case,
    parse_config,
    parse_partition,
    parse_plan,
    render_case,
    write_results,
)
from gridstate.errors import ParseError, ValidationError
from gridstate.measurement import redundancy


def test_bundled_case_counts(net30):
    case_text = caseio.bundled_text("ieee30.case")
    records = [l.split()[0] for l in case_text.splitlines() if l.strip() and not l.startswith("#")]
    assert net30.n_bus == 30
    assert len(net30.branches) == records.count("BRANCH")
    assert net30.base_mva == 100.0


def test_empty_and_malformed_input():
    with pytest.raises(ParseError):
        parse_case("")
    with pytest.raises(ParseError) as err:
        parse_case("BASEMVA 100\nBUS 1 slack 1.0 0 0 0 0\n")  # 7 fields
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_case("BUS 1 slack 1.0 0 0 0 0 0\nBUS 1 load 1.0 0 0 0 0 0\n")
    with pytest.raises(ParseError):
        parse_case("WIBBLE 3\n")


def test_minimal_two_bus_fixture():
    net = parse_case(
        "BASEMVA 100\n"
        "BUS 1 slack 1.0 0.0 0 0 0 0\n"
        "BUS 2 load 1.0 0.0 -0.1 -0.05 0 0\n"
        "BRANCH 1 2 0.01 0.1 0.0 1.0 0.0\n"
    )
    assert net.n_bus == 2 and len(net.branches) == 1


def test_case_round_trip(net30):
    again = parse_case(render_case(net30))
    assert again.buses == net30.buses
    assert again.branches == net30.branches
    assert again.base_mva == net30.base_mva


def test_partition_parse_errors(net30):
    with pytest.raises(ParseError):
        parse_partition("", net30)
    with pytest.raises(ParseError):
        parse_partition("AREA 1 REF 1 1,2,3\n", net30)  # missing ':'
    with pytest.raises(ParseError):
        parse_partition("AREA 1 REF 1 : 1,2\nAREA 1 REF 3 : 3\n", net30)


def test_plan_parse(net30):
    plan = parse_plan("INJ 2\nFLOW 1 2 from\nPMU 4\n")
    assert len(plan.entries) == 3
    assert plan.pmu_buses() == (4,)
    with pytest.raises(ParseError):
        parse_plan("FLOW 1 2 sideways\n")
    with pytest.raises(ParseError):
        parse_plan("")
    with pytest.raises(ParseError):
        parse_plan("INJ 1 2\n")


def test_config_defaults_match_noise_table():
    cfg = parse_config("")
    assert (cfg.sigma_injection, cfg.sigma_flow, cfg.sigma_pmu) == (0.01, 0.008, 0.001)


def test_config_validation():
    with pytest.raises(ValidationError):
        parse_config("trials = 0\n")
    with pytest.raises(ParseError):
        parse_config("nonsense_key = 1\n")
    with pytest.raises(ValidationError):
        parse_config("sigma_flow = -1\n")
    with pytest.raises(ParseError):
        parse_config("sigma_flow 0.01\n")
    with pytest.raises(ParseError):
        parse_config("seed = 1\nseed = 2\n")
    cfg = parse_config("mu = 3.5\nlambda_strategy = exact\n")
    assert cfg.mu == 3.5 and cfg.lambda_strategy == "exact"


@pytest.mark.parametrize("key", caseio._FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        ExperimentConfig(**{key: float(value)})
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        parse_config(f"{key} = {value}\n")


def test_render_config_round_trips():
    cfgs = (
        caseio.default_config(),
        caseio.load_ieee30_config(),
        ExperimentConfig(epsilon=1e-9, mode="central-wls", mu=0.1),
    )
    for cfg in cfgs:
        assert parse_config(caseio.render_config(cfg)) == cfg
    assert len({caseio.render_config(c) for c in cfgs}) == len(cfgs)


def test_config_rejects_negative_seed():
    # default_rng([seed, trial]) raises a bare numpy ValueError on a negative seed
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        parse_config("seed = -1\n")
    assert ExperimentConfig(seed=0).seed == 0


def test_low_redundancy_warning(net30, part30):
    plan = parse_plan("INJ 2\nPMU 4\n")
    _, warnings = redundancy(net30, part30, plan)
    assert warnings and all("eta" in w for w in warnings)


def test_sufficient_redundancy_no_warning(net30, part30, plan30):
    report, warnings = redundancy(net30, part30, plan30)
    assert not warnings
    assert all(eta >= 1.3 for _, _, eta in report.values())


def test_write_results_deterministic(tmp_path):
    man = manifest_for("test", 7, "cfgtext", {"case": "BUS..."})
    t = ResultTable(["bus", "value"], manifest=man)
    t.add(1, 0.5)
    t.add(2, 1.0 / 3.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(t, p1, "csv")
    write_results(t, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()
    pj = tmp_path / "a.json"
    write_results(t, pj, "json")
    data = json.loads(pj.read_text())
    assert data["columns"] == ["bus", "value"]
    assert data["manifest"]["seed"] == 7


def test_write_results_empty_and_errors(tmp_path):
    t = ResultTable(["bus"], manifest={})
    p = tmp_path / "empty.csv"
    write_results(t, p, "csv")
    lines = p.read_text().splitlines()
    assert lines[1] == "bus" and len(lines) == 2
    with pytest.raises(ValidationError):
        write_results(t, p, "xml")
    with pytest.raises(ValidationError):
        t.add(1, 2)
    with pytest.raises(OSError):
        write_results(t, os.path.join(str(tmp_path), "no", "dir.csv"), "csv")


def test_config_with_override(cfg30):
    cfg = replace(cfg30, seed=99)
    assert cfg.seed == 99 and cfg.sigma_pmu == cfg30.sigma_pmu
    with pytest.raises(ValidationError):
        ExperimentConfig(epsilon=0.0)
