from __future__ import annotations

import json
import math

import pytest

from faultlab.clc import ClcKind
from faultlab.harness import (
    TABLE1_ELEMENTS,
    TABLE1_ROWS,
    format_table1,
    prefault_network_readings,
    run_scenario,
    sweep_scenarios,
)
from faultlab.phasors import from_polar
from faultlab.presets import preset_scenario_overrides
from faultlab.report import CSV_COLUMNS, csv_header, csv_line, record_line
from faultlab.scenario import ValidationError, build_scenario
from faultlab.sources import prefault_solve

# the report schema is a contract: each name is a CSV column and a record
# field, so renames and reorders must be deliberate
EXPECTED_COLUMNS = (
    "scenario_id", "config_hash", "source_kind", "clc_kind", "fault_kind", "fault_m",
    "fault_r_g_ohm", "placement", "prefault_e_pu", "prefault_theta_deg", "prefault_p_pu",
    "prefault_q_pu", "v1_bus1_mag", "v1_bus1_ang", "v2_bus1_mag", "v2_bus1_ang",
    "v0_bus1_mag", "v0_bus1_ang", "i1_bus1_mag", "i1_bus1_ang", "i2_bus1_mag",
    "i2_bus1_ang", "i0_bus1_mag", "i0_bus1_ang", "v1_bus2_mag", "v1_bus2_ang",
    "v2_bus2_mag", "v2_bus2_ang", "v0_bus2_mag", "v0_bus2_ang", "i1_bus2_mag",
    "i1_bus2_ang", "i2_bus2_mag", "i2_bus2_ang", "i0_bus2_mag", "i0_bus2_ang",
    "phi2_deg", "phi0_deg", "dphi1_deg", "dd21_deg", "d20_deg", "dir_neg", "dir_zero",
    "dir_inc", "phase_sel", "zv1_mag", "zv1_ang", "zv2_mag", "zv2_ang", "ze1_mag",
    "ze1_ang", "ze2_mag", "ze2_ang", "ze0_mag", "ze0_ang", "zad_mag", "zad_ang",
    "dvdi1_mag", "dvdi1_ang", "sigma1_mag", "sigma1_ang", "sigma2_mag", "sigma2_ang",
    "limiter_active", "iterations", "residual", "i_max_phase_pu", "oracle_max_err",
)


def test_csv_column_contract() -> None:
    assert CSV_COLUMNS == EXPECTED_COLUMNS
    assert csv_header() == ",".join(EXPECTED_COLUMNS)


def test_generator_baseline_regression(preset_reports) -> None:
    _, report = preset_reports["sg-baseline-fwd"]
    assert report.source_kind == "sg"
    assert report.clc_kind is None
    assert report.phi2_deg == pytest.approx(-90.3318251, abs=1e-6)
    assert report.d20_deg == pytest.approx(-4.9467424, abs=1e-6)
    assert report.phase_sel == "bcg"
    assert report.dir_neg == "forward" and report.dir_zero == "forward"
    assert report.dir_inc == "forward"
    assert report.iterations == 1
    assert report.residual == 0.0
    assert not report.limiter_active
    assert report.oracle_max_err is not None and report.oracle_max_err < 1e-10


def test_saturated_converter_regressions(preset_reports) -> None:
    _, a = preset_reports["fig13a"]
    assert a.phi2_deg == pytest.approx(-155.8898843, abs=1e-5)
    assert a.d20_deg == pytest.approx(55.4701892, abs=1e-5)
    assert a.phase_sel == "none"
    assert a.dir_neg == "indeterminate"
    assert a.limiter_active and a.residual < 1e-9
    assert a.oracle_max_err is not None and a.oracle_max_err < 1e-8

    _, b = preset_reports["fig13b"]
    assert b.phi2_deg == pytest.approx(-91.8893843, abs=1e-5)
    assert b.d20_deg == pytest.approx(-3.9719943, abs=1e-5)
    assert b.phase_sel == "bcg"
    assert b.dir_neg == "forward"
    assert b.limiter_active and b.residual < 1e-9
    assert b.oracle_max_err is not None and b.oracle_max_err < 1e-8


def test_report_echoes_scenario_identity(preset_reports) -> None:
    scenario, report = preset_reports["fig13b"]
    assert report.scenario_id == "fig13b"
    assert report.config_hash == scenario.config_hash
    assert report.fault_kind == scenario.fault.fault_type.value
    assert report.fault_m == pytest.approx(scenario.fault.m)


def test_csv_is_byte_deterministic() -> None:
    def run_once() -> str:
        scenario = build_scenario(
            preset_scenario_overrides("fig12-circular"), scenario_id="fig12-circular"
        )
        return csv_line(run_scenario(scenario))

    assert run_once() == run_once()


def test_csv_blank_cells_for_missing_quantities(preset_reports) -> None:
    _, report = preset_reports["sg-baseline-fwd"]
    cells = dict(zip(CSV_COLUMNS, csv_line(report).split(",")))
    # a generator has no control-loop quantities
    for name in ("clc_kind", "zv1_mag", "zv2_ang", "sigma1_mag", "sigma2_ang",
                 "zad_mag"):
        assert cells[name] == ""
    assert cells["limiter_active"] == "false"
    assert cells["source_kind"] == "sg"

    line_fault = run_scenario(build_scenario({"source.kind": "sg", "fault.kind": "bc"}))
    cells = dict(zip(CSV_COLUMNS, csv_line(line_fault).split(",")))
    # no ground path: the zero-sequence channel never rises off the floor
    assert cells["i0_bus1_ang"] == ""
    assert cells["phi0_deg"] == ""
    assert cells["dir_zero"] == "indeterminate"
    assert cells["phase_sel"] == "bc"


def test_record_line_round_trips(preset_reports) -> None:
    scenario, report = preset_reports["sg-baseline-fwd"]
    line = record_line(report, scenario.resolved, scenario.provenance)
    payload = json.loads(line)
    assert payload["config"] == scenario.resolved
    assert payload["provenance"] == scenario.provenance
    assert payload["phi2_deg"] == pytest.approx(report.phi2_deg)
    assert payload["phase_sel"] == "bcg"
    assert set(CSV_COLUMNS) <= set(payload)


def test_sweep_argument_validation() -> None:
    # sweep_scenarios is a generator: the checks run on the first draw
    with pytest.raises(ValidationError, match="unknown sweep parameter"):
        list(sweep_scenarios({}, "fault.depth", 0.0, 1.0, 3))
    with pytest.raises(ValidationError, match="not numeric"):
        list(sweep_scenarios({}, "clc.kind", 0.0, 1.0, 3))
    with pytest.raises(ValidationError, match="not numeric"):
        list(sweep_scenarios({}, "circuit.voltages_are_peak", 0.0, 1.0, 3))
    with pytest.raises(ValidationError, match="at least 1"):
        list(sweep_scenarios({}, "fault.m", 0.0, 1.0, 0))
    with pytest.raises(ValidationError, match="positive"):
        list(sweep_scenarios({}, "fault.r_g_ohm", 0.0, 10.0, 3, log=True))


def test_sweep_spacing_and_ids() -> None:
    linear = list(sweep_scenarios({"source.kind": "sg"}, "fault.m", 0.0, 1.0, 5))
    values = [v for v, _ in linear]
    assert values == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert run_scenario(linear[1][1]).scenario_id == "sweep:fault.m=0.25"

    logspaced = sweep_scenarios({"source.kind": "sg"}, "fault.r_g_ohm", 0.1, 10.0, 3, log=True)
    reports = [(value, run_scenario(scenario)) for value, scenario in logspaced]
    assert [v for v, _ in reports] == pytest.approx([0.1, 1.0, 10.0])
    for value, report in reports:
        assert report.fault_r_g_ohm == pytest.approx(value)

    single = list(sweep_scenarios({"source.kind": "sg"}, "fault.m", 0.3, 0.9, 1))
    assert len(single) == 1 and single[0][0] == pytest.approx(0.3)


def test_sweep_keeps_generator_verdicts_stable() -> None:
    for _, scenario in sweep_scenarios({"source.kind": "sg"}, "fault.m", 0.05, 0.95, 3):
        report = run_scenario(scenario)
        assert report.dir_neg == "forward"
        assert report.phase_sel == "bcg"

    with_resistance = sweep_scenarios(
        {"source.kind": "sg", "fault.kind": "ag"}, "fault.r_g_ohm", 0.0, 30.0, 3
    )
    for _, scenario in with_resistance:
        report = run_scenario(scenario)
        assert report.phase_sel == "ag"
        assert abs(report.d20_deg) <= 30.0


def test_two_step_sweep_endpoints_reproduce_the_single_runs(preset_reports) -> None:
    base = dict(preset_scenario_overrides("fig13b"))
    del base["clc.n_x_r"]
    swept = sweep_scenarios(base, "clc.n_x_r", 0.1, 20.0, 2, log=True)
    for (_, point), name in zip(swept, ("fig13a", "fig13b")):
        report = run_scenario(point)
        scenario, single = preset_reports[name]
        # identical resolved config, so the physics is bit-identical
        assert report.config_hash == scenario.config_hash
        assert report.phi2_deg == single.phi2_deg
        assert report.d20_deg == single.d20_deg
        assert report.dd21_deg == single.dd21_deg
        assert report.phase_sel == single.phase_sel
        assert report.zv2_mag == single.zv2_mag
        assert report.iterations == single.iterations
        assert report.residual == single.residual


@pytest.mark.parametrize("kind", [kind.value for kind in ClcKind])
def test_converter_zero_sequence_source_impedance_is_the_transformer_leg(kind: str) -> None:
    # the converter is open in the zero sequence: only the grounded
    # transformer leg is left behind bus 1
    overrides = {"source.kind": "gfm", "clc.kind": kind, "gfm.x_t0_pu": 0.07}
    report = run_scenario(build_scenario(overrides))
    assert report.ze0_mag == 0.07
    assert report.ze0_ang == pytest.approx(90.0, abs=1e-12)


def test_in_network_filter_adds_into_the_effective_source_impedance() -> None:
    x_f, x_t = 0.15, 0.1
    for in_network in (False, True):
        report = run_scenario(build_scenario({
            "source.kind": "gfm", "clc.kind": "adaptive_virtual_impedance",
            "gfm.x_f_pu": x_f, "gfm.x_t_pu": x_t, "gfm.filter_in_network": in_network,
        }))
        z_v1 = from_polar(report.zv1_mag, report.zv1_ang)
        z_e1 = from_polar(report.ze1_mag, report.ze1_ang)
        branch = z_v1 + (1j * x_f if in_network else 0j)
        assert z_e1 == pytest.approx(branch + 1j * x_t, abs=1e-12), in_network


def test_generator_effective_source_impedance_includes_the_collection_line() -> None:
    scenario = build_scenario({"source.kind": "sg", "sg.x1_pu": 0.25, "sg.x0_pu": 0.08})
    report = run_scenario(scenario)
    col = next(e for e in scenario.net.series() if e.eid == "col")
    assert report.ze1_mag == pytest.approx(abs(0.25j + col.z1), rel=1e-15)
    assert report.ze2_mag == pytest.approx(abs(0.2j + col.z2), rel=1e-15)
    assert report.ze0_mag == pytest.approx(abs(0.08j + col.z0), rel=1e-15)
    assert report.zv1_mag is None and report.zad_mag is None


@pytest.mark.parametrize("kind", ["circular", "adaptive_virtual_impedance", "sg"])
def test_run_builds_each_network_at_most_five_times(monkeypatch, kind: str) -> None:
    """One nodal build for the prefault one-port, one per faulted sequence
    network, and one for the healthy readings; the fixed point builds none."""
    import faultlab.network

    calls = []
    real = faultlab.network._solve_one_sequence

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(faultlab.network, "_solve_one_sequence", counting)
    overrides = {"source.kind": "sg"} if kind == "sg" else {"source.kind": "gfm", "clc.kind": kind}
    report = run_scenario(build_scenario(overrides))
    if kind != "sg":
        assert report.limiter_active and report.iterations > 4
    assert len(calls) <= 5


def test_prefault_readings_balance_across_the_line() -> None:
    for kind in ("priority", "virtual_admittance"):
        scenario = build_scenario({"source.kind": "gfm", "clc.kind": kind})
        op = prefault_solve(
            scenario.net, scenario.gfm, scenario.p_ref, scenario.q_ref,
            tol=scenario.solver.newton_tol,
        )
        pre = prefault_network_readings(scenario, op)
        total = pre["bus1"].i + pre["bus2"].i
        assert total.max_abs() < 1e-9
        # and the converter really delivers its scheduled power at the line
        # end: the transformer between them is lossless
        s = pre["bus1"].v.pos * pre["bus1"].i.pos.conjugate()
        assert s.real == pytest.approx(scenario.p_ref, abs=scenario.solver.newton_tol), kind


def test_reliability_matrix_layout(table1_result) -> None:
    assert [row.label for row in table1_result.rows] == [
        "circular",
        "priority",
        "instantaneous",
        "virtual-admittance-xr20",
        "adaptive-vi-xr20",
        "adaptive-vi-xr0.1",
    ]
    assert table1_result.elements == TABLE1_ELEMENTS
    assert set(table1_result.cells) == {
        (row.label, element) for row in TABLE1_ROWS for element in TABLE1_ELEMENTS
    }


def test_reliability_matrix_matches_reference(table1_result) -> None:
    assert table1_result.matches_reference, table1_result.mismatches
    text = format_table1(table1_result)
    assert text.splitlines()[0].startswith("strategy")
    assert "pattern matches the reference reliability matrix" in text
    # the zero-sequence element holds everywhere; the negative-sequence one
    # follows the impedance-angle split between the strategy families
    for row in TABLE1_ROWS:
        assert table1_result.cells[(row.label, "phi0")] is True
        assert table1_result.cells[(row.label, "phi2")] is row.highly_inductive
        assert table1_result.cells[(row.label, "d20")] is row.highly_inductive
