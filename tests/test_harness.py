from __future__ import annotations

import cmath
import json
import math
import sys

import pytest

from faultlab.clc import ClcKind
from faultlab.harness import (
    _POLAR_NAMES,
    TABLE1_ELEMENTS,
    TABLE1_ROWS,
    Table1Row,
    _polar,
    format_table1,
    prefault_network_readings,
    report_scenario,
    run_scenario,
    solve_scenario,
    sweep_scenarios,
    table1_scenario,
    table1_verdicts,
)
from faultlab.network import FaultType, SourceElement, solve_fault
from faultlab.phasors import (
    DEFAULT_MAGNITUDE_FLOOR,
    ZeroPhasorError,
    angle_deg,
    from_polar,
    wrap_angle_deg,
)
from faultlab.presets import preset_scenario_overrides
from faultlab.relay import DirectionalConfig
from faultlab.report import CSV_COLUMNS, ScenarioReport, csv_header, csv_line, record_line
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
    # the nested mappings come out sorted whatever order they arrive in
    assert list(payload["config"]) == sorted(scenario.resolved)
    backwards = (dict(reversed(scenario.resolved.items())),
                 dict(reversed(scenario.provenance.items())))
    assert record_line(report, *backwards) == line


def _polar_by_angle_deg(z: complex | None) -> tuple[float | None, float | None]:
    """The report's magnitude and angle as `phasors.angle_deg` gives them."""
    if z is None:
        return None, None
    try:
        return abs(z), angle_deg(z)
    except ZeroPhasorError:
        return abs(z), None


@pytest.mark.parametrize(
    "z",
    [
        from_polar(0.7, -123.4),
        complex(0.0, -2.5),
        complex(DEFAULT_MAGNITUDE_FLOOR, 0.0),
        complex(0.0, 0.5 * DEFAULT_MAGNITUDE_FLOOR),
        complex(-0.0, -0.0),
        complex(-1.0, 0.0),
        complex(-1.0, -0.0),
        None,
    ],
)
def test_polar_equals_the_angle_deg_route(z: complex | None) -> None:
    assert repr(_polar(z)) == repr(_polar_by_angle_deg(z))


def test_polar_reads_the_negative_real_axis_as_180_degrees() -> None:
    assert _polar(complex(-1.0, 0.0)) == _polar(complex(-1.0, -0.0)) == (1.0, 180.0)
    assert _polar(complex(DEFAULT_MAGNITUDE_FLOOR, 0.0))[1] == 0.0
    assert _polar(complex(0.5 * DEFAULT_MAGNITUDE_FLOOR, 0.0))[1] is None


def test_polar_field_names_are_interned_report_fields(preset_reports) -> None:
    names = [name for pair in _POLAR_NAMES.values() for name in pair]
    report_fields = set(ScenarioReport._fields)
    assert set(names) == {n for n in report_fields if n.endswith(("_mag", "_ang"))}
    assert len(names) == len(set(names)) == 42
    # interned, so each keyword meets its parameter name by identity
    params = {p: p for p in ScenarioReport.__new__.__code__.co_varnames}
    for name in names:
        assert sys.intern(name) is name
        assert params[name] is name
    _, report = preset_reports["fig13b"]
    with pytest.raises(AttributeError):
        report.v1_bus1_mag = 0.0  # type: ignore[misc]


def test_report_equals_the_keyword_constructed_report(preset_reports) -> None:
    for _, report in preset_reports.values():
        values = {name: getattr(report, name) for name in ScenarioReport._fields}
        built = ScenarioReport(**values)
        assert report == built and repr(report) == repr(built)
        # any key order gives the same report
        assert ScenarioReport(**dict(reversed(values.items()))) == report
    moved = report._replace(fault_m=0.25)
    assert moved.fault_m == 0.25 and moved == built._replace(fault_m=0.25)
    with pytest.raises(AttributeError):
        report.fault_m = 0.0  # type: ignore[misc]


def test_report_fields_must_be_exactly_the_report_fields(preset_reports) -> None:
    _, report = preset_reports["fig13b"]
    values = {name: getattr(report, name) for name in ScenarioReport._fields}
    missing = {name: value for name, value in values.items() if name != "residual"}
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'residual'"):
        ScenarioReport(**missing)
    with pytest.raises(TypeError, match="unexpected keyword argument 'residue'"):
        ScenarioReport(**{**values, "residue": 0.0})


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


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize(
    "overrides",
    [
        {"source.kind": "sg", "fault.kind": "ag"},
        # every relay key set, so the swept one is among the overrides
        {
            "source.kind": "gfm", "clc.kind": "priority", "relay.phi_non_deg": 50.0,
            "relay.seq_floor_pu": 0.03, "relay.asym_floor_pu": 0.04,
            "relay.dd21_half_deg": 20.0, "relay.d20_half_deg": 25.0, "fault.kind": "bcg",
        },
    ],
    ids=["sg", "gfm-relay-set"],
)
@pytest.mark.parametrize(
    ("param", "start", "stop"),
    [
        ("relay.phi_non_deg", 30.0, 60.0),
        ("relay.seq_floor_pu", 0.01, 0.1),
        ("relay.asym_floor_pu", 0.01, 0.1),
        ("relay.dd21_half_deg", 5.0, 30.0),
        ("relay.d20_half_deg", 10.0, 60.0),
    ],
)
def test_relay_sweep_points_equal_their_own_builds(
    overrides: dict[str, object], param: str, start: float, stop: float, log: bool
) -> None:
    points = list(sweep_scenarios(overrides, param, start, stop, 4, log=log, scenario_id="sw"))
    assert len(points) == 4
    for value, point in points:
        built = build_scenario({**overrides, param: value}, scenario_id=f"sw:{param}={value:.6g}")
        assert point == built
        assert point.config_hash == built.config_hash
        assert list(point.provenance.items()) == list(built.provenance.items())
        assert list(point.resolved) == list(built.resolved)


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
    col = scenario.net.element("col")
    assert report.ze1_mag == pytest.approx(abs(0.25j + col.z1), rel=1e-15)
    assert report.ze2_mag == pytest.approx(abs(0.2j + col.z2), rel=1e-15)
    assert report.ze0_mag == pytest.approx(abs(0.08j + col.z0), rel=1e-15)
    assert report.zv1_mag is None and report.zad_mag is None


@pytest.mark.parametrize("kind", ["circular", "adaptive_virtual_impedance", "sg", "sg_x2"])
def test_run_builds_each_sequence_network_at_most_once(monkeypatch, kind: str) -> None:
    """One nodal build per faulted sequence network, the zero sequence
    included for a fault that does not reach ground, plus the dispatch's
    request for the healthy positive-sequence network: 4 requests for every
    fault, whatever the source. A build depends on the network alone, so a
    converter's dispatch and fault read one positive-sequence build (3
    distinct), while a generator's fault network holds its source branch and
    the dispatch's does not (4 distinct). The fixed point builds none.
    Repeats are shared only by the build memo: a cold run eliminates each
    distinct requested build once, and a second identical run requests the
    same builds and solves none of them."""
    import faultlab.network

    requests: list[tuple] = []
    solves: list[int] = []
    real = faultlab.network._solve_one_sequence
    real_dense = faultlab.network.solve_dense

    def counting(net, seq):
        requests.append((net, seq))
        return real(net, seq)

    def counting_dense(a, b):
        solves.append(len(a))
        return real_dense(a, b)

    monkeypatch.setattr(faultlab.network, "_solve_one_sequence", counting)
    monkeypatch.setattr(faultlab.network, "solve_dense", counting_dense)
    overrides = {
        "sg": {"source.kind": "sg"},
        "sg_x2": {"source.kind": "sg", "sg.x2_pu": 0.3},
    }.get(kind, {"source.kind": "gfm", "clc.kind": kind})
    for fault in FaultType:
        config = {**overrides, "fault.kind": fault.value}
        requests.clear()
        solves.clear()
        faultlab.network._solve_stamped.cache_clear()
        report = run_scenario(build_scenario(config))
        if fault is FaultType.BCG and not kind.startswith("sg"):
            assert report.limiter_active and report.iterations > 4
        seqs = [seq for _, seq in requests]
        assert sorted(seqs) == [0, 1, 1, 2], fault
        distinct = [r for k, r in enumerate(requests) if r not in requests[:k]]
        assert len(distinct) == (4 if kind.startswith("sg") else 3), fault
        assert len(solves) == len(distinct), fault
        first = list(requests)
        requests.clear()
        solves.clear()
        assert run_scenario(build_scenario(config)) == report
        assert requests == first and solves == [], fault


@pytest.mark.parametrize(
    "overrides",
    [{"source.kind": "sg"}] + [{"source.kind": "gfm", "clc.kind": law.value} for law in ClcKind],
    ids=lambda overrides: overrides.get("clc.kind", "sg"),
)
def test_oracle_agrees_on_every_fault_kind(overrides: dict[str, object]) -> None:
    """The phase-domain oracle reads the sequence route's relay quantities on
    every fault kind, the ones that do not reach ground included."""
    for fault in FaultType:
        for r_g in (0.0, 5.0):
            scenario = build_scenario(
                {**overrides, "fault.kind": fault.value, "fault.m": 0.5, "fault.r_g_ohm": r_g}
            )
            report = run_scenario(scenario, oracle_check=True)
            assert report.oracle_max_err < 1e-9, (fault, r_g, report.oracle_max_err)


def test_prefault_readings_balance_across_the_line() -> None:
    for kind in ("priority", "virtual_admittance"):
        scenario = build_scenario({"source.kind": "gfm", "clc.kind": kind})
        op = prefault_solve(
            scenario.net, scenario.source, scenario.p_ref, scenario.q_ref,
            tol=scenario.solver.newton_tol,
        )
        pre = prefault_network_readings(op)
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
    # on the battery the zero-sequence element holds under every strategy;
    # the negative-sequence one follows the impedance-angle split between
    # the strategy families
    for row in TABLE1_ROWS:
        assert table1_result.cells[(row.label, "phi0")] is True
        assert table1_result.cells[(row.label, "phi2")] is row.highly_inductive
        assert table1_result.cells[(row.label, "d20")] is row.highly_inductive


# Table 1 beyond the battery: ag and bcg at every m, R_g and dispatch below,
# 96 forward faults a row
OPERATING_SPACE = [
    (fault_type, {"fault.m": m, "fault.r_g_ohm": r_g, "source.p_ref": p_ref})
    for fault_type in (FaultType.AG, FaultType.BCG)
    for m in (0.05, 0.5, 0.95, 1.0)
    for r_g in (0.0, 5.0, 30.0, 100.0)
    for p_ref in (0.0, 0.5, 1.0)
]
# measured: phi2 is secure in 9, 11, 14 and 23 of 96 under the other rows;
# this bound may only go down
PHI2_SHARE_OTHERWISE = 0.25


@pytest.fixture(scope="module")
def battery() -> dict[str, list[tuple]]:
    """Every run of `OPERATING_SPACE` under every row, each solved once: per
    row label, (fault_type, point, scenario, op, sol, report) in that order."""
    runs: dict[str, list[tuple]] = {}
    for row in TABLE1_ROWS:
        runs[row.label] = []
        for fault_type, point in OPERATING_SPACE:
            scenario = table1_scenario(row, fault_type, point)
            op, sol = solve_scenario(scenario)
            report = report_scenario(scenario, op, sol)
            runs[row.label].append((fault_type, point, scenario, op, sol, report))
    return runs


@pytest.fixture(scope="module")
def table1_space(battery) -> dict[str, list[dict[str, bool]]]:
    return {
        label: [table1_verdicts(scenario, report) for _, _, scenario, _, _, report in runs]
        for label, runs in battery.items()
    }


def test_phi2_across_the_operating_space_is_secure_only_when_inductive(table1_space) -> None:
    for row in TABLE1_ROWS:
        share = sum(case["phi2"] for case in table1_space[row.label]) / len(OPERATING_SPACE)
        if row.highly_inductive:
            assert share == 1.0, row.label
        else:
            assert share <= PHI2_SHARE_OTHERWISE, (row.label, share)


def test_phi0_across_the_operating_space_is_the_same_under_every_row(table1_space) -> None:
    secure = {label: [case["phi0"] for case in cases] for label, cases in table1_space.items()}
    first = secure[TABLE1_ROWS[0].label]
    assert all(verdicts == first for verdicts in secure.values())
    # its 6 misses are the high-resistance bcg faults at the far end
    assert sum(first) == 90
    for (fault_type, point), ok in zip(OPERATING_SPACE, first):
        if not ok:
            assert fault_type is FaultType.BCG and point["fault.m"] >= 0.95, point
            assert point["fault.r_g_ohm"] == 100.0, point


def directional_margin(angle: float | None, phi_non_deg: float) -> tuple[float | None, str]:
    """A directional verdict's signed margin, and its cause: "angle" or "floor".

    The margin (90 - phi_non) - |wrap(a + 90)| is how far the operating
    angle a sits inside the forward band: positive exactly when the verdict
    is forward, and continuous in every input while both operands are above
    the magnitude floor. An operand below the floor leaves no angle, so the
    verdict has no margin and its cause is the floor.
    """
    if angle is None:
        return None, "floor"
    return (90.0 - phi_non_deg) - abs(wrap_angle_deg(angle + 90.0)), "angle"


# each row's smallest phi2 margin over the operating space at phi_non = 45
# degrees (measured: -38.354, -61.911, -58.095, 41.186, 42.898, -24.714);
# these bounds may only rise
PHI2_MARGIN_AT_LEAST = {
    "circular": -38.354,
    "priority": -61.911,
    "instantaneous": -58.096,
    "virtual-admittance-xr20": 41.185,
    "adaptive-vi-xr20": 42.898,
    "adaptive-vi-xr0.1": -24.714,
}


def test_directional_margins_across_the_operating_space(battery) -> None:
    phi_non = DirectionalConfig().phi_non_deg
    assert phi_non == 45.0
    widest = 60.0  # the largest legal relay.phi_non_deg
    for row in TABLE1_ROWS:
        phi2, phi0 = [], []
        for fault_type, point, _, _, _, report in battery[row.label]:
            for margins, angle, verdict in (
                (phi2, report.phi2_deg, report.dir_neg),
                (phi0, report.phi0_deg, report.dir_zero),
            ):
                margin, cause = directional_margin(angle, phi_non)
                forward = cause == "angle" and margin >= 0.0
                assert forward == (verdict == "forward"), (row.label, fault_type, point)
                margins.append((margin, cause))
        # no phi2 operand is below the floor, and the smallest margin holds
        assert all(cause == "angle" for _, cause in phi2), row.label
        smallest = min(margin for margin, _ in phi2)
        assert smallest >= PHI2_MARGIN_AT_LEAST[row.label], (row.label, smallest)
        if row.highly_inductive:
            # forward at the widest blind band too: the first finding holds
            # over the whole legal phi_non range
            assert smallest - (widest - phi_non) >= 0.0, row.label
        else:
            assert smallest < 0.0, row.label
        # phi0 reads the pure reactance of the transformer's zero-sequence
        # leg: the band centre on the 90 faults whose operands pass the floor
        on_angle = [margin for margin, cause in phi0 if cause == "angle"]
        assert len(on_angle) == 90 and len(phi0) == 96, row.label
        assert all(abs(margin - (90.0 - phi_non)) <= 1e-9 for margin in on_angle), row.label


# phi2 is secure in this many of the 96 faults a row
PHI2_SECURE = {
    "circular": 9,
    "priority": 11,
    "instantaneous": 14,
    "virtual-admittance-xr20": 96,
    "adaptive-vi-xr20": 96,
    "adaptive-vi-xr0.1": 23,
}


def test_phi2_is_secure_exactly_when_the_source_impedance_is_inductive_enough(battery) -> None:
    """The negative-sequence element reads v2/i2 = -ze2, the source side's
    impedance behind the relay, so it says forward exactly when
    angle(ze2) lies in [phi_non, 180 - phi_non]. Under `circular` the
    source is the emf behind the real (1 - s) / (k_pv * s) at the
    saturation factor s, so Re ze2 is that, and phi2 is secure exactly
    when s >= 1 / (1 + k_pv * X * cot(phi_non)) with X = Im ze2."""
    for row in TABLE1_ROWS:
        secure = 0
        for fault_type, point, scenario, _, _, report in battery[row.label]:
            ze2 = from_polar(report.ze2_mag, report.ze2_ang)
            phi_non = scenario.dir_cfg.phi_non_deg
            case = (row.label, fault_type, point)
            assert abs(wrap_angle_deg(report.phi2_deg - angle_deg(-ze2))) <= 1e-9, case
            forward = report.dir_neg == "forward"
            assert forward == (phi_non <= angle_deg(ze2) <= 180.0 - phi_non), case
            secure += forward
            if row.label == "circular":
                s, k_pv = report.sigma1_mag, scenario.source.k_pv
                assert abs(ze2.real - (1.0 - s) / (k_pv * s)) <= 1e-12, case
                cot = 1.0 / math.tan(math.radians(phi_non))
                assert forward == (s >= 1.0 / (1.0 + k_pv * ze2.imag * cot)), case
        assert secure == PHI2_SECURE[row.label], row.label


def test_d20_depends_on_the_converter_only_through_ze2(battery) -> None:
    """At the fixed point the converter's negative-sequence channel is the
    passive impedance z_source[1] at its terminal, and a ground fault's
    i2/i0 split depends only on the negative- and zero-sequence networks.
    So d20 at bus 1 is that of a passive twin: the converter replaced by a
    source with that impedance in the positive and negative sequences, open
    in the zero sequence, behind any emf."""
    for row in TABLE1_ROWS:
        for fault_type, point, scenario, _, sol, report in battery[row.label]:
            z2 = sol.z_source[1]
            twin = scenario.net.with_elements(
                SourceElement("twin", scenario.net.source_node, 1.0 + 0j, z2, z2, None)
            )
            i = solve_fault(twin, scenario.fault).total.readings["bus1"].i
            d20 = angle_deg(i.neg) - angle_deg(i.zero)
            case = (row.label, fault_type, point)
            assert abs(wrap_angle_deg(report.d20_deg - d20)) <= 1e-9, case


def _report_phasor(mag: float, ang: float | None) -> complex:
    """A report's phasor; one below the magnitude floor has no angle and reads as 0."""
    if ang is None:
        assert mag < DEFAULT_MAGNITUDE_FLOOR
        return 0j
    return from_polar(mag, ang)


def test_dvdi1_is_zad_less_the_passive_side_but_for_the_admittance_pre_fault_term(
    battery,
) -> None:
    """When the fault starts, the source branch goes from its pre-fault
    impedance Z_pre to Z_v1, so at bus 1 dvdi1 = zad - z_p, with zad the
    step -(Z_v1 i1 - Z_pre i1_pre) / di1 and z_p the passive part behind
    the relay (`z_side1`, plus j x_f when the filter is in the network).
    The report's zad takes Z_pre = 0, which only the admittance law, keeping
    Z_vn = r_vn + j x_vn before the fault, does not have: its zad misses by
    Z_vn i1_pre / di1, a known defect: its fix makes that miss 0."""
    worst_miss = 0.0
    for row in TABLE1_ROWS:
        for fault_type, point, scenario, op, sol, report in battery[row.label]:
            i1_pre = prefault_network_readings(op)["bus1"].i.pos
            di1 = sol.fault.total.readings["bus1"].i.pos - i1_pre
            z_p = scenario.z_side1 + 1j * scenario.source.x_f_network
            dvdi1 = _report_phasor(report.dvdi1_mag, report.dvdi1_ang)
            miss = dvdi1 + z_p - _report_phasor(report.zad_mag, report.zad_ang)
            clc = scenario.source.clc
            pre_fault_term = complex(clc.r_vn, clc.x_vn) * i1_pre / di1
            case = (row.label, fault_type, point)
            if clc.kind is ClcKind.VIRTUAL_ADMITTANCE:
                assert abs(miss - pre_fault_term) <= 1e-9, case
                worst_miss = max(worst_miss, abs(miss))
            else:
                assert abs(miss) <= 1e-9, case
    # measured: up to 0.53 pu, and 0 at p_ref = 0
    assert worst_miss > 0.5


# forward verdicts out of 96 of the impedance-type negative-sequence
# element, z2 < Z2F, at Z2F = 0, 0.25 and 0.5 times |Z_L1|
Z2_FORWARD = {
    "circular": (96, 96, 96),
    "priority": (78, 84, 86),
    "instantaneous": (89, 91, 93),
    "virtual-admittance-xr20": (96, 96, 96),
    "adaptive-vi-xr20": (96, 96, 96),
    "adaptive-vi-xr0.1": (96, 96, 96),
}
Z2F_FRACTIONS = (0.0, 0.25, 0.5)
# how far a share may sit from its measured count; this margin may only go down
Z2_SHARE_MARGIN = 0.02


def test_impedance_type_negative_sequence_element_reads_ze2(battery) -> None:
    """The impedance-type element (Roberts and Guzman, 21st WPRC, 1994)
    measures z2 = Re(V2 conj(I2 1/theta_L)) / |I2|^2 at bus 1, theta_L the
    angle of the whole line's z1, and says forward when z2 < Z2F. Since
    v2/i2 = -ze2, z2 = -|ze2| cos(angle(ze2) - theta_L), a closed form in
    the report's ze2 columns. Under it only the per-channel clamping laws
    see a forward fault as reverse, and an |I2|/|I1| > 0.1 supervision
    never blocks."""
    for row in TABLE1_ROWS:
        forward = [0] * len(Z2F_FRACTIONS)
        for fault_type, point, scenario, _, sol, report in battery[row.label]:
            z_line = sum(
                e.z1 for e in scenario.net.elements if e.eid in ("line", "line_a", "line_b")
            )
            theta = cmath.phase(z_line)
            ze2 = from_polar(report.ze2_mag, report.ze2_ang)
            from_ze2 = -abs(ze2) * math.cos(cmath.phase(ze2) - theta)
            reading = sol.fault.total.readings["bus1"]
            v2, i2 = reading.v.neg, reading.i.neg
            z2 = (v2 * (i2 * cmath.exp(1j * theta)).conjugate()).real / abs(i2) ** 2
            case = (row.label, fault_type, point)
            assert abs(z2 - from_ze2) <= 1e-9, case
            assert abs(i2) > 0.1 * abs(reading.i.pos), case
            for k, fraction in enumerate(Z2F_FRACTIONS):
                forward[k] += z2 < fraction * abs(z_line)
        for n, count in zip(Z2_FORWARD[row.label], forward):
            share = count / len(OPERATING_SPACE)
            if n == len(OPERATING_SPACE):
                assert share == 1.0, row.label
            else:
                assert abs(share - n / len(OPERATING_SPACE)) <= Z2_SHARE_MARGIN, (row.label, share)


# the negative-sequence current window of IEEE Std 2800-2022 as it is usually
# stated: the current leads the voltage by 90 to 100 degrees (the clause is
# not checked against the standard's text)
LEAD_WINDOW_DEG = (90.0, 100.0)
# runs whose terminal lead is in the window, of the runs where it is defined
LEAD_IN_WINDOW = {
    "circular": (0, 88),
    "priority": (0, 88),
    "instantaneous": (0, 88),
    "virtual-admittance-xr20": (87, 96),
    "adaptive-vi-xr20": (96, 96),
    "adaptive-vi-xr0.1": (10, 96),
}
# how far a share may sit from its measured count; this margin may only go down
LEAD_SHARE_MARGIN = 0.02


def test_a_negative_sequence_lead_in_the_grid_code_window_secures_phi2(battery) -> None:
    """At the converter terminal the negative-sequence current leads the
    voltage by angle(i2/v2), which is 180 - angle(Z_v2) under the shaping
    laws, so the window is angle(Z_v2) in [80, 90] degrees. Every run in
    the window has phi2 forward: on the battery, meeting the window is
    sufficient for the angle element (not necessary). The lead is undefined
    where the terminal's v2 is zero to rounding: in 8 `ag` runs at R_g = 30
    or 100 ohm under each saturation row, each with phi2 forward."""
    low, high = LEAD_WINDOW_DEG
    for row in TABLE1_ROWS:
        in_window = defined = 0
        for fault_type, point, _, _, sol, report in battery[row.label]:
            v2, i2 = sol.v_t.neg, sol.i_t.neg
            case = (row.label, fault_type, point)
            if abs(v2) < 1e-9:
                assert fault_type is FaultType.AG and point["fault.r_g_ohm"] >= 30.0, case
                assert report.dir_neg == "forward", case
                continue
            defined += 1
            if low <= angle_deg(i2 / v2) <= high:
                in_window += 1
                assert report.dir_neg == "forward", case
        n, expected_defined = LEAD_IN_WINDOW[row.label]
        assert defined == expected_defined, row.label
        share = in_window / defined
        assert abs(share - n / defined) <= LEAD_SHARE_MARGIN, (row.label, share)


@pytest.mark.parametrize("kind", ["virtual_admittance", "adaptive_virtual_impedance"])
def test_shaping_is_highly_inductive_from_an_x_r_of_one(kind: str) -> None:
    """phi2 is secure in all 96 cases at X/R = 1 (measured threshold 0.63-0.84), not at 0.5."""
    def secure(n_x_r: float) -> int:
        row = Table1Row(kind, {"clc.kind": kind, "clc.n_x_r": n_x_r}, True)
        scenarios = (table1_scenario(row, ft, point) for ft, point in OPERATING_SPACE)
        return sum(table1_verdicts(sc, run_scenario(sc))["phi2"] for sc in scenarios)

    assert secure(1.0) == len(OPERATING_SPACE)
    assert secure(0.5) < len(OPERATING_SPACE)
