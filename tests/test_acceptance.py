"""Acceptance gate: one test per numbered criterion, in order.

Each test prints a single verdict line before asserting, so

    pytest tests/test_acceptance.py -v -s

shows CRITERION k: PASS/FAIL with the measured numbers even when a
criterion holds. The slow shared work (preset solves, the 360-case
linear-source grid, the reliability matrix) runs once per session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from faultlab.abc_oracle import solve_abc
from faultlab.clc import (
    ClcConfig,
    ClcKind,
    clc_adaptive_impedance,
    clc_virtual_admittance,
)
from faultlab.harness import run_scenario
from faultlab.network import FaultType, SeriesElement, SourceElement, solve_fault
from faultlab.phasors import fortescue, from_polar, wrap_angle_deg
from faultlab.presets import preset_scenario_overrides
from faultlab.relay import GROUND_CENTERS, LINE_CENTERS
from faultlab.scenario import SourceKind, build_scenario
from faultlab.sources import SOURCE_EID, fault_fixed_point, prefault_solve

M_GRID = (0.05, 0.5, 0.95)
RG_GRID = (0.0, 10.0, 30.0)
FROZEN_Z = 0.02 + 0.4j  # fixed stand-in for a converter holding one Z_v


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass(frozen=True)
class GridErrors:
    cases: int
    taps: float  # relay readings, sequence pipeline vs phase coordinates
    superposition: float  # base + pure vs phase coordinates, all nodes/branches


@pytest.fixture(scope="session")
def oracle_grid() -> GridErrors:
    """Both linear sources over 10 types x 3 locations x 3 resistances x 2 sides."""
    cases = 0
    err_taps = 0.0
    err_super = 0.0
    for source_kind in ("sg", "gfm"):
        for placement in ("forward", "reverse"):
            # the healthy chain does not depend on m or r_g, so one
            # operating point serves the whole sub-grid
            ref = build_scenario({"source.kind": source_kind, "fault.placement": placement})
            if source_kind == "sg":
                op = prefault_solve(ref.net, ref.source)

                def make_src(sc, e1=op.e_ref1, sg=ref.source):
                    return sg.source_element(sc.net.source_node, e1)

            else:

                def make_src(sc):
                    return SourceElement(
                        SOURCE_EID, sc.net.source_node, e1=from_polar(1.0, 5.0),
                        z1=FROZEN_Z, z2=FROZEN_Z, z0=None,
                    )

            for ftype in FaultType:
                for m in M_GRID:
                    for r_g in RG_GRID:
                        sc = build_scenario(
                            {
                                "source.kind": source_kind,
                                "fault.placement": placement,
                                "fault.kind": ftype.value,
                                "fault.m": m,
                                "fault.r_g_ohm": r_g,
                            }
                        )
                        net = sc.net.with_elements(make_src(sc))
                        sol = solve_fault(net, sc.fault)
                        abc = solve_abc(net, sc.fault)
                        cases += 1
                        for tap in net.relay_taps.values():
                            v_abc, i_abc = abc.reading(tap)
                            mine = sol.total.reading(tap)
                            err_taps = max(
                                err_taps,
                                (mine.v - fortescue(v_abc)).max_abs(),
                                (mine.i - fortescue(i_abc)).max_abs(),
                            )
                        for node in net.nodes():
                            recon = sol.base.voltage(node) + sol.pure.voltage(node)
                            err_super = max(
                                err_super, (recon - fortescue(abc.voltage(node))).max_abs()
                            )
                        for elem in net.elements:
                            if not isinstance(elem, SeriesElement):
                                continue
                            recon = sol.base.series_current(elem.eid) + sol.pure.series_current(
                                elem.eid
                            )
                            err_super = max(
                                err_super,
                                (recon - fortescue(abc.series_current(elem.eid))).max_abs(),
                            )
    return GridErrors(cases=cases, taps=err_taps, superposition=err_super)


def test_criterion_01_oracle_equivalence(oracle_grid: GridErrors) -> None:
    ok = oracle_grid.cases == 360 and oracle_grid.taps <= 1e-8
    _gate(
        1,
        ok,
        f"max |sequence - abc| at the relay points {oracle_grid.taps:.3e} pu "
        f"over {oracle_grid.cases} linear-source cases (tol 1e-8)",
    )


def test_criterion_02_generator_directional_baseline() -> None:
    worst = {"forward": 0.0, "reverse": 0.0}
    wrong: list[str] = []
    for ftype in FaultType:
        for placement, center in (("forward", -90.0), ("reverse", 90.0)):
            report = run_scenario(
                build_scenario(
                    {"source.kind": "sg", "fault.kind": ftype.value, "fault.placement": placement}
                )
            )
            for name, angle, decision in (
                ("phi2", report.phi2_deg, report.dir_neg),
                ("phi0", report.phi0_deg, report.dir_zero),
                ("dphi1", report.dphi1_deg, report.dir_inc),
            ):
                if angle is None:
                    # quantity below its floor: the only correct verdict
                    if decision != "indeterminate":
                        wrong.append(f"{ftype.value}/{placement}/{name}={decision}")
                    continue
                worst[placement] = max(worst[placement], abs(angle - center))
                if decision != placement:
                    wrong.append(f"{ftype.value}/{placement}/{name}={decision}")
    ok = not wrong and worst["forward"] <= 10.0 and worst["reverse"] <= 10.0
    _gate(
        2,
        ok,
        f"20 bolted scenarios: worst |angle+90| forward {worst['forward']:.2f} deg, "
        f"worst |angle-90| reverse {worst['reverse']:.2f} deg (tol 10), "
        + ("all verdicts correct" if not wrong else f"wrong verdicts {wrong}"),
    )


def _selection_offset(report, ftype: FaultType) -> float:
    if ftype in GROUND_CENTERS:
        c21, c20 = GROUND_CENTERS[ftype]
        return max(
            abs(wrap_angle_deg(report.dd21_deg - c21)), abs(wrap_angle_deg(report.d20_deg - c20))
        )
    if ftype in LINE_CENTERS:
        return abs(wrap_angle_deg(report.dd21_deg - LINE_CENTERS[ftype]))
    return 0.0  # symmetrical: classified from the floor rule, no angles


def test_criterion_03_phase_selection_table() -> None:
    # classification must hold on the study network as configured; the
    # +/-5 deg center proximity is the all-inductive transfer property, so
    # it is measured with the resistive parts of the study circuit removed
    inductive = {
        "source.kind": "sg",
        "circuit.line_r1_ohm_km": 0.0,
        "circuit.line_r0_ohm_km": 0.0,
        "circuit.grid_x_r": 1e6,
    }
    misclassified: list[str] = []
    worst_study = 0.0
    worst_inductive = 0.0
    for ftype in FaultType:
        for m in M_GRID:
            study = run_scenario(
                build_scenario({"source.kind": "sg", "fault.kind": ftype.value, "fault.m": m})
            )
            if study.phase_sel != ftype.value:
                misclassified.append(f"{ftype.value}@m={m}->{study.phase_sel}")
            else:
                worst_study = max(worst_study, _selection_offset(study, ftype))
            ideal = run_scenario(
                build_scenario({**inductive, "fault.kind": ftype.value, "fault.m": m})
            )
            if ideal.phase_sel != ftype.value:
                misclassified.append(f"inductive {ftype.value}@m={m}->{ideal.phase_sel}")
            else:
                worst_inductive = max(worst_inductive, _selection_offset(ideal, ftype))
    ok = not misclassified and worst_inductive <= 5.0
    _gate(
        3,
        ok,
        f"30/30 study cases classified (worst center offset {worst_study:.2f} deg, "
        f"within the 15/30 deg bands); all-inductive offset {worst_inductive:.3f} deg "
        f"(tol 5)" + (f"; misclassified {misclassified}" if misclassified else ""),
    )


def test_criterion_04_impedance_shaping_angle_replication(preset_reports) -> None:
    _, low = preset_reports["fig13a"]
    _, high = preset_reports["fig13b"]
    # reference angles for these two presets: (-152.1, -51.7) and
    # (-92.3, -5.5). The delta20 reference for fig13a was recorded with the
    # opposite sign order of the angle difference; under the i2-minus-i0
    # convention used throughout this package the target maps to +51.7.
    d20_outside = all(
        abs(wrap_angle_deg(low.d20_deg - c20)) > 30.0 for c20 in (0.0, 120.0, -120.0)
    )
    low_ok = (
        low.dir_neg == "indeterminate"
        and d20_outside
        and abs(low.phi2_deg - (-152.1)) <= 20.0
        and abs(low.d20_deg - 51.7) <= 20.0
        and low.phase_sel == "none"
    )
    high_ok = (
        high.dir_neg == "forward"
        and abs(high.phi2_deg - (-92.3)) <= 5.0
        and abs(high.d20_deg - (-5.5)) <= 10.0
        and high.phase_sel == "bcg"
    )
    _gate(
        4,
        low_ok and high_ok,
        f"fig13a phi2 {low.phi2_deg:.1f} ({low.dir_neg}; ref -152.1 tol 20), "
        f"d20 {low.d20_deg:.1f} outside every band (|ref| 51.7 tol 20); "
        f"fig13b phi2 {high.phi2_deg:.1f} ({high.dir_neg}; ref -92.3 tol 5), "
        f"d20 {high.d20_deg:.1f} ({high.phase_sel}; ref -5.5 tol 10)",
    )


def _zv2_angle(kind: str, fault: str, r_g: float) -> float:
    report = run_scenario(
        build_scenario(
            {
                "source.kind": "gfm",
                "clc.kind": kind,
                "fault.kind": fault,
                "fault.r_g_ohm": r_g,
            }
        )
    )
    assert report.limiter_active, (kind, fault, r_g)
    return report.zv2_ang


def test_criterion_05_negative_sequence_impedance_angles(preset_reports) -> None:
    _, circular = preset_reports["fig12-circular"]
    circ_ok = circular.zv2_ang is not None and abs(circular.zv2_ang) <= 5.0

    # documented trios: the channel-coupled limiters swing the angle with
    # the fault shape, so three shapes give a wide spread per strategy
    priority = [_zv2_angle("priority", fault, 0.0) for fault in ("ag", "bc", "ca")]
    instantaneous = [
        _zv2_angle("instantaneous", "ag", 20.0),
        _zv2_angle("instantaneous", "bc", 0.0),
        _zv2_angle("instantaneous", "bcg", 20.0),
    ]
    pri_spread = max(priority) - min(priority)
    ins_spread = max(instantaneous) - min(instantaneous)
    ok = circ_ok and pri_spread > 20.0 and ins_spread > 20.0
    _gate(
        5,
        ok,
        f"circular angle(Z_v2) {circular.zv2_ang:.3f} deg (tol 5); priority spread "
        f"{pri_spread:.1f} deg over bolted ag/bc/ca, instantaneous spread "
        f"{ins_spread:.1f} deg over ag+20ohm/bc/bcg+20ohm (need > 20)",
    )


def test_criterion_06_incremental_element_failure_mode(preset_reports) -> None:
    scenario, gfm = preset_reports["fig14"]
    twin_overrides = {
        k: v
        for k, v in preset_scenario_overrides("fig14").items()
        if not k.startswith(("clc.", "gfm."))
    }
    twin_overrides["source.kind"] = "sg"
    sg = run_scenario(build_scenario(twin_overrides, scenario_id="fig14-sg-twin"))

    phi_non = scenario.relay.phi_non_deg
    gfm_off_zone = abs(gfm.dphi1_deg + 90.0) > phi_non
    sg_on_center = abs(sg.dphi1_deg + 90.0) < 10.0
    # the added control impedance shows up non-inductive and with the
    # reference's sign (positive angle)
    zad_ok = gfm.zad_ang is not None and gfm.zad_ang > 0.0 and abs(gfm.zad_ang + 90.0) > 60.0
    ok = gfm_off_zone and sg_on_center and zad_ok
    _gate(
        6,
        ok,
        f"gfm dphi1 {gfm.dphi1_deg:.1f} deg leaves the zone (|+90| "
        f"{abs(gfm.dphi1_deg + 90):.1f} > {phi_non:.0f}); sg twin {sg.dphi1_deg:.1f} "
        f"(|+90| {abs(sg.dphi1_deg + 90):.2f} < 10); angle(Z_ad) {gfm.zad_ang:.1f} deg, "
        f"positive and |+90| {abs(gfm.zad_ang + 90):.1f} > 60",
    )


def test_criterion_07_reliability_matrix(table1_result) -> None:
    cells = table1_result.cells
    ok = table1_result.matches_reference
    n_pass = sum(1 for v in cells.values() if v)
    _gate(
        7,
        ok,
        f"{n_pass}/{len(cells)} cells pass; phi0 holds everywhere, phi2/d20 track "
        "the inductive split, dphi1/dd21 each break somewhere"
        + ("" if ok else f"; deviations {table1_result.mismatches}"),
    )


def test_criterion_08_superposition_identity(oracle_grid: GridErrors) -> None:
    ok = oracle_grid.superposition <= 1e-9
    _gate(
        8,
        ok,
        f"max |(base + pure) - abc| {oracle_grid.superposition:.3e} pu over every node "
        f"and branch of {oracle_grid.cases} cases (tol 1e-9)",
    )


def test_criterion_09_fixed_point_robustness(preset_reports) -> None:
    failures: list[str] = []
    max_iterations = 0
    for name, (scenario, report) in preset_reports.items():
        max_iterations = max(max_iterations, report.iterations)
        if report.residual >= 1e-9:
            failures.append(f"{name} residual {report.residual:.2e}")
        if report.iterations > 100:
            failures.append(f"{name} iterations {report.iterations}")
        if scenario.kind is SourceKind.GFM and report.limiter_active:
            cap = scenario.source.clc.i_lim * (1.0 + 1e-6)
            if report.i_max_phase_pu > cap:
                failures.append(f"{name} i_max {report.i_max_phase_pu:.8f} > {cap:.8f}")

    # a barely-disturbing fault must leave each strategy on its linear law
    worst_inactive = 0.0
    for kind in ClcKind:
        sc = build_scenario(
            {
                "source.kind": "gfm",
                "clc.kind": kind.value,
                "fault.kind": "ag",
                "fault.r_g_ohm": 400.0,
                "source.p_ref": 0.3,
            }
        )
        op = prefault_solve(sc.net, sc.source, sc.p_ref, sc.q_ref)
        sol = fault_fixed_point(sc.net, sc.source, sc.fault, op)
        if sol.limiter_active:
            failures.append(f"{kind.value} limiter active on a 400 ohm fault")
            continue
        z = sc.source.normal_z()
        src = SourceElement(SOURCE_EID, sc.net.source_node, e1=op.e_ref1, z1=z, z2=z, z0=None)
        linear = solve_fault(sc.net.with_elements(src), sc.fault)
        for tap in sc.net.relay_taps.values():
            mine, ref = sol.fault.total.reading(tap), linear.total.reading(tap)
            worst_inactive = max(
                worst_inactive, (mine.v - ref.v).max_abs(), (mine.i - ref.i).max_abs()
            )
        if worst_inactive >= 1e-9:
            failures.append(f"{kind.value} inactive mismatch {worst_inactive:.2e}")
    ok = not failures
    _gate(
        9,
        ok,
        f"{len(preset_reports)} presets converge (max {max_iterations} iterations, all "
        f"residuals < 1e-9, active caps held); inactive strategies match the linear "
        f"solve within {worst_inactive:.1e}" + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_10_limiter_unit_identities() -> None:
    worst_angle = 0.0
    for n in (0.1, 1.0, 5.0, 20.0):
        cfg = ClcConfig(kind=ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE, n_x_r=n)
        for trigger in (1.11, 1.5, 3.0):
            z = clc_adaptive_impedance(cfg, trigger)
            angle = math.degrees(math.atan2(z.imag, z.real))
            worst_angle = max(worst_angle, abs(angle - math.degrees(math.atan(n))))

    cfg = ClcConfig(kind=ClcKind.VIRTUAL_ADMITTANCE)
    z = clc_virtual_admittance(cfg, 0.5)
    current = 0.5 / abs(z)
    current_err = abs(current - cfg.i_lim) / cfg.i_lim
    ok = worst_angle <= 0.1 and current_err <= 0.01
    _gate(
        10,
        ok,
        f"adaptive impedance angle within {worst_angle:.2e} deg of atan(n) when "
        f"triggered (tol 0.1); admittance at a stiff 0.5 pu bus draws {current:.4f} pu, "
        f"{100 * current_err:.3f}% from I_lim (tol 1%)",
    )
