"""Scenario execution pipeline and the strategy-by-element matrix.

run_scenario ties two steps together. `solve_scenario` runs the pre-fault
power flow for the source reference, then the fault solve, which is the
only step that depends on the source kind: a linear solve for the
generator, the fixed point for the converter. Both return one
`SourceSolution`, and `report_scenario` reads only that and the operating
point: relay evaluation at bus 1 with genuine pre-fault readings for
the incremental quantities, the effective source impedances (the source
branch plus the passive side, `Scenario.z_side1`/`z_side0`), and
optionally an independent phase-domain re-solve of the solved operating
point as a numerical cross-check. The report is assembled as a mapping of
its 68 fields, each phasor a `_mag`/`_ang` pair, and built from it by the
report's own constructor, `ScenarioReport(**fields)`, which raises
`TypeError` for a missing or unexpected field. The pair names are
formatted and interned once, at import (`_POLAR_NAMES`), so the report's
keys are the very strings its field names are.

A report is the merge of two field sets. The solution fields read the
solution and every setting of the scenario but its relay settings; the
relay fields are the scenario id, the config hash, the four relay elements
(five angles, four verdicts) and dv1/di1, which reads the directional
floor.

`sweep_reports` runs a sweep. The relay settings (`relay.*` keys) reach
nothing but the relay fields, so a sweep along one of them builds, solves
and reports its first point; every later point is the first scenario with
its own relay settings (validated as `build_scenario` validates them) and
takes the first point's solution fields, so it evaluates only its relay
elements. Any other axis builds, solves and reports each point.

Fault and pre-fault relay readings take one path,
`SequenceSolution.readings`, which reads each line current off the node
voltages at its ends, once per solution; a report reads the bus-1 pair
once, and a `relay.*` sweep once for all its points.

The cross-check stamps the source as the solution froze it
(`SourceSolution.frozen`): the generator is Norton already and passes
through unchanged; the converter is replaced by an injection of its
converged terminal currents (substitution theorem), because the
phase-domain oracle only stamps Norton-representable elements.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterator

from .abc_oracle import solve_abc
from .network import BusReading, FaultType
from .network import solve_linear  # noqa: F401  perfbench's tracer wraps it under this name
from .phasors import DEFAULT_MAGNITUDE_FLOOR, fortescue, wrap_angle_deg
from .records import Record
from .relay import (
    GROUND_CENTERS,
    Direction,
    directional_incremental,
    directional_negative,
    directional_zero,
    phase_select,
)
from .report import ScenarioReport
from .scenario import (
    DEFAULTS,
    Scenario,
    SourceKind,
    ValidationError,
    build_scenario,
    relay_settings,
)
from .sources import (
    OperatingPoint,
    SourceSolution,
    fault_fixed_point,
    incremental_source_impedance,
    prefault_solve,
    solve_sg_fault,
)

__all__ = [
    "solve_scenario",
    "report_scenario",
    "run_scenario",
    "sweep_scenarios",
    "sweep_reports",
    "prefault_network_readings",
    "Table1Row",
    "Table1Result",
    "TABLE1_ROWS",
    "TABLE1_ELEMENTS",
    "table1_scenario",
    "table1_verdicts",
    "table1_matrix",
    "format_table1",
]


def prefault_network_readings(op: OperatingPoint) -> dict[str, BusReading]:
    """Relay readings of the healthy network at the found operating point.

    `op.healthy` is the build the dispatch solved, with the source entering
    as the current it delivers (substitution theorem); it reads zero in the
    negative and zero sequences.
    """
    return op.healthy.readings


def _polar(z: complex | None) -> tuple[float | None, float | None]:
    """Magnitude and angle; no angle below the magnitude floor, neither for None.

    `phasors.angle_deg`'s arithmetic with one `abs`; `cmath.phase` lies in
    [-pi, pi], so of the wrap to (-180, 180] only -180 -> 180 is left.
    """
    if z is None:
        return None, None
    mag = abs(z)
    if mag < DEFAULT_MAGNITUDE_FLOOR:
        return mag, None
    ang = math.degrees(cmath.phase(z))
    return mag, 180.0 if ang == -180.0 else ang


_SIDE_STEMS = tuple(f"ze{digit}" for digit in "120")
_READING_STEMS = {
    (bus, quantity): tuple(f"{quantity}{digit}_{bus}" for digit in "120")
    for bus in ("bus1", "bus2")
    for quantity in ("v", "i")
}
# report field names of each phasor (see the module docstring)
_POLAR_NAMES = {
    stem: (sys.intern(f"{stem}_mag"), sys.intern(f"{stem}_ang"))
    for stem in (
        "zv1", "zv2", "zad", "dvdi1", "sigma1", "sigma2",
        *_SIDE_STEMS,
        *(stem for stems in _READING_STEMS.values() for stem in stems),
    )
}


def _oracle_residual(scenario: Scenario, sol: SourceSolution) -> float:
    """Max sequence-component mismatch between the two solution routes."""
    net = scenario.net
    abc = solve_abc(net.with_elements(sol.frozen), scenario.fault)
    readings = sol.fault.total.readings
    worst = 0.0
    for name, tap in net.relay_taps.items():
        seq_reading = readings[name]
        v_abc, i_abc = abc.reading(tap)
        for mine, theirs in ((seq_reading.v, fortescue(v_abc)), (seq_reading.i, fortescue(i_abc))):
            worst = max(worst, (mine - theirs).max_abs())
    return worst


def solve_scenario(scenario: Scenario) -> tuple[OperatingPoint, SourceSolution]:
    """The pre-fault operating point and the fault solution of one scenario."""
    net = scenario.net
    op = prefault_solve(
        net,
        scenario.source,
        p_ref=scenario.p_ref,
        q_ref=scenario.q_ref,
        tol=scenario.solver.newton_tol,
    )
    if scenario.kind is SourceKind.SG:
        return op, solve_sg_fault(net, scenario.source, scenario.fault, op)
    return op, fault_fixed_point(
        net,
        scenario.source,
        scenario.fault,
        op,
        tol=scenario.solver.tol,
        max_iter=scenario.solver.max_iter,
    )


def run_scenario(scenario: Scenario, oracle_check: bool = False) -> ScenarioReport:
    """Execute one scenario end to end and assemble its report."""
    return report_scenario(scenario, *solve_scenario(scenario), oracle_check=oracle_check)


def report_scenario(
    scenario: Scenario, op: OperatingPoint, sol: SourceSolution, oracle_check: bool = False
) -> ScenarioReport:
    """Relay readings, the four relay elements and the report of a solved scenario."""
    return _relay_report(scenario, *_solution_fields(scenario, op, sol, oracle_check))


def _solution_fields(
    scenario: Scenario, op: OperatingPoint, sol: SourceSolution, oracle_check: bool
) -> tuple[BusReading, BusReading, dict[str, object]]:
    """The bus-1 fault and pre-fault readings, and the report fields no relay setting reaches."""
    readings = sol.fault.total.readings
    r1, p1 = readings["bus1"], prefault_network_readings(op)["bus1"]
    di1 = r1.i.pos - p1.i.pos
    phasors = {
        "zv1": sol.z_v1,
        "zv2": sol.z_v2,
        "zad": None if sol.z_v1 is None else incremental_source_impedance(r1.i.pos, di1, sol.z_v1),
        "sigma1": sol.sigma1,
        "sigma2": sol.sigma2,
    }
    # effective source impedance: the source branch plus the passive side
    sides = (scenario.z_side1, scenario.z_side1, scenario.z_side0)
    for stem, z, side in zip(_SIDE_STEMS, sol.z_source, sides):
        phasors[stem] = None if z is None else z + side
    for (bus, quantity), stems in _READING_STEMS.items():
        triple = getattr(readings[bus], quantity)
        for stem, z in zip(stems, (triple.pos, triple.neg, triple.zero)):
            phasors[stem] = z

    fields: dict[str, object] = {
        "source_kind": scenario.kind.value,
        "clc_kind": None if scenario.kind is SourceKind.SG else scenario.source.clc.kind.value,
        "fault_kind": scenario.fault.fault_type.value,
        "fault_m": scenario.fault.m,
        "fault_r_g_ohm": scenario.fault.r_g_ohm,
        "placement": scenario.fault.placement.value,
        "prefault_e_pu": op.e_mag,
        "prefault_theta_deg": op.theta_deg,
        "prefault_p_pu": op.p,
        "prefault_q_pu": op.q,
        "limiter_active": sol.limiter_active,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "i_max_phase_pu": sol.i_max_phase,
        "oracle_max_err": _oracle_residual(scenario, sol) if oracle_check else None,
    }
    for stem, z in phasors.items():
        mag, ang = _POLAR_NAMES[stem]
        fields[mag], fields[ang] = _polar(z)
    return r1, p1, fields


def _relay_report(
    scenario: Scenario, r1: BusReading, p1: BusReading, solution_fields: dict[str, object]
) -> ScenarioReport:
    """The report: `solution_fields` and the fields of the scenario's relay settings."""
    dir_neg = directional_negative(r1, scenario.dir_cfg)
    dir_zero = directional_zero(r1, scenario.dir_cfg)
    dir_inc = directional_incremental(r1, p1, scenario.dir_cfg)
    selection = phase_select(r1, p1, scenario.sel_cfg)
    di1, dv1 = r1.i.pos - p1.i.pos, r1.v.pos - p1.v.pos
    fields = {
        **solution_fields,
        "scenario_id": scenario.scenario_id,
        "config_hash": scenario.config_hash,
        "phi2_deg": dir_neg.angle_deg,
        "phi0_deg": dir_zero.angle_deg,
        "dphi1_deg": dir_inc.angle_deg,
        "dd21_deg": selection.dd21_deg,
        "d20_deg": selection.d20_deg,
        "dir_neg": dir_neg.direction.value,
        "dir_zero": dir_zero.direction.value,
        "dir_inc": dir_inc.direction.value,
        "phase_sel": selection.selected.value if selection.selected is not None else "none",
    }
    mag, ang = _POLAR_NAMES["dvdi1"]
    fields[mag], fields[ang] = _polar(dv1 / di1 if abs(di1) > scenario.dir_cfg.floor else None)
    return ScenarioReport(**fields)


def sweep_scenarios(
    overrides: dict[str, object],
    param: str,
    start: float,
    stop: float,
    steps: int,
    log: bool = False,
    scenario_id: str = "sweep",
) -> Iterator[tuple[float, Scenario]]:
    """Yield (value, scenario) along one numeric parameter axis, endpoints included.

    Every point is the scenario `build_scenario` makes of its config. Along
    a `relay.*` axis only the first point is built: each later one is the
    first with its own relay settings and config (`relay_settings`, which
    validates the point's value with `build_scenario`'s messages).
    """
    if param not in DEFAULTS:
        raise ValidationError(f"unknown sweep parameter {param!r}")
    default_value = DEFAULTS[param][0]
    if isinstance(default_value, bool) or not isinstance(default_value, float):
        raise ValidationError(f"sweep parameter {param!r} is not numeric")
    if steps < 1:
        raise ValidationError(f"sweep needs at least 1 step, got {steps}")
    if log and (start <= 0.0 or stop <= 0.0):
        raise ValidationError("logarithmic sweep endpoints must be positive")

    relay_axis = param.startswith("relay.")
    built = None
    for k in range(steps):
        # endpoints stay bit-exact so a 2-step sweep reproduces single runs
        if k == 0:
            value = start
        elif k == steps - 1:
            value = stop
        else:
            t = k / (steps - 1)
            if log:
                value = math.exp(math.log(start) + t * (math.log(stop) - math.log(start)))
            else:
                value = start + t * (stop - start)
        point_id = f"{scenario_id}:{param}={value:.6g}"
        if built is None or not relay_axis:
            built = build_scenario({**overrides, param: value}, scenario_id=point_id)
            yield value, built
            continue
        resolved = {**built.resolved, param: value}
        dir_cfg, sel_cfg = relay_settings(resolved)
        yield value, built._replace(
            scenario_id=point_id,
            dir_cfg=dir_cfg,
            sel_cfg=sel_cfg,
            resolved=resolved,
            provenance=dict(built.provenance),
        )


def sweep_reports(
    overrides: dict[str, object],
    param: str,
    start: float,
    stop: float,
    steps: int,
    log: bool = False,
    scenario_id: str = "sweep",
) -> Iterator[tuple[Scenario, ScenarioReport]]:
    """Yield (scenario, report) at every point of `sweep_scenarios`.

    A `relay.*` key only sets the relay settings, which the report reads
    after the solve, so along such an axis the first point's solution, its
    bus-1 readings and its report fields other than the relay fields are
    every point's: the sweep solves and reports them once, and each point
    evaluates only its relay elements.
    """
    solved = None
    for _, scenario in sweep_scenarios(overrides, param, start, stop, steps, log, scenario_id):
        if solved is None or not param.startswith("relay."):
            solved = _solution_fields(scenario, *solve_scenario(scenario), oracle_check=False)
        yield scenario, _relay_report(scenario, *solved)


class Table1Row(Record):
    label: str
    overrides: dict[str, object]
    highly_inductive: bool


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row("circular", {"clc.kind": "circular"}, False),
    Table1Row("priority", {"clc.kind": "priority"}, False),
    Table1Row("instantaneous", {"clc.kind": "instantaneous"}, False),
    Table1Row(
        "virtual-admittance-xr20",
        {"clc.kind": "virtual_admittance", "clc.n_x_r": 20.0},
        True,
    ),
    Table1Row(
        "adaptive-vi-xr20",
        {"clc.kind": "adaptive_virtual_impedance", "clc.n_x_r": 20.0},
        True,
    ),
    Table1Row(
        "adaptive-vi-xr0.1",
        {"clc.kind": "adaptive_virtual_impedance", "clc.n_x_r": 0.1},
        False,
    ),
)

TABLE1_ELEMENTS: tuple[str, ...] = ("phi2", "phi0", "dphi1", "dd21", "d20")
_TABLE1_FAULTS: tuple[FaultType, ...] = (FaultType.AG, FaultType.BCG)


class Table1Result(Record):
    """Reliability matrix: does each supervising element hold up per strategy?

    A cell passes when the element gives the secure answer for every probed
    fault (forward verdicts for the directionals, the right lattice point
    for the selection angles).
    """

    cells: dict[tuple[str, str], bool]
    rows: tuple[Table1Row, ...]
    elements: tuple[str, ...]
    mismatches: tuple[str, ...]  # deviations from the reference pattern

    @property
    def matches_reference(self) -> bool:
        return not self.mismatches


def table1_scenario(
    row: Table1Row, fault_type: FaultType, point: dict[str, object] | None = None
) -> Scenario:
    """One forward fault of the battery under one row.

    The fault sits at the battery's point (m = 0.5, bolted, default
    dispatch) unless `point` sets other config keys; the row's own
    overrides come last.
    """
    merged: dict[str, object] = {
        "source.kind": "gfm",
        "fault.kind": fault_type.value,
        "fault.m": 0.5,
        "fault.r_g_ohm": 0.0,
        "fault.placement": "forward",
    }
    merged.update(point or {})
    merged.update(row.overrides)
    return build_scenario(merged, scenario_id=f"table1:{row.label}:{fault_type.value}")


def table1_verdicts(scenario: Scenario, report: ScenarioReport) -> dict[str, bool]:
    """Whether each supervising element gives the secure answer on one forward fault.

    The verdicts are read off the scenario's report; the selection bands
    come from its relay settings and their centres from its fault type.
    """
    c21, c20 = GROUND_CENTERS[scenario.fault.fault_type]
    half21 = scenario.sel_cfg.dd21_half_deg
    half20 = scenario.sel_cfg.d20_half_deg
    return {
        "phi2": report.dir_neg == Direction.FORWARD.value,
        "phi0": report.dir_zero == Direction.FORWARD.value,
        "dphi1": report.dir_inc == Direction.FORWARD.value,
        "dd21": (
            report.dd21_deg is not None
            and abs(wrap_angle_deg(report.dd21_deg - c21)) <= half21
        ),
        "d20": (
            report.d20_deg is not None
            and abs(wrap_angle_deg(report.d20_deg - c20)) <= half20
        ),
    }


def table1_matrix() -> Table1Result:
    """Evaluate every strategy row against the five supervising elements."""
    cells: dict[tuple[str, str], bool] = {}
    for row in TABLE1_ROWS:
        scenarios = [table1_scenario(row, fault_type) for fault_type in _TABLE1_FAULTS]
        cases = [table1_verdicts(scenario, run_scenario(scenario)) for scenario in scenarios]
        for element in TABLE1_ELEMENTS:
            cells[(row.label, element)] = all(case[element] for case in cases)

    mismatches: list[str] = []
    for row in TABLE1_ROWS:
        if not cells[(row.label, "phi0")]:
            mismatches.append(f"phi0 failed under {row.label}; it should hold everywhere")
        for element in ("phi2", "d20"):
            got = cells[(row.label, element)]
            if got != row.highly_inductive:
                expected = "pass" if row.highly_inductive else "fail"
                mismatches.append(f"{element} under {row.label}: expected {expected}")
    for element in ("dphi1", "dd21"):
        if all(cells[(row.label, element)] for row in TABLE1_ROWS):
            mismatches.append(f"{element} passed every strategy; it should break somewhere")
    return Table1Result(
        cells=cells,
        rows=TABLE1_ROWS,
        elements=TABLE1_ELEMENTS,
        mismatches=tuple(mismatches),
    )


def format_table1(result: Table1Result) -> str:
    """Plain-text rendering of the reliability matrix."""
    label_width = max(len(row.label) for row in result.rows)
    header = "strategy".ljust(label_width) + "".join(
        f"  {element:>6}" for element in result.elements
    )
    lines = [header, "-" * len(header)]
    for row in result.rows:
        cells = "".join(
            f"  {'pass' if result.cells[(row.label, element)] else 'FAIL':>6}"
            for element in result.elements
        )
        lines.append(row.label.ljust(label_width) + cells)
    lines.append("")
    if result.matches_reference:
        lines.append("pattern matches the reference reliability matrix")
    else:
        lines.append("pattern DEVIATES from the reference reliability matrix:")
        lines.extend(f"  - {msg}" for msg in result.mismatches)
    return "\n".join(lines)
