"""Records, CSV lines and config lines against the formulas they were first defined by.

`record_line`, `csv_line` and `canonical_config_lines` make every decision
that is the same for all reports once, at import: the column order, each
column's formatter, and the text of every default value and default
provenance tag. Per report they format only the values that are not their
default object. The references here format everything on every call: the
whole payload through `json.dumps(..., sort_keys=True)`, every CSV cell
through the first per-cell formatter (quoted by the standard `csv` writer),
and every config line sorted by key.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from faultlab.harness import run_scenario
from faultlab.report import CSV_COLUMNS, ScenarioReport, csv_line, record_line
from faultlab.scenario import (
    DEFAULTS,
    Scenario,
    _format_value,
    build_scenario,
    canonical_config_lines,
)
from faultlab.sources import NoConvergenceError, OscillationDetectedError
from test_grid import workloads

ODD_ID = 'odd "id" \\ with, commas and ø Ω'


def _reference_record(
    report: ScenarioReport, resolved: dict[str, object], provenance: dict[str, str]
) -> str:
    payload: dict[str, object] = {name: getattr(report, name) for name in CSV_COLUMNS}
    payload["config"] = resolved
    payload["provenance"] = provenance
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reference_cell(name: str, value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if name == "iterations":
        return str(int(value))  # type: ignore[call-overload]
    if isinstance(value, str):
        return value
    assert isinstance(value, float)
    if name in ("residual", "oracle_max_err"):
        return f"{value:.3e}"
    if name in ("fault_m", "fault_r_g_ohm"):
        return f"{value:.6g}"
    if name.endswith("_ang") or name.endswith("_deg"):
        return f"{value:.1f}"
    return f"{value:.6f}"


def _reference_csv(report: ScenarioReport) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(_reference_cell(name, getattr(report, name)) for name in CSV_COLUMNS)
    return out.getvalue().removesuffix("\r\n")


def _reference_lines(resolved: dict[str, object]) -> list[str]:
    return [f"{key}={_format_value(value)}" for key, value in sorted(resolved.items())]


def _foreign(mapping: dict[str, object]) -> dict[str, object]:
    """`mapping` without its first key and with one key DEFAULTS does not have."""
    first = next(iter(mapping))
    return {**{k: v for k, v in mapping.items() if k != first}, "zz.extra": mapping[first]}


def _check(scenario: Scenario, report: ScenarioReport) -> None:
    resolved, provenance = scenario.resolved, scenario.provenance
    assert resolved.keys() == DEFAULTS.keys() == provenance.keys()
    line = record_line(report, resolved, provenance)
    assert line == _reference_record(report, resolved, provenance), scenario.scenario_id
    backwards = dict(reversed(resolved.items())), dict(reversed(provenance.items()))
    assert record_line(report, *backwards) == line
    for mappings in ((_foreign(resolved), provenance), (resolved, _foreign(provenance))):
        assert record_line(report, *mappings) == _reference_record(report, *mappings)

    assert csv_line(report) == _reference_csv(report), scenario.scenario_id
    cells = next(csv.reader([csv_line(report)]))
    assert len(cells) == len(CSV_COLUMNS) and cells[0] == report.scenario_id

    assert canonical_config_lines(resolved) == _reference_lines(resolved)
    assert canonical_config_lines(backwards[0]) == _reference_lines(resolved)
    assert canonical_config_lines(_foreign(resolved)) == _reference_lines(_foreign(resolved))
    text = "\n".join(_reference_lines(resolved))
    assert scenario.config_hash == hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _solved(cases: list[dict[str, object]]) -> list[tuple[Scenario, ScenarioReport]]:
    out = []
    for case in cases:
        scenario = build_scenario(case)
        try:
            out.append((scenario, run_scenario(scenario)))
        except (NoConvergenceError, OscillationDetectedError):
            continue
    return out


def test_preset_reports_serialize_as_the_reference(preset_reports) -> None:
    for scenario, report in preset_reports.values():
        assert scenario.provenance[next(iter(scenario.overrides))].startswith("preset:")
        _check(scenario, report)


@pytest.mark.parametrize("grid", ["grid", "generator"])
def test_every_twentieth_grid_report_serializes_as_the_reference(grid: str) -> None:
    cases = (workloads.grid_cases if grid == "grid" else workloads.generator_cases)()[::20]
    solved = _solved(cases)
    assert len(solved) > 0.9 * len(cases)
    for scenario, report in solved:
        _check(scenario, report)


# each case is run after one that overrides other keys, so a member or a
# line kept from an earlier call shows as a mismatch
ODD_CASES = [
    # negative zeros equal their 0.0 defaults but print differently
    {"source.q_ref": -0.0, "circuit.grid_angle_deg": -0.0, "fault.r_g_ohm": -0.0},
    {},
    # equal to the defaults but other objects: formatted per call, to the same text
    {"source.p_ref": float("1.0"), "clc.kind": "".join(["circ", "ular"]), "source.kind": "gfm"},
    {"source.kind": "gfm", "fault.kind": "ag", "fault.m": 0.25},
    {},
]


def test_odd_values_and_ids_serialize_as_the_reference() -> None:
    for index, overrides in enumerate(ODD_CASES):
        for scenario_id, origin in ((ODD_ID, "user"), (f"crlf\r\nid{index}", "preset:odd")):
            scenario = build_scenario(overrides, scenario_id=scenario_id, origin=origin)
            _check(scenario, run_scenario(scenario))
    assert float("1.0") is not DEFAULTS["source.p_ref"][0]
