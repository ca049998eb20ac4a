"""Records, CSV lines and config lines against the formulas they were first defined by.

`record_line`, `csv_line` and `canonical_config_lines` make every decision
that is the same for all reports once, at import: the column order, each
column's formatter, and the text of every default value and default
provenance tag. `canonical_config_lines` formats only the values that are
not their default object; `record_line` formats only the values that are
not the object the last record held at their place. The references here
format everything on every call: the whole payload through
`json.dumps(..., sort_keys=True)`, every CSV cell through the first
per-cell formatter (quoted by the standard `csv` writer), and every config
line sorted by key.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from faultlab.harness import run_scenario, sweep_reports
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
    # a key fewer or one more than the defaults' formats every line too
    for other in (dict(list(resolved.items())[1:]), {**resolved, "zz.extra": 1.0}):
        assert canonical_config_lines(other) == _reference_lines(other)
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
        assert f"preset:{scenario.scenario_id}" in scenario.provenance.values()
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


def _sweep(param: str, start: float, stop: float) -> list[tuple[Scenario, ScenarioReport]]:
    overrides = {"source.kind": "gfm", "clc.kind": "priority", "fault.kind": "ag"}
    return list(sweep_reports(overrides, param, start, stop, 7))


def _assert_records(pairs: list[tuple[Scenario, ScenarioReport]]) -> None:
    for scenario, report in pairs:
        line = record_line(report, scenario.resolved, scenario.provenance)
        assert line == _reference_record(report, scenario.resolved, scenario.provenance)


def test_a_record_does_not_depend_on_the_records_before_it() -> None:
    # along the relay axis the points share their solution's objects, along
    # fault.m only their text, None and flag values
    relay = _sweep("relay.phi_non_deg", 30.0, 60.0)
    fault = _sweep("fault.m", 0.05, 0.95)
    interleaved = [pair for pairs in zip(relay, fault[::-1]) for pair in pairs]
    for pairs in (relay, fault, relay[::-1], fault[::-1], interleaved, interleaved[::-1]):
        _assert_records(pairs)


def test_a_record_that_raises_leaves_the_next_one_right() -> None:
    (scenario, report), *_ = _sweep("relay.phi_non_deg", 30.0, 60.0)
    resolved, provenance = scenario.resolved, scenario.provenance
    floats = [name for name, value in zip(CSV_COLUMNS, report) if type(value) is float]
    # every float column a new object; the refused record holds the same
    # objects but one, so a text kept from it would show in the next
    moved = report._replace(**{name: getattr(report, name) + 1.0 for name in floats})
    refused = (
        (moved._replace(i0_bus1_mag=float("nan")), resolved),
        (moved._replace(residual=float("-inf")), resolved),
        (moved, {**resolved, "fault.m": float("nan")}),
    )
    for bad, config in refused:
        _assert_records([(scenario, report)])
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            record_line(bad, config, provenance)
        assert record_line(moved, resolved, provenance) == _reference_record(
            moved, resolved, provenance
        )


def test_a_mutable_value_gets_its_text_on_every_call() -> None:
    (scenario, report), *_ = _sweep("fault.m", 0.05, 0.95)
    values = [0.5]
    resolved = {**scenario.resolved, "fault.m": values}
    for _ in range(2):
        line = record_line(report, resolved, scenario.provenance)
        assert line == _reference_record(report, resolved, scenario.provenance)
        assert '"fault.m":' + json.dumps(values, separators=(",", ":")) in line
        values.append(float(len(values)))
