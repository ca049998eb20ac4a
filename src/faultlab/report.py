"""Scenario result record and its serializations.

Two formats, both deterministic for a given resolved config:

* csv: fixed column order (CSV_COLUMNS), fixed numeric formatting (angles
  at 0.1 degree, magnitudes at 1e-6, residuals in scientific notation).
  Two runs of the same scenario produce byte-identical output.
* records: one JSON object per line, keys sorted, full double precision,
  carrying the resolved config and per-key provenance so the line is
  self-describing.

Fields that do not apply (converter-only quantities in a generator run,
angles whose operand sat below the magnitude floor) serialize as empty CSV
cells / JSON nulls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

__all__ = ["ScenarioReport", "CSV_COLUMNS", "csv_header", "csv_line", "record_line"]


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    config_hash: str
    source_kind: str
    clc_kind: str | None
    fault_kind: str
    fault_m: float
    fault_r_g_ohm: float
    placement: str

    prefault_e_pu: float
    prefault_theta_deg: float
    prefault_p_pu: float
    prefault_q_pu: float

    # bus sequence readings, magnitude (peak pu) and angle (deg)
    v1_bus1_mag: float
    v1_bus1_ang: float | None
    v2_bus1_mag: float
    v2_bus1_ang: float | None
    v0_bus1_mag: float
    v0_bus1_ang: float | None
    i1_bus1_mag: float
    i1_bus1_ang: float | None
    i2_bus1_mag: float
    i2_bus1_ang: float | None
    i0_bus1_mag: float
    i0_bus1_ang: float | None
    v1_bus2_mag: float
    v1_bus2_ang: float | None
    v2_bus2_mag: float
    v2_bus2_ang: float | None
    v0_bus2_mag: float
    v0_bus2_ang: float | None
    i1_bus2_mag: float
    i1_bus2_ang: float | None
    i2_bus2_mag: float
    i2_bus2_ang: float | None
    i0_bus2_mag: float
    i0_bus2_ang: float | None

    # relay-1 operating angles and verdicts
    phi2_deg: float | None
    phi0_deg: float | None
    dphi1_deg: float | None
    dd21_deg: float | None
    d20_deg: float | None
    dir_neg: str
    dir_zero: str
    dir_inc: str
    phase_sel: str

    # converter state (None for the generator source)
    zv1_mag: float | None
    zv1_ang: float | None
    zv2_mag: float | None
    zv2_ang: float | None
    ze1_mag: float | None
    ze1_ang: float | None
    ze2_mag: float | None
    ze2_ang: float | None
    ze0_mag: float | None
    ze0_ang: float | None
    zad_mag: float | None
    zad_ang: float | None
    dvdi1_mag: float | None
    dvdi1_ang: float | None
    sigma1_mag: float | None
    sigma1_ang: float | None
    sigma2_mag: float | None
    sigma2_ang: float | None

    limiter_active: bool
    iterations: int
    residual: float
    i_max_phase_pu: float
    oracle_max_err: float | None

    @classmethod
    def from_fields(cls, values: dict[str, object]) -> "ScenarioReport":
        """The report of `values`, one per field, set in one step: no `__post_init__` runs."""
        names, keys = cls.__dataclass_fields__.keys(), values.keys()
        if keys != names:
            missing, extra = sorted(names - keys), sorted(keys - names)
            raise TypeError(f"report fields missing {missing}, unexpected {extra}")
        report = object.__new__(cls)  # frozen all the same: __setattr__ still raises
        report.__dict__.update(values)
        return report


CSV_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(ScenarioReport))

_SCI = ("residual", "oracle_max_err")
_INT = ("iterations",)
_PLAIN = ("fault_m", "fault_r_g_ohm")


def _format_cell(name: str, value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if name in _INT:
        return str(int(value))  # type: ignore[arg-type]
    if isinstance(value, str):
        return value
    assert isinstance(value, float)
    if name in _SCI:
        return f"{value:.3e}"
    if name in _PLAIN:
        return f"{value:.6g}"
    if name.endswith("_ang") or name.endswith("_deg"):
        return f"{value:.1f}"
    return f"{value:.6f}"


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def csv_line(report: ScenarioReport) -> str:
    return ",".join(_format_cell(name, getattr(report, name)) for name in CSV_COLUMNS)


def record_line(
    report: ScenarioReport,
    resolved: dict[str, object],
    provenance: dict[str, str],
) -> str:
    payload: dict[str, object] = {name: getattr(report, name) for name in CSV_COLUMNS}
    payload["config"] = resolved
    payload["provenance"] = provenance
    # sort_keys sorts the nested config and provenance too
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
