"""The package's value records: namedtuples, read-only, checked where they validate."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import faultlab
from faultlab.abc_oracle import solve_abc
from faultlab.clc import ClcConfig
from faultlab.harness import (
    TABLE1_ELEMENTS,
    TABLE1_ROWS,
    Table1Result,
    prefault_network_readings,
    report_scenario,
    solve_scenario,
)
from faultlab.network import FaultSpec, SequenceSolution
from faultlab.phasors import inverse_fortescue
from faultlab.presets import PRESETS
from faultlab.relay import RelaySettings, directional_negative, phase_select
from faultlab.scenario import build_scenario
from faultlab.sources import GfmModel, SgModel

# each validated record, fields that fail its check, and the message
INVALID = [
    (ClcConfig, {"i_lim": 0.0}, r"clc\.i_lim must be positive, got 0\.0"),
    (ClcConfig, {"x_vn": -0.1}, "nominal virtual impedance parts must be non-negative"),
    (FaultSpec, {"m": 1.5}, r"fault position m=1\.5 outside \[0, 1\]"),
    (FaultSpec, {"r_g_ohm": -1.0}, r"fault resistance -1\.0 ohm is negative"),
    (RelaySettings, {"phi_non_deg": 20.0}, r"phi_non must lie in \[30, 60\] degrees, got 20"),
    (RelaySettings, {"seq_floor_pu": 0.0}, "seq_floor_pu must be positive"),
    (RelaySettings, {"asym_floor_pu": -0.1}, "asym_floor_pu must be positive"),
    (RelaySettings, {"dd21_half_deg": 31.0}, r"dd21 band half-width must lie in \(0, 30"),
    (RelaySettings, {"d20_half_deg": 0.0}, r"d20 band half-width must lie in \(0, 60\]"),
    (SgModel, {"x0": 0.0}, "generator sequence reactances must be positive"),
    (GfmModel, {"k_pv": 0.0}, "voltage-loop gain k_pv must be positive"),
    (GfmModel, {"x_f": -0.1}, "filter reactance must be non-negative"),
    (GfmModel, {"filter_in_network": True}, "filter_in_network applies only to the adaptive"),
]


@pytest.mark.parametrize(("cls", "fields", "message"), INVALID)
def test_a_validated_record_checks_every_way_it_is_made(cls, fields, message) -> None:
    valid = cls()
    assert valid._replace() == valid == cls._make(valid)
    with pytest.raises(ValueError, match=message):
        cls(**fields)
    with pytest.raises(ValueError, match=message):
        valid._replace(**fields)
    with pytest.raises(ValueError, match=message):
        cls._make({**valid._asdict(), **fields}.values())


def test_every_validated_record_is_covered() -> None:
    assert {cls for cls, _, _ in INVALID} == {
        cls for cls in _record_classes() if hasattr(cls, "_check")
    }


def _modules():
    for info in pkgutil.iter_modules(faultlab.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"faultlab.{info.name}")


def _record_classes() -> set[type]:
    """Every namedtuple class the package defines."""
    found = set()
    for module in _modules():
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
                if obj.__module__ == module.__name__:
                    found.add(obj)
    return found


def test_every_record_is_the_namedtuple_of_its_class_body() -> None:
    made = set()
    for module, cls, body in _record_bodies():
        fields = [node for node in body if isinstance(node, ast.AnnAssign)]
        assert cls._fields == tuple(node.target.id for node in fields), cls
        defaults = {
            node.target.id: eval(ast.unparse(node.value), vars(module))
            for node in fields
            if node.value is not None
        }
        assert cls._field_defaults == defaults, cls
        assert cls.__module__ == module.__name__, cls
        bases = (*cls.__mro__, *getattr(cls, "__orig_bases__", ()))
        assert not any(base.__module__ == "typing" for base in bases), cls
        made.add(cls)
    assert made == _record_classes()


def _record_bodies():
    """Each class the package's sources derive from Record: its module, class and body."""
    for module in _modules():
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "Record" for base in node.bases
            ):
                yield module, vars(module)[node.name], node.body


def _one_of_each_record() -> list[tuple]:
    scenario = build_scenario({"source.kind": "gfm", "fault.kind": "ag"})
    op, sol = solve_scenario(scenario)
    reading = sol.fault.total.readings["bus1"]
    prefault = prefault_network_readings(op)["bus1"]
    net = scenario.net
    return [
        scenario, scenario.solver, scenario.fault, scenario.source, scenario.source.clc,
        scenario.relay, build_scenario({}).source,
        net, *net.elements, *net.relay_taps.values(),
        op, sol, sol.frozen, sol.fault.thevenin,
        sol.fault.terminal_port, reading, reading.v, inverse_fortescue(reading.v),
        directional_negative(reading, scenario.relay),
        phase_select(reading, prefault, scenario.relay),
        report_scenario(scenario, op, sol),
        solve_abc(net.with_elements(sol.frozen), scenario.fault),
        PRESETS["fig13b"], TABLE1_ROWS[0], Table1Result({}, TABLE1_ROWS, TABLE1_ELEMENTS, ()),
    ]


def test_every_record_is_read_only() -> None:
    records = _one_of_each_record()
    assert {type(record) for record in records} == _record_classes()
    for record in records:
        before = tuple(record)
        for name in (record._fields[0], record._fields[-1], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        assert all(now is then for now, then in zip(record, before)), type(record)
        assert not hasattr(record, "not_a_field")


def test_solutions_compare_by_value_and_compute_their_parts_once() -> None:
    scenario = build_scenario({"source.kind": "gfm", "fault.kind": "ag"})
    fault = solve_scenario(scenario)[1].fault
    twin = fault.at(fault.i1, fault.i2)
    assert twin is not fault and twin == fault and twin.total == fault.total
    assert twin != fault.at(fault.i1 + 0.1, fault.i2)
    assert fault.total is fault.total and fault.base is fault.base and fault.pure is fault.pure
    assert fault.thevenin is fault.thevenin and fault.i_fault is fault.i_fault
    assert twin.thevenin == fault.thevenin and twin.i_fault == fault.i_fault
    total = fault.total
    assert total.readings is total.readings
    assert SequenceSolution(dict(total.v), total.net) == total
    assert SequenceSolution({**total.v, 0: {}}, total.net) != total
