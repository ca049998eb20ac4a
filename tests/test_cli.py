from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faultlab.cli import _build_parser, main
from faultlab.harness import run_scenario
from faultlab.report import csv_header, record_line
from faultlab.scenario import build_scenario


def _linear_axis(start: float, stop: float, steps: int) -> list[float]:
    """The points of a linear sweep: the endpoints verbatim, evenly spaced between."""
    inner = [start + k / (steps - 1) * (stop - start) for k in range(1, steps - 1)]
    return [start, *inner, stop]


def _config(tmp_path: Path, text: str, name: str = "case.cfg") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_replicate_writes_csv_to_stdout(capsys) -> None:
    assert main(["replicate", "--preset", "sg-baseline-fwd"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == csv_header()
    assert len(out) == 2
    assert out[1].startswith("sg-baseline-fwd,")


def test_run_emits_records(tmp_path, capsys) -> None:
    cfg = _config(
        tmp_path,
        "source.kind = sg\nfault.kind = ag\nfault.r_g_ohm = 10\n",
        name="my-case.cfg",
    )
    assert main(["run", "--config", cfg, "--format", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["scenario_id"] == "my-case"
    assert payload["fault_kind"] == "ag"
    assert payload["config"]["fault.r_g_ohm"] == 10.0
    assert payload["provenance"]["fault.r_g_ohm"] == "user"
    assert payload["oracle_max_err"] is None


def test_oracle_check_flag_fills_the_field(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n")
    assert main(["run", "--config", cfg, "--format", "records", "--oracle-check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_max_err"] is not None
    assert payload["oracle_max_err"] < 1e-8


def test_output_goes_to_the_named_file(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n")
    target = tmp_path / "out.csv"
    assert main(["run", "--config", cfg, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == csv_header() and len(lines) == 2


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["run", "table1"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command: str, where: str) -> None:
    target = tmp_path / "absent" / "out.csv" if where == "missing-directory" else tmp_path
    argv = ["--output", str(target)]
    if command == "run":
        argv = ["--config", _config(tmp_path, "source.kind = sg\n"), *argv]
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write output file {target}: ")
    assert "Traceback" not in captured.err


def test_missing_config_file_is_a_config_error(tmp_path, capsys) -> None:
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys) -> None:
    path = tmp_path / "latin1.cfg"
    path.write_bytes("fault.kind = ag # café\n".encode("latin-1"))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}: ")
    assert "Traceback" not in err


def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path, capsys) -> None:
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + b"source.kind = sg\nfault.kind = ag\n")
    assert main(["run", "--config", str(path), "--format", "records"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["source.kind"] == "sg"
    assert payload["provenance"]["source.kind"] == "user"


def test_unknown_key_is_a_config_error(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "no.such = 1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_bad_value_is_a_config_error(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "fault.m = 2\n")
    assert main(["run", "--config", cfg]) == 2
    assert "fault.m" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fault.r_g_ohm", "source.p_ref", "solver.max_iter"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, key: str, value: str) -> None:
    cfg = _config(tmp_path, f"source.kind = gfm\n{key} = {value}\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize(
    ("key", "token"),
    [("clc.i_lim_pu", "1_2"), ("fault.m", "\u0660.\u0665"), ("fault.m", "\uff10.5")],
)
def test_a_number_that_is_not_a_plain_ascii_decimal_is_a_config_error(
    tmp_path, capsys, key: str, token: str
) -> None:
    # `float` reads each of these (12.0, 0.5, 0.5); a config file does not
    cfg = _config(tmp_path, f"{key} = {token}\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be a number, got {token!r}\n"


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_sweep_bounds_are_read_as_a_config_file_reads_numbers(tmp_path, capsys, flag) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n")

    def sweep(bound: str) -> int:
        bounds = {"--from": "0.2", "--to": "0.8", flag: bound}
        return main(["sweep", "--config", cfg, "--param", "fault.m", "--steps", "2",
                     *(arg for pair in bounds.items() for arg in pair)])

    with pytest.raises(SystemExit) as rejected:
        sweep("0_5")
    assert rejected.value.code == 2
    assert f"argument {flag}: invalid number value: '0_5'" in capsys.readouterr().err
    # inf and nan are numbers, rejected as not finite by the sweep's build
    assert sweep("nan") == 2
    assert "fault.m must be finite, got nan" in capsys.readouterr().err


def _sweep_steps(tmp_path: Path, steps: str) -> int:
    cfg = _config(tmp_path, "source.kind = sg\n")
    return main(["sweep", "--config", cfg, "--param", "fault.m", "--from", "0.2", "--to", "0.8",
                 "--steps", steps])


@pytest.mark.parametrize("steps", ["1_0", "٣", "３", " 3", "3.0", "0x3", "1e1", ""])
def test_sweep_steps_are_an_optional_sign_and_ascii_digits(tmp_path, capsys, steps) -> None:
    # `int` reads the first four (10, 3, 3, 3); the step count does not
    with pytest.raises(SystemExit) as rejected:
        _sweep_steps(tmp_path, steps)
    assert rejected.value.code == 2
    assert f"argument --steps: invalid integer value: {steps!r}" in capsys.readouterr().err


@pytest.mark.parametrize(("steps", "rows"), [("+2", 2), ("03", 3), ("0", None), ("-1", None)])
def test_sweep_steps_read_as_a_signed_decimal(tmp_path, capsys, steps, rows) -> None:
    if rows is None:
        assert _sweep_steps(tmp_path, steps) == 2
        got = int(steps)
        assert capsys.readouterr().err == f"config error: sweep needs at least 1 step, got {got}\n"
    else:
        assert _sweep_steps(tmp_path, steps) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows


def test_infinite_limit_with_records_is_a_config_error(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = gfm\nclc.i_lim_pu = inf\n")
    assert main(["run", "--config", cfg, "--format", "records"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "clc.i_lim_pu" in err


def test_unserializable_result_is_a_solver_error(tmp_path, capsys, monkeypatch) -> None:
    import faultlab.cli

    real = faultlab.cli.run_scenario

    # one column from each run of report columns that a record's sorted keys
    # make around its config and provenance objects
    for column, value in (("clc_kind", math.inf), ("fault_m", -math.inf), ("residual", math.nan)):

        def non_finite(scenario, oracle_check=False):
            report = real(scenario, oracle_check=oracle_check)
            return report._replace(**{column: value})

        monkeypatch.setattr(faultlab.cli, "run_scenario", non_finite)
        cfg = _config(tmp_path, "source.kind = sg\n")
        assert main(["run", "--config", cfg, "--format", "records"]) == 1
        err = capsys.readouterr().err
        assert "solver error" in err and "serialize" in err
        assert f"{column} is {value}" in err


@pytest.mark.parametrize(
    ("param", "start", "stop", "builds"),
    [("fault.m", "0.2", "0.8", 3), ("relay.phi_non_deg", "30", "60", 1)],
)
def test_sweep_builds_each_point_once(
    tmp_path, capsys, monkeypatch, param: str, start: str, stop: str, builds: int
) -> None:
    # along a relay axis only the first point is built; the later ones
    # take their relay settings from it
    import faultlab.cli
    import faultlab.harness

    calls = []
    real = faultlab.harness.build_scenario

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(faultlab.harness, "build_scenario", counting)
    monkeypatch.setattr(faultlab.cli, "build_scenario", counting)
    cfg = _config(tmp_path, "source.kind = sg\n", name="sw.cfg")
    code = main(
        ["sweep", "--config", cfg, "--param", param, "--from", start, "--to", stop,
         "--steps", "3", "--format", "records"]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(calls) == builds


def _count_solves(monkeypatch) -> dict[str, int]:
    import faultlab.harness

    calls = {"prefault_solve": 0, "fault_fixed_point": 0}
    for name in calls:
        real = getattr(faultlab.harness, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(faultlab.harness, name, counting)
    return calls


@pytest.mark.parametrize(
    ("param", "start", "stop", "solves"),
    [("relay.phi_non_deg", "30", "60", 1), ("fault.m", "0.05", "0.95", 5)],
)
def test_relay_sweep_solves_once_and_other_sweeps_every_point(
    tmp_path, capsys, monkeypatch, param: str, start: str, stop: str, solves: int
) -> None:
    calls = _count_solves(monkeypatch)
    cfg = _config(tmp_path, "source.kind = gfm\nclc.kind = priority\nfault.kind = ag\n")
    code = main(
        ["sweep", "--config", cfg, "--param", param, "--from", start, "--to", stop,
         "--steps", "5", "--format", "records"]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert calls == {"prefault_solve": solves, "fault_fixed_point": solves}


@pytest.mark.parametrize("kind", ["sg", "gfm"])
def test_relay_sweep_records_equal_the_per_point_runs(tmp_path, capsys, kind: str) -> None:
    overrides = {"source.kind": kind, "fault.kind": "bcg", "relay.dd21_half_deg": 20.0}
    param = "relay.phi_non_deg"
    cfg = _config(tmp_path, "".join(f"{k} = {v}\n" for k, v in overrides.items()), name="sw.cfg")
    code = main(
        ["sweep", "--config", cfg, "--param", param, "--from", "30",
         "--to", "60", "--steps", "4", "--format", "records"]
    )
    assert code == 0
    # each point built on its own, as `faultlab run` builds it
    points = [
        build_scenario({**overrides, param: value}, scenario_id=f"sw:{param}={value:.6g}")
        for value in _linear_axis(30.0, 60.0, 4)
    ]
    assert capsys.readouterr().out.splitlines() == [
        record_line(run_scenario(s), s.resolved, s.provenance) for s in points
    ]


@pytest.mark.parametrize(
    ("param", "start", "stop", "bad"),
    [("relay.phi_non_deg", "40", "70", "70"), ("relay.seq_floor_pu", "0.02", "-0.01", "-0.01")],
)
def test_relay_sweep_validates_every_point(
    tmp_path, capsys, param: str, start: str, stop: str, bad: str
) -> None:
    # the last point lies outside the key's range; the third point of the
    # seq_floor axis rounds to 3.5e-18, which is still positive
    text = "source.kind = gfm\nfault.kind = ag\n"
    cfg = _config(tmp_path, text)
    point = _config(tmp_path, text + f"{param} = {bad}\n", name="point.cfg")
    assert main(["run", "--config", point]) == 2
    single = capsys.readouterr().err
    code = main(
        ["sweep", "--config", cfg, "--param", param, "--from", start, "--to", stop,
         "--steps", "4", "--format", "records"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == single
    assert single.startswith("config error: ")


def test_relay_sweep_that_fails_to_solve_is_the_solver_error_of_its_first_point(
    tmp_path, capsys
) -> None:
    # a priority limit cycle of the 3000-case grid
    text = (
        "source.kind = gfm\nclc.kind = priority\nfault.kind = ca\nfault.m = 1\n"
        "fault.r_g_ohm = 30\nsource.p_ref = 0\n"
    )
    cfg = _config(tmp_path, text)
    first = _config(tmp_path, text + "relay.phi_non_deg = 30\n", name="first.cfg")
    assert main(["run", "--config", first]) == 1
    single = capsys.readouterr().err
    code = main(
        ["sweep", "--config", cfg, "--param", "relay.phi_non_deg", "--from", "30",
         "--to", "60", "--steps", "5"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == single
    assert single.startswith("solver error: priority: ")


def test_unknown_preset_is_a_config_error(capsys) -> None:
    assert main(["replicate", "--preset", "nope"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "sg-baseline-fwd" in err


def test_exhausted_solver_budget_is_a_solver_error(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = gfm\nclc.kind = instantaneous\nsolver.max_iter = 2\n")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "solver error: instantaneous: fixed point missed tol=1e-09 after 2 iterations" in err
    assert "damping 0.5): slow contraction" in err
    assert "last residual" in err


def test_negative_current_between_the_relay_floors_selects_nothing(tmp_path, capsys) -> None:
    # asym_floor < |i2| (0.18 pu) < seq_floor: the fault is not symmetrical,
    # but i2 is too weak for the dd21 angle, so no phase is selected
    cfg = _config(
        tmp_path,
        "source.kind = gfm\nclc.kind = circular\nfault.kind = ag\nfault.m = 0.95\n"
        "fault.r_g_ohm = 100\nrelay.asym_floor_pu = 0.001\nrelay.seq_floor_pu = 0.2\n",
    )
    assert main(["run", "--config", cfg, "--format", "records"]) == 0
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert err == ""
    assert 0.001 < record["i2_bus1_mag"] < 0.2
    assert record["phase_sel"] == "none" and record["dd21_deg"] is None


@pytest.mark.parametrize("kind", ["circular", "adaptive_virtual_impedance"])
def test_exhausted_root_budget_is_a_solver_error(tmp_path, capsys, kind: str) -> None:
    cfg = _config(tmp_path, f"source.kind = gfm\nclc.kind = {kind}\nsolver.max_iter = 2\n")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"solver error: {kind}: fixed point missed tol=1e-09 after 2 iterations" in err
    assert "last residual" in err


@pytest.mark.parametrize("kind", ["sg", "gfm"])
def test_unreachable_dispatch_is_a_solver_error(tmp_path, capsys, kind: str) -> None:
    cfg = _config(tmp_path, f"source.kind = {kind}\ncircuit.grid_v_pu = 1e-12\n")
    assert main(["run", "--config", cfg]) == 1
    assert "solver error: pre-fault dispatch unreachable: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code, message",
    [
        # the base impedance overflows, or underflows to 0
        ("circuit.v_hv_kv = 1e300\n", 2, "config error: circuit.v_hv_kv = 1e+300 "),
        ("circuit.v_hv_kv = 1e-200\n", 2, "config error: circuit.v_hv_kv = 1e-200 "),
        # the per-unit line impedance underflows to 0
        ("circuit.line_km = 5e-324\n", 2, "config error: circuit.line_km = 5e-324 "),
        (
            "source.kind = gfm\ncircuit.line_km = 5e-324\n",
            2,
            "config error: circuit.line_km = 5e-324 ",
        ),
        ("sg.collection_km = 5e-324\n", 2, "config error: sg.collection_km = 5e-324 "),
        # a section that fault.m splits off underflows to 0, on either side and source
        *(
            (
                f"source.kind = {kind}\nfault.placement = {side}\nfault.m = 5e-324\n",
                2,
                "config error: fault.m = 5e-324 gives a per-unit section impedance of 0j; ",
            )
            for kind in ("sg", "gfm")
            for side in ("forward", "reverse")
        ),
        # a per-unit branch impedance is subnormal: 1/z overflows to inf
        ("circuit.line_km = 1e-310\n", 2, "config error: circuit.line_km = 1e-310 "),
        ("source.kind = gfm\ngfm.x_t_pu = 5e-324\n", 2, "config error: gfm.x_t_pu = 5e-324 "),
        ("source.kind = gfm\ngfm.x_t0_pu = 5e-324\n", 2, "config error: gfm.x_t0_pu = 5e-324 "),
        ("sg.x1_pu = 5e-324\n", 2, "config error: sg.x1_pu = 5e-324 "),
        ("sg.x2_pu = 5e-324\n", 2, "config error: sg.x2_pu = 5e-324 "),
        ("sg.x0_pu = 5e-324\n", 2, "config error: sg.x0_pu = 5e-324 "),
        ("circuit.grid_z0_scale = 1e-320\n", 2, "config error: circuit.grid_z0_scale = 1e-320 "),
        # the pre-fault closed form divides by an underflowed |z_th|^2, or overflows
        (
            "source.kind = sg\nsource.p_ref = 0\ncircuit.v_hv_kv = 1e100\n",
            1,
            "solver error: pre-fault dispatch unreachable: the closed form divides by zero ",
        ),
        (
            "circuit.s_base_mva = 1e300\n",
            1,
            "solver error: pre-fault dispatch unreachable: the closed form overflows ",
        ),
    ],
    ids=[
        "v_hv_overflow", "v_hv_underflow", "line_km_sg", "line_km_gfm", "collection_km",
        "fault_m_sg_forward", "fault_m_sg_reverse", "fault_m_gfm_forward", "fault_m_gfm_reverse",
        "line_km_subnormal", "x_t", "x_t0", "sg_x1", "sg_x2", "sg_x0", "grid_z0_scale",
        "prefault_zero_division", "prefault_overflow",
    ],
)
def test_extreme_base_quantities_are_named_errors(
    tmp_path, capsys, text: str, code: int, message: str
) -> None:
    assert main(["run", "--config", _config(tmp_path, text)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "law, override, fails",
    [
        # i_lim**2 overflows in the d/q clamp
        ("priority", "clc.i_lim_pu = 1.4e154", "overflows"),
        # the common rescale divides by a phase amplitude that underflowed to 0
        ("priority", "clc.i_lim_pu = 1e-200", "divides by zero"),
        # 1 / n_x_r**2: the square overflows, or underflows to 0
        ("virtual_admittance", "clc.n_x_r = 1e200", "overflows"),
        ("virtual_admittance", "clc.n_x_r = 1e-200", "divides by zero"),
        # the branch resistance (1 - s) / (k_pv s) at a scale s that underflows
        ("circular", "clc.i_lim_pu = 5e-324", "divides by zero"),
        ("circular", "gfm.k_pv = 5e-324", "divides by zero"),
    ],
)
def test_a_limiting_law_that_fails_in_floating_point_is_a_solver_error(
    tmp_path, capsys, law: str, override: str, fails: str
) -> None:
    cfg = _config(tmp_path, f"source.kind = gfm\nclc.kind = {law}\n{override}\n")
    assert main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"solver error: {law}: the limiting law {fails} in floating point\n"
    assert captured.out == ""


@pytest.mark.parametrize("fault_kind", ["cag", "bcg"])
def test_singular_fault_boundary_is_a_solver_error(tmp_path, fault_kind: str) -> None:
    # at this base every driving-point impedance at the fault node reads
    # exactly 0j, and the double-line-ground boundary divides by them
    cfg = _config(
        tmp_path,
        f"source.kind = gfm\nclc.kind = instantaneous\nfault.kind = {fault_kind}\n"
        "fault.placement = reverse\nfault.m = 0.95\nfault.r_g_ohm = 100\n"
        "source.p_ref = 0\ncircuit.s_base_mva = 1e-20\n",
    )
    done = _module_entry("run", "--config", cfg)
    assert done.returncode == 1
    assert done.stderr.startswith(f"solver error: {fault_kind} fault boundary is singular: ")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("override", ["circuit.grid_v_pu = 1000", "sg.x1_pu = 200"])
def test_far_dispatch_is_solved(tmp_path, capsys, override: str) -> None:
    # the emf lands near 1000 pu or at about 105 degrees: far from a flat start
    cfg = _config(tmp_path, f"source.kind = sg\n{override}\n")
    assert main(["run", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_emits_one_row_per_step(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n", name="sw.cfg")
    code = main(
        ["sweep", "--config", cfg, "--param", "fault.m", "--from", "0.2", "--to", "0.8",
         "--steps", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == csv_header()
    assert len(out) == 3
    assert "sw:fault.m=0.2," in out[1]
    assert "sw:fault.m=0.8," in out[2]


def test_csv_quotes_an_id_holding_commas_and_quotes(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n", name='a,b "c".cfg')
    assert main(["run", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg, "--param", "fault.m", "--from", "0.2", "--to", "0.8",
                 "--steps", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == rows[2] == csv_header().split(",")
    assert [len(row) for row in rows] == [68] * 5
    ids = [row[0] for row in rows[1:2] + rows[3:]]
    assert ids == ['a,b "c"', 'a,b "c":fault.m=0.2', 'a,b "c":fault.m=0.8']


def test_sweep_records_echo_the_swept_value(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n", name="sw.cfg")
    code = main(
        ["sweep", "--config", cfg, "--param", "fault.r_g_ohm", "--from", "5", "--to", "10",
         "--steps", "2", "--format", "records"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    values = [json.loads(line)["config"]["fault.r_g_ohm"] for line in lines]
    assert values == pytest.approx([5.0, 10.0])


def test_sweep_log_rejects_nonpositive_endpoints(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = sg\n")
    code = main(
        ["sweep", "--config", cfg, "--param", "fault.r_g_ohm", "--from", "0", "--to", "10",
         "--steps", "3", "--log"]
    )
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_table1_renders_the_matrix(capsys) -> None:
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("strategy")
    assert "adaptive-vi-xr0.1" in out
    assert "pattern matches the reference reliability matrix" in out


def test_replicate_table1_is_an_alias(tmp_path) -> None:
    target = tmp_path / "t1.txt"
    assert main(["replicate", "--preset", "table1", "--output", str(target)]) == 0
    assert "pattern matches" in target.read_text(encoding="utf-8")


def test_replicate_table1_refuses_the_records_format(tmp_path, capsys) -> None:
    target = tmp_path / "t1.txt"
    argv = ["replicate", "--preset", "table1", "--format", "records", "--output", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not target.exists()


def test_list_presets_catalogue(capsys) -> None:
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("sg-baseline-fwd", "fig13a", "fig14", "table1"):
        assert f"{name}:" in out


def _fresh_interpreter(*argv: str) -> subprocess.CompletedProcess:
    """`python <argv>` in a fresh interpreter, the package on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def _module_entry(*argv: str) -> subprocess.CompletedProcess:
    """`python -m faultlab` in a fresh interpreter."""
    return _fresh_interpreter("-m", "faultlab", *argv)


def test_module_entry_point_replicates_a_preset() -> None:
    done = _module_entry("replicate", "--preset", "fig13a")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == csv_header()
    assert done.stdout.splitlines()[1].startswith("fig13a,")


def test_module_entry_point_reports_a_config_error() -> None:
    done = _module_entry("replicate", "--preset", "nope")
    assert done.returncode == 2
    assert done.stderr.startswith("config error:")
    assert done.stdout == ""


def test_parser_is_built_once_per_process() -> None:
    assert _build_parser() is _build_parser()


def test_parser_is_built_on_first_use_not_at_import() -> None:
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import faultlab.cli\n"
        "at_import = len(built)\n"
        "faultlab.cli.main(['list-presets'])\n"
        "first = len(built)\n"
        "faultlab.cli.main(['list-presets'])\n"
        "print(at_import, first, len(built))\n"
    )
    done = _fresh_interpreter("-c", script)
    assert done.returncode == 0, done.stderr
    at_import, first, second = map(int, done.stdout.splitlines()[-1].split())
    assert at_import == 0
    assert first > 0 and second == first


def test_call_after_a_rejected_argv_equals_a_first_call(capsys) -> None:
    first_call = _module_entry("replicate", "--preset", "fig13a")
    assert first_call.returncode == 0, first_call.stderr
    with pytest.raises(SystemExit) as rejected:
        main(["replicate", "--no-such-flag"])
    assert rejected.value.code == 2
    capsys.readouterr()
    assert main(["replicate", "--preset", "fig13a"]) == 0
    assert capsys.readouterr().out == first_call.stdout


def test_oracle_check_does_not_carry_over_to_the_next_call(capsys) -> None:
    column = csv_header().split(",").index("oracle_max_err")
    assert main(["replicate", "--preset", "fig13a", "--oracle-check"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[column] != ""
    assert main(["replicate", "--preset", "fig13a"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[column] == ""


def test_run_then_sweep_in_one_process_equal_each_alone(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, "source.kind = gfm\nfault.kind = bcg\n")
    run = ["run", "--config", cfg, "--oracle-check"]
    sweep = ["sweep", "--config", cfg, "--param", "fault.m", "--from", "0.2", "--to", "0.8",
             "--steps", "3", "--format", "records"]
    alone = [_module_entry(*run), _module_entry(*sweep)]
    assert [done.returncode for done in alone] == [0, 0], [done.stderr for done in alone]
    assert main(run) == 0
    assert capsys.readouterr().out == alone[0].stdout
    assert main(sweep) == 0
    assert capsys.readouterr().out == alone[1].stdout
