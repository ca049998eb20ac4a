"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from faultlab import cli, harness, scenario  # noqa: E402

from perfbench import calibrate, check, run, tracer, workloads  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PRESETS = ["fig12-circular", "sg-baseline-fwd"]


def _reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _passes(name: str, seed: int, workdir: Path, count: int) -> list[list[tuple]]:
    workdir.mkdir()
    wl = workloads.Workload(name, seed, workdir, PRESETS)
    return [[(op.key, op.overrides) for op in wl.pass_ops(k)] for k in range(count)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_config_generator_is_stable_for_a_seed(name, tmp_path):
    first = _passes(name, 7, tmp_path / "a", 3)
    assert first == _passes(name, 7, tmp_path / "b", 3)
    assert first != _passes(name, 8, tmp_path / "c", 3)


@pytest.mark.parametrize("name", ["grid", "generator"])
def test_sampled_workloads_draw_without_replacement(name, tmp_path):
    cases = workloads.grid_cases() if name == "grid" else workloads.generator_cases()
    size = workloads.GRID_PASS if name == "grid" else workloads.GENERATOR_PASS
    keys = [key for ops in _passes(name, 3, tmp_path / "w", len(cases) // size) for key, _ in ops]
    assert sorted(keys) == sorted(workloads.case_key(c) for c in cases)


def test_every_seeded_input_has_a_reference():
    assert set(_reference("grid")["cases"]) == {
        workloads.case_key(c) for c in workloads.grid_cases()
    }
    assert set(_reference("generator")["cases"]) == {
        workloads.case_key(c) for c in workloads.generator_cases()
    }
    assert len(_reference("sweep")["calls"]) == 24


def _targets() -> dict[tuple[str, str], object]:
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracer.TARGETS
    }


def test_tracer_leaves_faultlab_unpatched():
    before = _targets()
    t = tracer.Tracer()
    with t.installed():
        assert harness.fault_fixed_point is not before[("faultlab.harness", "fault_fixed_point")]
        overrides = {"source.kind": "gfm", "clc.kind": "circular", "fault.kind": "ag"}
        harness.run_scenario(scenario.build_scenario(overrides))
    assert _targets() == before
    assert all(_targets()[key] is fn for key, fn in before.items())

    with pytest.raises(RuntimeError), t.installed():
        raise RuntimeError("traced code failed")
    assert all(_targets()[key] is fn for key, fn in before.items())

    stats = t.summary()
    assert stats["harness.run_scenario"].calls == 1
    assert stats["sources.fixed_point"].calls == 1
    assert stats["sources.fixed_point"].count >= 1
    run = stats["harness.run_scenario"]
    assert 0.0 < run.self_s < run.total_s


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    gone = ("faultlab.sources", "no_such_function", "network.solve_fault", None)
    monkeypatch.setattr(tracer, "TARGETS", (*tracer.TARGETS, gone))
    t = tracer.Tracer()
    with t.installed():
        harness.run_scenario(scenario.build_scenario({}))
    assert t.absent == ["faultlab.sources.no_such_function"]
    assert t.summary()["sources.fixed_point"].calls == 0


def test_checker_flags_a_perturbed_verdict():
    ref = ["ok", "forward", "forward", "reverse", "ag"]
    fields = dict(zip(check.VERDICTS, ref[1:]), residual=1e-12)
    assert check.check_case("ok", fields, ref, 1e-9) == []
    assert check.check_case("ok", dict(fields, dir_neg="reverse"), ref, 1e-9)
    assert check.check_case("ok", dict(fields, residual=2e-9), ref, 1e-9)
    assert check.check_case("NoConvergenceError", None, ref, 1e-9)
    assert check.check_case("ValidationError", None, ref, 1e-9)
    # a case that failed in the reference may converge now, or fail again
    failed = ["NoConvergenceError", None, None, None, None]
    assert check.check_case("ok", fields, failed, 1e-9) == []
    assert check.check_case("OscillationDetectedError", None, failed, 1e-9) == []


def _perturb(text: str, column: str, value: str) -> str:
    header, row = text.splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = value
    return f"{header}\n{','.join(cells)}\n"


def test_checker_compares_preset_csv_within_tolerance():
    ref = _reference("replicate")
    text = ref["presets"]["fig13a"]
    tol = ref["solver_tol"]
    assert check.check_csv(text, text, tol) == []
    assert check.check_csv(_perturb(text, "dir_neg", "reverse"), text, tol)
    row = dict(zip(*(line.split(",") for line in text.splitlines())))
    v1 = float(row["v1_bus1_mag"])
    assert check.check_csv(_perturb(text, "v1_bus1_mag", f"{v1 + 1e-6:.6f}"), text, tol) == []
    assert check.check_csv(_perturb(text, "v1_bus1_mag", f"{v1 + 1e-3:.6f}"), text, tol)
    assert check.check_csv(_perturb(text, "oracle_max_err", "1.000e-06"), text, tol)
    assert check.check_table1(ref["table1"].replace("pass", "FAIL", 1), ref["table1"])


def test_checker_flags_a_perturbed_sweep_record(tmp_path):
    config = tmp_path / "sg-ag.cfg"
    config.write_text("source.kind = sg\nfault.kind = ag\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = ["sweep", "--config", str(config), "--param", "relay.phi_non_deg",
            "--from", "30.0", "--to", "60.0", "--steps", "25",
            "--format", "records", "--output", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    ref = _reference("sweep")["calls"]["sg-ag:relay.phi_non_deg"]
    text = out.read_text(encoding="utf-8")
    assert check.check_sweep(0, text, ref) == (25, [])
    lines = text.splitlines()
    record = json.loads(lines[3])
    record["phase_sel"] = "bc" if record["phase_sel"] != "bc" else "ag"
    lines[3] = json.dumps(record)
    _, problems = check.check_sweep(0, "\n".join(lines), ref)
    assert problems
    assert check.check_sweep(1, "", ref) == (0, ["sweep exited 1; every reference point converged"])
    assert check.check_sweep(2, "", ref)[1]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = run._end_to_end([(1.0, 0.1, 0.2)], run.Tally(attempted=1), [0.1])
    per_layer = run._per_layer(tracer.Tracer().summary(), 1.0, 1.0, 1)
    for declared, printed in ((spec["end_to_end"], end_to_end), (spec["per_layer"], per_layer)):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit, _) in printed.items()
        }


def test_gauge_scales_each_block_by_the_readings_around_it(monkeypatch):
    assert calibrate.reading(2) > 0
    readings = iter([2.0, 4.0, 1.0])  # host at 1/2, 1/4 and 1x the reference speed
    monkeypatch.setattr(calibrate, "reading", lambda calls: next(readings) * calibrate.REFERENCE_S)
    gauge = calibrate.Gauge()
    assert gauge.scale([0.3, 0.6]) == pytest.approx([0.1, 0.2])
    assert gauge.scale([0.25]) == pytest.approx([0.1])
