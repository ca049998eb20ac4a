"""Regenerate the reference results in perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...]

Runs every input any seed can draw: the 14 presets and table1 through the
CLI, every sweep point and every grid and generator case through the
library. Each case stores its outcome class ("ok" or the exception type)
and its four relay verdicts; each preset stores its CSV output. Rerun it
only when a change to the program's results is intended, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from faultlab import cli, harness, scenario  # noqa: E402
from faultlab.presets import PRESETS  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.check import OK, VERDICTS, reference_entry  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = Path(__file__).resolve().parent / "out"


def _case(overrides: dict[str, object]) -> list:
    try:
        report = harness.run_scenario(scenario.build_scenario(overrides))
    except Exception as exc:
        return reference_entry(type(exc).__name__, None)
    return reference_entry(OK, {v: getattr(report, v) for v in VERDICTS})


def _cli_text(argv: list[str], out: Path) -> str:
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--output", str(out)])
    if code != 0:
        raise SystemExit(f"faultlab {' '.join(argv)} exited {code}")
    return out.read_text(encoding="utf-8")


def replicate() -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = Path(tmp) / "out.txt"
        presets = {
            name: _cli_text(["replicate", "--preset", name, "--oracle-check"], out)
            for name in sorted(PRESETS)
        }
        tracer = Tracer()
        with tracer.installed():
            table1 = _cli_text([workloads.TABLE1], out)
    return {
        "presets": presets,
        "table1": table1,
        "table1_scenarios": tracer.summary()["harness.run_scenario"].calls,
    }


def sweep() -> dict:
    calls = {}
    for config, overrides in workloads.sweep_configs().items():
        for param, start, stop in workloads.SWEEP_AXES:
            points = []
            for value in workloads.sweep_values(start, stop, workloads.SWEEP_STEPS):
                points.append([value, *_case({**overrides, param: value})])
            calls[workloads.sweep_key(config, param)] = {"param": param, "points": points}
    return {"calls": calls}


def cases(grid: list[dict[str, object]]) -> dict:
    return {"cases": {workloads.case_key(c): _case(c) for c in grid}}


BUILDERS = {
    "replicate": replicate,
    "sweep": sweep,
    "grid": lambda: cases(workloads.grid_cases()),
    "generator": lambda: cases(workloads.generator_cases()),
}


def _dumps(data: dict) -> str:
    """JSON with one case (or preset, or sweep call) per line."""
    lines = []
    for key, value in sorted(data.items()):
        if isinstance(value, dict):
            inner = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(value.items())
            )
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(names: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    tol = scenario.build_scenario({}).solver.tol
    for name in names or workloads.WORKLOADS:
        data = {"solver_tol": tol, **BUILDERS[name]()}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(_dumps(data), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
