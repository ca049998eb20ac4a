"""Print one sha256 digest per group of faultlab outputs, for a bit-identity check.

A change that claims to leave every output as it was runs this on both
trees and compares the printed digests. The groups:

* generator: `repr` of the report of each of the 1200 generator cases of
  `perfbench.workloads`, or `Type: message` of the error it raised;
* grid: the same for the 3000 converter grid cases;
* random_configs: the same for 1500 draws of `tests/test_random_configs.py`'s
  `random_config` at seed 7, run with `oracle_check=True`;
* presets: the CSV that `faultlab replicate --preset <p> --oracle-check`
  prints for each of the 14 presets, with its exit code;
* table1: what `faultlab table1` prints;
* records: what `faultlab replicate --preset <p> --format records
  --oracle-check` prints for each of the 14 presets, and what the
  benchmark's 24 `faultlab sweep --format records` calls print (each
  config of `perfbench.workloads.sweep_configs()` along each axis of
  `SWEEP_AXES` at `SWEEP_STEPS` points), each with its exit code. The
  sweep configs are written to a temporary directory under their
  benchmark names, so their scenario ids do not depend on where it is.

After the six groups it solves the `grid` and `generator` cases again, in
reverse order, in the same process, and exits 1 naming the first case
whose outcome differs: an output must not depend on which networks,
dispatches and faulted ports the memos already hold.

Run it from anywhere; it imports faultlab from the `src/` of the checkout it
sits in. It takes a few seconds.

    python3 tools/output_digest.py

`tools/output_digests.txt` holds what it prints for the checked-in tree, and
CI fails on any difference:

    python3 tools/output_digest.py | diff tools/output_digests.txt -

A change that moves an output on purpose updates that file and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from faultlab.cli import main as cli_main  # noqa: E402
from faultlab.harness import run_scenario  # noqa: E402
from faultlab.presets import PRESETS  # noqa: E402
from faultlab.scenario import build_scenario  # noqa: E402
from perfbench import workloads  # noqa: E402

RANDOM_SEED = 7
RANDOM_DRAWS = 1500


def _random_config():
    spec = importlib.util.spec_from_file_location(
        "output_digest_random_configs", ROOT / "tests" / "test_random_configs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_config


def _outcome(config: dict[str, object], oracle_check: bool = False) -> str:
    try:
        return repr(run_scenario(build_scenario(config), oracle_check=oracle_check))
    except Exception as exc:  # every outcome is part of the output
        return f"{type(exc).__name__}: {exc}"


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _records() -> list[str]:
    outputs = [
        _cli(["replicate", "--preset", name, "--format", "records", "--oracle-check"])
        for name in sorted(PRESETS)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for config, overrides in workloads.sweep_configs().items():
            path = Path(tmp) / f"{config}.cfg"
            text = "".join(f"{k} = {v}\n" for k, v in overrides.items())
            path.write_text(text, encoding="utf-8")
            for param, start, stop in workloads.SWEEP_AXES:
                outputs.append(_cli([
                    "sweep", "--config", str(path), "--param", param, "--from", repr(start),
                    "--to", repr(stop), "--steps", str(workloads.SWEEP_STEPS),
                    "--format", "records",
                ]))
    return outputs


def groups() -> dict[str, list[str]]:
    random_config = _random_config()
    rng = random.Random(RANDOM_SEED)
    draws = [random_config(rng) for _ in range(RANDOM_DRAWS)]
    return {
        "generator": [_outcome(case) for case in workloads.generator_cases()],
        "grid": [_outcome(case) for case in workloads.grid_cases()],
        "random_configs": [_outcome(config, oracle_check=True) for config in draws],
        "presets": [
            _cli(["replicate", "--preset", name, "--oracle-check"]) for name in sorted(PRESETS)
        ],
        "table1": [_cli(["table1"])],
        "records": _records(),
    }


def main() -> None:
    outputs = groups()
    for name, lines in outputs.items():
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        print(f"{name:<15} {len(lines):>5} {digest}")
    cases = {"grid": workloads.grid_cases(), "generator": workloads.generator_cases()}
    for name, group in cases.items():
        for k in reversed(range(len(group))):
            if _outcome(group[k]) != outputs[name][k]:
                sys.exit(f"{name} case {workloads.case_key(group[k])}: its outcome differs "
                         "when the cases run in reverse order")


if __name__ == "__main__":
    main()
