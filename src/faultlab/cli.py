"""Command-line interface.

Subcommands:

    run           execute one scenario from a config file
    replicate     execute a named preset (table1 renders the matrix)
    sweep         re-run a config along one numeric parameter axis
    table1        render the strategy-by-element reliability matrix
    list-presets  show the preset catalogue

Only `replicate` and `list-presets` read the preset catalogue, so only
their branches import `faultlab.presets`: `run`, `sweep` and `table1`
start without it.

Exit codes: 0 success, 1 solver failure (no convergence, oscillation,
singular network, a result that cannot be serialized), 2 configuration
error (bad or unreadable config file, key, value, preset, or an output file
that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

from .harness import format_table1, run_scenario, sweep_reports, table1_matrix
from .network import SingularNetworkError
from .report import CSV_COLUMNS, ScenarioReport, csv_header, csv_line, record_line
from .scenario import ConfigError, Scenario, build_scenario, number, parse_config_text
from .sources import NoConvergenceError, OscillationDetectedError

__all__ = ["main"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


_INTEGER = re.compile("[+-]?[0-9]+")


def integer(token: str) -> int:
    """The int that an optional sign and ASCII digits spell; ValueError for any other token.

    `int` also reads `1_0` and digits of other scripts; `scenario.number`
    refuses those in a number too.
    """
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing keeps no state in the parser: each `parse_args` starts from a
    fresh namespace, so one parser serves every `main` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="faultlab",
        description=(
            "phasor-domain short-circuit laboratory for current-limited "
            "grid-forming sources and the relay elements that watch them"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("csv", "records"),
            default="csv",
            help="csv: fixed columns; records: one self-describing JSON object per line",
        )
        p.add_argument("--output", help="write to this file instead of stdout")

    p_run = sub.add_parser("run", help="execute one scenario from a config file")
    p_run.add_argument("--config", required=True, help="flat key = value config file")
    p_run.add_argument(
        "--oracle-check",
        action="store_true",
        help="re-solve the converged state in phase coordinates and report the mismatch",
    )
    add_output_options(p_run)

    p_rep = sub.add_parser("replicate", help="execute a named preset")
    p_rep.add_argument("--preset", required=True, help="preset name (see list-presets)")
    p_rep.add_argument("--oracle-check", action="store_true")
    add_output_options(p_rep)

    p_sweep = sub.add_parser("sweep", help="re-run a config along one parameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument("--from", dest="start", type=number, required=True)
    p_sweep.add_argument("--to", dest="stop", type=number, required=True)
    p_sweep.add_argument("--steps", type=integer, required=True)
    p_sweep.add_argument("--log", action="store_true", help="geometric spacing")
    add_output_options(p_sweep)

    p_table = sub.add_parser("table1", help="render the reliability matrix")
    p_table.add_argument("--output", help="write to this file instead of stdout")

    sub.add_parser("list-presets", help="show the preset catalogue")
    return parser


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {output}: {exc}") from exc


class OutputError(RuntimeError):
    """A result could not be serialized (records refuse nan and inf)."""


def _report_lines(
    pairs: list[tuple[Scenario, ScenarioReport]], fmt: str
) -> list[str]:
    try:
        if fmt == "csv":
            return [csv_header()] + [csv_line(report) for _, report in pairs]
        return [
            record_line(report, scenario.resolved, scenario.provenance)
            for scenario, report in pairs
        ]
    except (ValueError, OverflowError) as exc:
        where = next(filter(None, (_non_finite_column(report) for _, report in pairs)), None)
        detail = str(exc) if where is None else f"{exc}; {where}"
        raise OutputError(f"cannot serialize the results: {detail}") from exc


def _non_finite_column(report: ScenarioReport) -> str | None:
    """`<column> is <value>` for the report's first column holding nan or inf, or None."""
    for name, value in zip(CSV_COLUMNS, report):
        if isinstance(value, float) and not math.isfinite(value):
            return f"{name} is {value}"
    return None


def _load_config(path: str) -> dict[str, object]:
    try:
        # a byte-order mark is not part of the first key
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = _load_config(args.config)
            scenario = build_scenario(overrides, scenario_id=Path(args.config).stem)
            report = run_scenario(scenario, oracle_check=args.oracle_check)
            _emit(_report_lines([(scenario, report)], args.format), args.output)
        elif args.command == "replicate":
            from .presets import TABLE1_PRESET, preset_scenario_overrides

            if args.preset == TABLE1_PRESET:
                if args.format == "records":
                    raise ConfigError(f"preset {TABLE1_PRESET} renders a text matrix, not records")
                _emit([format_table1(table1_matrix())], args.output)
            else:
                try:
                    overrides = preset_scenario_overrides(args.preset)
                except KeyError as exc:
                    raise ConfigError(exc.args[0]) from exc
                scenario = build_scenario(
                    overrides, scenario_id=args.preset, origin=f"preset:{args.preset}"
                )
                report = run_scenario(scenario, oracle_check=args.oracle_check)
                _emit(_report_lines([(scenario, report)], args.format), args.output)
        elif args.command == "sweep":
            pairs = sweep_reports(
                _load_config(args.config),
                param=args.param,
                start=args.start,
                stop=args.stop,
                steps=args.steps,
                log=args.log,
                scenario_id=Path(args.config).stem,
            )
            _emit(_report_lines(list(pairs), args.format), args.output)
        elif args.command == "table1":
            _emit([format_table1(table1_matrix())], args.output)
        else:  # list-presets
            from .presets import PRESETS, TABLE1_PRESET

            lines = [f"{name}: {preset.description}" for name, preset in sorted(PRESETS.items())]
            lines.append(f"{TABLE1_PRESET}: strategy-by-element reliability matrix")
            _emit(lines, None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NoConvergenceError, OscillationDetectedError, SingularNetworkError, OutputError
    ) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
