"""faultlab benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ./src. Each
run is one process with one thread and a closed loop: the next op starts
when the previous one returns. Whole passes of the workload (see
workloads.py) run until --seconds have elapsed. Every output is checked
against reference/*.json. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines above it list each
metric with its unit and sample count.

--trace 0 reports the end-to-end metrics:
  setup_s          import faultlab + generate the configs, median of
                   SETUP_PROBES fresh interpreters
  scenarios_per_s  scenarios delivered / summed op time
  op_ms_p50/p90    op latency; an op is one CLI call or one build+run
  solved_share     ops that delivered correct results / ops attempted
  peak_rss_mb      peak resident set of this process
Every time above is scaled to a reference host speed by calibrate.Gauge,
which times a fixed kernel between blocks of about GAUGE_BLOCK_S of ops.
--trace 1 runs TRACE_PASSES passes, every op once untraced and once traced
(in blocks of about TRACE_BLOCK_S, each next to its copy), and reports the
per-layer metrics from the traced copies; spans are written to
out/spans-<workload>.jsonl.

`failed` counts ops whose output disagrees with the reference. A solver
failure on a case that also failed in the reference reproduces the
reference; it lowers solved_share but is not a failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from perfbench.calibrate import Gauge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

sys.path.insert(0, str(ROOT))  # import this directory as a package when run as a script
from perfbench import check  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 11
TRACE_BLOCK_S = 0.25
GAUGE_BLOCK_S = 0.15  # op time between two gauge readings
# one sweep pass takes about 17 s, and a median of one pass is too noisy
MIN_PASSES = {"sweep": 2}
TRACE_PASSES = {"replicate": 6, "sweep": 1, "grid": 3, "generator": 4}

clock = time.perf_counter


@dataclass(frozen=True)
class Result:
    seconds: float
    scenarios: int
    solved: bool
    problems: tuple[str, ...]


@dataclass
class Tally:
    """Counts over every op of a run, so that per-op results need not be kept."""

    attempted: int = 0
    failed: int = 0  # ops whose output disagrees with the reference
    solved: int = 0
    solver_failures: int = 0  # failures that reproduce the reference
    expected_failures: int = 0  # ops that fail in the reference
    problems: list[str] = field(default_factory=list)

    def add(self, results: list[Result], expected_failures: int) -> None:
        self.attempted += len(results)
        self.expected_failures += expected_failures
        for r in results:
            self.solved += r.solved
            self.failed += bool(r.problems)
            self.solver_failures += not r.solved and not r.problems
            self.problems += r.problems[: 20 - len(self.problems)]


class Runner:
    """Executes ops against the imported package and checks every output."""

    def __init__(self, workload: Workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.cli = importlib.import_module("faultlab.cli")
        self.scenario = importlib.import_module("faultlab.scenario")
        self.harness = importlib.import_module("faultlab.harness")

    def run(self, op) -> Result:
        return self._run_cli(op) if op.is_cli else self._run_lib(op)

    def _run_lib(self, op) -> Result:
        overrides = dict(op.overrides)
        report = None
        start = clock()
        try:
            # looked up at call time so that a tracer's wrappers are seen
            scenario = self.scenario.build_scenario(overrides, scenario_id=self.workload.name)
            report = self.harness.run_scenario(scenario)
            outcome = check.OK
        except Exception as exc:  # every failure is classified by check_case
            outcome = type(exc).__name__
        seconds = clock() - start
        fields = None
        if report is not None:
            fields = {name: getattr(report, name) for name in (*check.VERDICTS, "residual")}
        ref = self.reference["cases"][op.key]
        problems = check.check_case(outcome, fields, ref, self.reference["solver_tol"])
        solved = outcome == check.OK and not problems
        return Result(seconds, int(outcome == check.OK), solved, tuple(problems))

    def _run_cli(self, op) -> Result:
        out = self.workload.out
        out.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = clock()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not a stop
                code = f"uncaught {type(exc).__name__}: {exc}"
            seconds = clock() - start
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        try:
            scenarios, problems = self._check_cli(op, code, text)
        except (ValueError, KeyError, IndexError) as exc:
            scenarios, problems = 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
        return Result(seconds, scenarios, code == 0 and not problems, tuple(problems))

    def _check_cli(self, op, code, text: str) -> tuple[int, list[str]]:
        ref = self.reference
        if self.workload.name == "sweep":
            return check.check_sweep(code, text, ref["calls"][op.key])
        if code != 0:
            return 0, [f"exit {code}"]
        if op.key == "table1":
            return ref["table1_scenarios"], check.check_table1(text, ref["table1"])
        return 1, check.check_csv(text, ref["presets"][op.key], ref["solver_tol"])

    def run_pass(self, ops, tally: Tally, gauge: Gauge | None = None) -> list[Result]:
        results = [self.run(op) for op in ops] if gauge is None else self._gauged(ops, gauge)
        tally.add(results, self.expected_solver_failures(ops))
        return results

    def _gauged(self, ops, gauge: Gauge) -> list[Result]:
        """Run `ops` in blocks of about GAUGE_BLOCK_S, each block's times
        scaled to the reference speed by the gauge readings around it."""
        results: list[Result] = []
        block: list[Result] = []
        for k, op in enumerate(ops):
            block.append(self.run(op))
            if k == len(ops) - 1 or sum(r.seconds for r in block) >= GAUGE_BLOCK_S:
                scaled = gauge.scale([r.seconds for r in block])
                results += [replace(r, seconds=s) for r, s in zip(block, scaled)]
                block = []
        return results

    def expected_solver_failures(self, ops) -> int:
        """Ops that fail in the reference too."""
        if self.workload.name == "replicate":
            return 0
        if self.workload.name == "sweep":
            calls = self.reference["calls"]
            return sum(any(p[1] != check.OK for p in calls[op.key]["points"]) for op in ops)
        return sum(self.reference["cases"][op.key][0] != check.OK for op in ops)


def _op_seconds(runner: Runner, tracer, ops, traced: bool, tally: Tally) -> float:
    """Summed op time of `ops`, run with or without the tracer installed."""
    with tracer.installed() if traced else contextlib.nullcontext():
        return sum(r.seconds for r in runner.run_pass(ops, tally))


def _load_reference(workload: str) -> dict:
    with (REFERENCE_DIR / f"{workload}.json").open(encoding="utf-8") as f:
        return json.load(f)


def _timed_setup(workload: str, seed: int, workdir: Path, presets: list[str]):
    """Import the package and generate the workload's configs."""
    start = clock()
    for module in ("faultlab", "faultlab.cli", "faultlab.harness", "faultlab.scenario"):
        importlib.import_module(module)
    wl = Workload(workload, seed, workdir, presets)
    wl.pass_ops(0)
    return clock() - start, wl


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, **THREAD_ENV)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _pass_stats(results: list[Result]) -> tuple[float, float, float]:
    """(scenarios per second, p50 and p90 op seconds) of one pass."""
    seconds = [r.seconds for r in results]
    rate = sum(r.scenarios for r in results) / sum(seconds)
    return rate, statistics.median(seconds), _p90(seconds)


def _end_to_end(
    passes: list[tuple[float, float, float]], tally: Tally, setup: list[float]
) -> dict[str, tuple[float, str, int]]:
    """Timing metrics are medians over passes of the per-pass statistic."""
    rate, p50, p90 = (statistics.median(column) for column in zip(*passes))
    ops = tally.attempted
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "scenarios_per_s": (rate, "1/s", len(passes)),
        "op_ms_p50": (p50 * 1e3, "ms", ops),
        "op_ms_p90": (p90 * 1e3, "ms", ops),
        "solved_share": (tally.solved / ops, "share", ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def _per_layer(s: dict, traced_s: float, untraced_s: float, ops: int) -> dict:
    """Per-layer metrics from a Tracer.summary()."""
    build, run = s["scenario.build"], s["harness.run_scenario"]
    pre, fp, sg = s["sources.prefault"], s["sources.fixed_point"], s["sources.sg_fault"]
    fault, linear = s["network.solve_fault"], s["network.solve_linear"]
    relay, oracle = s["relay.eval"], s["abc_oracle.solve"]
    report, cli = s["report.serialize"], s["cli"]
    sources = (pre, fp, sg)

    def errors(name: str) -> int:
        return sum(st.errors.get(name, 0) for st in sources)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ms = 1e3
    return {
        "scenario.build_ms": (build.total_s * ms, "ms", build.calls),
        "scenario.build_calls": (build.calls, "count", build.calls),
        "scenario.builds_per_run": (ratio(build.calls, run.calls), "ratio", run.calls),
        "sources.prefault_ms": (pre.total_s * ms, "ms", pre.calls),
        "sources.newton_iters": (pre.count, "count", pre.calls),
        "sources.fixed_point_ms": (fp.total_s * ms, "ms", fp.calls),
        "sources.fixed_point_self_ms": (fp.self_s * ms, "ms", fp.calls),
        "sources.fixed_point_calls": (fp.calls, "count", fp.calls),
        "sources.fixed_point_iters": (fp.count, "count", fp.calls),
        "sources.fixed_point_us_per_iter": (ratio(fp.ok_s * 1e6, fp.count), "us", fp.count),
        "sources.no_convergence": (errors("NoConvergenceError"), "count", fp.calls + pre.calls),
        "sources.oscillation": (errors("OscillationDetectedError"), "count", fp.calls),
        "sources.sg_fault_ms": (sg.total_s * ms, "ms", sg.calls),
        "network.solve_fault_calls": (fault.calls, "count", fault.calls),
        "network.solve_fault_ms": (fault.total_s * ms, "ms", fault.calls),
        "network.solve_linear_calls": (linear.calls, "count", linear.calls),
        "network.solve_linear_ms": (linear.total_s * ms, "ms", linear.calls),
        "network.linear_per_fault": (
            ratio(fault.children.get("network.solve_linear", 0), fault.calls), "ratio", fault.calls
        ),
        "harness.run_scenario_ms": (run.total_s * ms, "ms", run.calls),
        "harness.self_ms": (run.self_s * ms, "ms", run.calls),
        "harness.prefault_readings_ms": (
            s["harness.prefault_readings"].total_s * ms, "ms", s["harness.prefault_readings"].calls
        ),
        "relay.eval_ms": (relay.total_s * ms, "ms", relay.calls),
        "relay.calls": (relay.calls, "count", relay.calls),
        "abc_oracle.solve_ms": (oracle.total_s * ms, "ms", oracle.calls),
        "abc_oracle.calls": (oracle.calls, "count", oracle.calls),
        "report.serialize_ms": (report.total_s * ms, "ms", report.calls),
        "report.lines": (report.calls, "count", report.calls),
        "cli.self_ms": (cli.self_s * ms, "ms", cli.calls),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio", ops),
    }


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="faultlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "faultlab" / "__init__.py").is_file():
        print(f"perfbench: no faultlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    args = _parse_args(argv)

    reference = _load_reference(args.workload)
    presets = sorted(reference.get("presets", {}))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setup_s, workload = _timed_setup(args.workload, args.seed, Path(tmp), presets)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return _measure(args, workload, reference)


def _end_to_end_run(args: argparse.Namespace, runner: Runner, tally: Tally) -> dict:
    # imported here because it loads NumPy, which a set-up probe must time
    from perfbench.calibrate import REFERENCE_S, Gauge

    gauge = Gauge()
    setup: list[float] = []
    passes = []
    measured = 0.0  # wall time of the passes, probes excluded
    while True:
        # spread the set-up probes over the run, so that their median sees the
        # same machine as the passes
        while len(setup) < SETUP_PROBES * min(1.0, measured / args.seconds):
            setup += gauge.scale([_setup_probe(args.workload, args.seed)])
        began = clock()
        ops = runner.workload.pass_ops(len(passes))
        passes.append(_pass_stats(runner.run_pass(ops, tally, gauge)))
        last = clock() - began
        measured += last
        # stop at the whole number of passes nearest to --seconds
        if len(passes) >= MIN_PASSES.get(args.workload, 1) and measured + last / 2 >= args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup += gauge.scale([_setup_probe(args.workload, args.seed)])
    kernel = statistics.median(gauge.readings)
    print(f"  gauge: {len(gauge.readings)} readings, median {kernel * 1e3:.3f} ms "
          f"(reference {REFERENCE_S * 1e3:.3f} ms): host at {REFERENCE_S / kernel:.2f}x "
          "the reference speed")
    return _end_to_end(passes, tally, setup)


def _traced_run(args: argparse.Namespace, runner: Runner, tally: Tally) -> dict:
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}  # op time, by traced
    blocks = traced_ops = 0
    for k in range(TRACE_PASSES[args.workload]):
        ops = runner.workload.pass_ops(k)
        while ops:
            # pair each short block of ops with its copy, so that both see the
            # same machine, and alternate which copy goes first
            first = blocks % 2 == 1
            block: list = []
            spent = 0.0
            while ops and spent < TRACE_BLOCK_S:
                block.append(ops.pop(0))
                spent += _op_seconds(runner, tracer, block[-1:], first, tally)
            seconds[first] += spent
            seconds[not first] += _op_seconds(runner, tracer, block, not first, tally)
            blocks += 1
            traced_ops += len(block)
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}.jsonl")
    stats = tracer.summary()
    run_s = stats["harness.run_scenario"].total_s
    if run_s:
        share = stats["sources.fixed_point"].total_s / run_s
        print(f"  sources.fixed_point share of harness.run_scenario: {share:.3f}")
    if tracer.absent:
        print(f"  absent layers: {', '.join(tracer.absent)}")
    return _per_layer(stats, seconds[True], seconds[False], traced_ops)


def _measure(args: argparse.Namespace, workload: Workload, reference: dict) -> int:
    runner = Runner(workload, reference)
    warmup_ops = workload.pass_ops(0)[:1]
    warmup = [runner.run(op) for op in warmup_ops]  # untimed; checked only
    tally = Tally()
    start = clock()
    if args.trace == 0:
        metrics = _end_to_end_run(args, runner, tally)
    else:
        metrics = _traced_run(args, runner, tally)
    wall = clock() - start
    tally.add(warmup, runner.expected_solver_failures(warmup_ops))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{tally.attempted} ops in {wall:.2f} s; {tally.failed} failed checks; "
        f"solver failures {tally.solver_failures} (reference {tally.expected_failures})"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={samples}")
    for problem in tally.problems:
        print(f"  mismatch: {problem}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
