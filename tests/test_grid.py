"""The case grids and the presets against the benchmark's reference results.

The converter grid is 5 laws x 10 fault types x m in {0, .05, .5, .95, 1} x
R_g in {0, 5, 30, 100} ohm x p_ref in {0, .5, 1}: 3000 forward faults at the
default solver budget. The generator grid is 10 fault types x 2 placements
x the same m, R_g and p_ref: 1200 cases. Every case must keep its reference
outcome and relay verdicts (perfbench/check.py states the rules), and each
preset's `replicate --oracle-check` CSV row must match its reference row.
The converter grid's failures are bounded by their measured count, and its
iterations, summed over the solved cases of each law, are the measured
counts, as are the limiter calls and derivative builds of its two driver
laws. Each grid runs with the memos
cold, and what they hold after it is pinned, below their bounds.
The checker and the cases are read from perfbench by path. The same cases
and the seeded random configs also pin `config_hash` to the formula it was
first defined by. Takes about 10 s.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from faultlab import network
from faultlab import scenario as scenario_module
from faultlab import sources
from faultlab.harness import run_scenario
from faultlab.network import SingularNetworkError
from faultlab.report import csv_header, csv_line
from faultlab.scenario import ConfigError, _clear_memos, _format_value, build_scenario
from faultlab.sources import NoConvergenceError, OscillationDetectedError
from test_random_configs import SEED, random_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# measured failures of the whole grid; this bound may only go down
MAX_FAILURES = 3
# measured iterations summed over the solved grid cases; may only go down
MAX_GRID_ITERATIONS = 24079
# the same, per law (measured): a change of root finder, start point or
# step rule moves them, a faster evaluation of the same law does not
GRID_ITERATIONS = {
    "circular": 4146,
    "priority": 4159,
    "instantaneous": 3460,
    "virtual_admittance": 4584,
    "adaptive_virtual_impedance": 7730,
}
# the driver laws' limiter calls and the derivative builds among them over
# their grid cases (measured); the README states them
DRIVER_LAW_CALLS = {"priority": (6121, 3859), "instantaneous": (3651, 2860)}
# what the memos hold after each grid, run cold: the network objects, and
# what `network._shared` made on them by kind (measured)
GRID_MEMOS = (5, {"build": 15, "dispatch": 45, "port": 200, "elements": 5})
GENERATOR_MEMOS = (10, {"build": 100, "dispatch": 30, "source": 30, "elements": 40})


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


check = _perfbench_module("check")
workloads = _perfbench_module("workloads")


def _reference(name: str) -> dict:
    return json.loads((PERFBENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))


def _run_against_reference(
    name: str, cases: list[dict[str, object]]
) -> tuple[Counter, Counter, tuple[int, dict[str, int]]]:
    """Run every case with the memos cold, assert none mismatches its reference.

    Returns the failures by law and outcome, the iterations summed over
    the solved cases by law, and what the memos hold after the run
    (`_memos`).
    """
    _clear_memos()
    reference = _reference(name)["cases"]
    failures: Counter[tuple[str, str]] = Counter()
    iterations: Counter[str] = Counter()
    problems: dict[str, list[str]] = {}
    for case in cases:
        scenario = build_scenario(case)
        try:
            report = run_scenario(scenario)
        except (NoConvergenceError, OscillationDetectedError, SingularNetworkError) as exc:
            outcome, fields = type(exc).__name__, None
            failures[(str(case.get("clc.kind", "sg")), outcome)] += 1
        else:
            outcome = check.OK
            fields = {key: getattr(report, key) for key in (*check.VERDICTS, "residual")}
            iterations[str(case.get("clc.kind", "sg"))] += report.iterations
        key = workloads.case_key(case)
        found = check.check_case(outcome, fields, reference[key], scenario.solver.tol)
        if found:
            problems[key] = found
    assert not problems, problems
    return failures, iterations, _memos()


def _memos() -> tuple[int, dict[str, int]]:
    """The network objects held, and the `network._shared` entries by kind."""
    kinds = Counter(
        "build" if isinstance(what, int) else what if isinstance(what, str) else what[0]
        for _, what in network._SHARED
    )
    return len(scenario_module._NETWORKS), dict(kinds)


def _assert_nothing_evicted(memos: tuple[int, dict[str, int]]) -> None:
    networks, shared = memos
    assert networks < scenario_module._NETWORKS_BOUND
    assert sum(shared.values()) < network._SHARED_BOUND


@pytest.fixture(scope="module")
def grid_run() -> tuple[Counter, Counter, tuple[int, dict[str, int]]]:
    return _run_against_reference("grid", workloads.grid_cases())


def test_grid_converges_outside_a_few_priority_cases(grid_run) -> None:
    failures, _, _ = grid_run
    assert {kind for kind, _ in failures} <= {"priority"}, failures
    assert sum(failures.values()) <= MAX_FAILURES, failures


def test_grid_iterations_stay_within_the_measured_total(grid_run) -> None:
    _, iterations, _ = grid_run
    assert sum(iterations.values()) <= MAX_GRID_ITERATIONS


def test_grid_iterations_per_law_are_the_measured_counts(grid_run) -> None:
    _, iterations, _ = grid_run
    assert dict(iterations) == GRID_ITERATIONS
    assert sum(GRID_ITERATIONS.values()) == MAX_GRID_ITERATIONS


def test_driver_laws_build_their_derivative_only_where_newton_steps(monkeypatch) -> None:
    """Every evaluation of a driver law is one limiter call and returns its
    derivative unbuilt; the driver builds it only at a point it takes a
    Newton step from, and the solved state reads the law's output from the
    last iteration. Counted over the `priority` and `instantaneous` grid
    cases."""
    real = sources.saturation_law
    counts = {kind: [0, 0] for kind in DRIVER_LAW_CALLS}

    def counting(cfg, theta, loop=None):
        law, count = real(cfg, theta, loop), counts[cfg.kind.value]

        def counted(i1, i2):
            count[0] += 1
            out1, out2, derivative = law(i1, i2)

            def built():
                count[1] += 1
                return derivative()

            return out1, out2, built

        return counted

    monkeypatch.setattr(sources, "saturation_law", counting)
    _clear_memos()
    for case in workloads.grid_cases():
        if case["clc.kind"] in counts:
            _outcome(case)
    assert {kind: tuple(count) for kind, count in counts.items()} == DRIVER_LAW_CALLS
    calls, builds = (sum(pair) for pair in zip(*DRIVER_LAW_CALLS.values()))
    assert (calls, builds) == (9772, 6719)


def test_grid_memos_hold_its_few_networks_and_evict_nothing(grid_run) -> None:
    _, _, memos = grid_run
    assert memos == GRID_MEMOS
    _assert_nothing_evicted(memos)


def test_generator_grid_matches_the_reference() -> None:
    failures, _, memos = _run_against_reference("generator", workloads.generator_cases())
    assert not failures, failures
    assert memos == GENERATOR_MEMOS
    _assert_nothing_evicted(memos)


def _outcome(case: dict[str, object]) -> str:
    try:
        return repr(run_scenario(build_scenario(case)))
    except (NoConvergenceError, OscillationDetectedError, SingularNetworkError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_reports_are_the_same_with_the_build_memo_cold_or_warm(monkeypatch) -> None:
    """Every scenario of an equal circuit holds one network object, and its
    builds, dispatches and faulted ports are made once and shared by every
    caller: a caller that mutated one would change a later case's report.
    A fixed sample of both grids, each case solved with every memo cleared,
    then all of them again with the memos warm, which make fewer builds than
    there are cases."""
    cases = workloads.grid_cases()[::50] + workloads.generator_cases()[::20]
    cold = []
    for case in cases:
        _clear_memos()
        cold.append(_outcome(case))
    built = []
    real = network._solve_stamped

    def counting(net, seq):
        built.append(seq)
        return real(net, seq)

    monkeypatch.setattr(network, "_solve_stamped", counting)
    warm = [_outcome(case) for case in cases]
    assert len(built) < len(cases)
    for case, mine, theirs in zip(cases, warm, cold):
        assert mine == theirs, case


def test_preset_csv_rows_match_the_reference(preset_reports) -> None:
    reference = _reference("replicate")["presets"]
    assert set(reference) == set(preset_reports)
    problems = {}
    for name, (scenario, report) in preset_reports.items():
        text = f"{csv_header()}\n{csv_line(report)}\n"
        found = check.check_csv(text, reference[name], scenario.solver.tol)
        if found:
            problems[name] = found
    assert not problems, problems


def _reference_hash(resolved: dict[str, object]) -> str:
    """The config hash as first defined: every line formatted, sorted by key."""
    text = "\n".join(f"{k}={_format_value(v)}" for k, v in sorted(resolved.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def test_config_hash_equals_the_reference_formula() -> None:
    rng = random.Random(SEED)
    configs = workloads.grid_cases() + workloads.generator_cases()
    configs += [random_config(rng) for _ in range(1500)]
    hashed = 0
    for config in configs:
        try:
            scenario = build_scenario(config)
        except ConfigError:
            continue
        assert scenario.config_hash == _reference_hash(scenario.resolved), config
        hashed += 1
    assert hashed > 4200 + 300
    # an override equal to its default hashes like no override
    same = build_scenario({"source.p_ref": float("1.0")})
    assert same.resolved["source.p_ref"] is not build_scenario({}).resolved["source.p_ref"]
    assert same.config_hash == build_scenario({}).config_hash
