"""The converter robustness grid: every limiting law across the operating space.

5 laws x 10 fault types x m in {0, .05, .5, .95, 1} x R_g in {0, 5, 30, 100}
ohm x p_ref in {0, .5, 1}: 3000 forward faults at the default solver budget.
Takes about 12 s.
"""

from __future__ import annotations

import itertools
from collections import Counter

from faultlab.harness import run_scenario
from faultlab.scenario import build_scenario
from faultlab.sources import NoConvergenceError, OscillationDetectedError

CLC_KINDS = (
    "circular",
    "priority",
    "instantaneous",
    "virtual_admittance",
    "adaptive_virtual_impedance",
)
FAULT_KINDS = ("ag", "bg", "cg", "ab", "bc", "ca", "abg", "bcg", "cag", "abc")

# measured failures of the whole grid; this bound may only go down
MAX_FAILURES = 3


def test_grid_converges_outside_a_few_priority_cases() -> None:
    failures: Counter[tuple[str, str]] = Counter()
    for kind, fault_kind, m, r_g, p_ref in itertools.product(
        CLC_KINDS, FAULT_KINDS, (0.0, 0.05, 0.5, 0.95, 1.0), (0.0, 5.0, 30.0, 100.0),
        (0.0, 0.5, 1.0),
    ):
        scenario = build_scenario(
            {
                "source.kind": "gfm",
                "clc.kind": kind,
                "fault.kind": fault_kind,
                "fault.m": m,
                "fault.r_g_ohm": r_g,
                "source.p_ref": p_ref,
            }
        )
        try:
            run_scenario(scenario)
        except (NoConvergenceError, OscillationDetectedError) as exc:
            failures[(kind, type(exc).__name__)] += 1
    assert {kind for kind, _ in failures} <= {"priority"}, failures
    assert sum(failures.values()) <= MAX_FAILURES, failures
