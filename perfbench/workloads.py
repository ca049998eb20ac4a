"""Seeded workload inputs. Pure stdlib: nothing here imports faultlab.

A workload is a stream of passes; a pass is a list of ops. An op is one CLI
call (`replicate`, `sweep`) or one build+run through the library (`grid`,
`generator`). The seed fixes every pass, so the same seed gives the same
inputs, and the counts a pass produces repeat exactly.

* replicate: the 14 presets with `--oracle-check`, then `table1`; each pass
  is the same 15 calls in a seeded order.
* sweep: every source (sg + the five `clc.kind`s) x {ag, bcg}, swept along
  `fault.m` and along the relay-only `relay.phi_non_deg`; each pass is the
  same 24 calls in a seeded order.
* grid: the 3000-case converter grid, drawn without replacement. A pass
  takes the same number of cases from every (law, fault type) stratum, so
  passes differ in their cases but not in their mix, and runs in a seeded
  random order. After every case has been drawn once, the draw restarts
  with a fresh permutation.
* generator: the 1200-case generator grid, drawn the same way with (fault
  type, placement, p_ref) strata.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("replicate", "sweep", "grid", "generator")

CLC_KINDS = (
    "circular",
    "priority",
    "instantaneous",
    "virtual_admittance",
    "adaptive_virtual_impedance",
)
FAULT_KINDS = ("ag", "bg", "cg", "ab", "bc", "ca", "abg", "bcg", "cag", "abc")
FAULT_M = (0.0, 0.05, 0.5, 0.95, 1.0)
R_G_OHM = (0.0, 5.0, 30.0, 100.0)
P_REF = (0.0, 0.5, 1.0)
PLACEMENTS = ("forward", "reverse")

GRID_PASS = 100
GENERATOR_PASS = 300
# keys whose values the cost of a case depends on most
STRATA = {
    "grid": ("clc.kind", "fault.kind"),
    "generator": ("fault.kind", "fault.placement", "source.p_ref"),
}

SWEEP_SOURCES = (("sg", None),) + tuple(("gfm", kind) for kind in CLC_KINDS)
SWEEP_FAULTS = ("ag", "bcg")
# (key, from, to); the relay key stays inside its valid range [30, 60]
SWEEP_AXES = (("fault.m", 0.05, 0.95), ("relay.phi_non_deg", 30.0, 60.0))
SWEEP_STEPS = 25

TABLE1 = "table1"


@dataclass(frozen=True)
class Op:
    """One timed call. `key` names its reference entry."""

    key: str
    argv: tuple[str, ...] = ()  # CLI ops
    overrides: tuple[tuple[str, object], ...] = ()  # library ops

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


def case_key(overrides: dict[str, object]) -> str:
    return "|".join(f"{k}={overrides[k]!r}" for k in sorted(overrides))


def grid_cases() -> list[dict[str, object]]:
    """The 3000-case converter grid: law x fault x m x R_g x p_ref."""
    return [
        {
            "source.kind": "gfm",
            "clc.kind": law,
            "fault.kind": fault,
            "fault.m": m,
            "fault.r_g_ohm": r_g,
            "source.p_ref": p_ref,
        }
        for law, fault, m, r_g, p_ref in itertools.product(
            CLC_KINDS, FAULT_KINDS, FAULT_M, R_G_OHM, P_REF
        )
    ]


def generator_cases() -> list[dict[str, object]]:
    """The 1200-case generator grid: fault x placement x m x R_g x p_ref."""
    return [
        {
            "source.kind": "sg",
            "fault.kind": fault,
            "fault.placement": placement,
            "fault.m": m,
            "fault.r_g_ohm": r_g,
            "source.p_ref": p_ref,
        }
        for fault, placement, m, r_g, p_ref in itertools.product(
            FAULT_KINDS, PLACEMENTS, FAULT_M, R_G_OHM, P_REF
        )
    ]


def sweep_configs() -> dict[str, dict[str, object]]:
    """Config name -> overrides for the twelve swept configs."""
    configs: dict[str, dict[str, object]] = {}
    for source, kind in SWEEP_SOURCES:
        for fault in SWEEP_FAULTS:
            overrides: dict[str, object] = {"source.kind": source, "fault.kind": fault}
            if kind is not None:
                overrides["clc.kind"] = kind
            configs[f"{kind or source}-{fault}"] = overrides
    return configs


def sweep_values(start: float, stop: float, steps: int) -> list[float]:
    """The points `faultlab sweep` visits: linear, endpoints taken verbatim."""
    if steps == 1:
        return [start]
    inner = [start + k / (steps - 1) * (stop - start) for k in range(1, steps - 1)]
    return [start, *inner, stop]


def sweep_key(config: str, param: str) -> str:
    return f"{config}:{param}"


def _shuffled(items: list, seed: int, salt: str) -> list:
    rng = random.Random(f"{salt}:{seed}")
    return rng.sample(items, len(items))


class Workload:
    """Seeded pass generator for one workload."""

    def __init__(self, name: str, seed: int, workdir: Path, presets: list[str]) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.out = workdir / "out.txt"
        self._fixed: list[Op] = []
        self._strata: list[list[dict[str, object]]] = []
        if name == "replicate":
            self._fixed = [
                Op(preset, ("replicate", "--preset", preset, "--oracle-check",
                            "--output", str(self.out)))
                for preset in presets
            ]
            self._fixed.append(Op(TABLE1, (TABLE1, "--output", str(self.out))))
        elif name == "sweep":
            for config, overrides in sweep_configs().items():
                path = workdir / f"{config}.cfg"
                path.write_text(
                    "".join(f"{k} = {v}\n" for k, v in overrides.items()), encoding="utf-8"
                )
                for param, start, stop in SWEEP_AXES:
                    argv = (
                        "sweep", "--config", str(path), "--param", param,
                        "--from", repr(start), "--to", repr(stop),
                        "--steps", str(SWEEP_STEPS),
                        "--format", "records", "--output", str(self.out),
                    )
                    self._fixed.append(Op(sweep_key(config, param), argv))
        else:
            cases = grid_cases() if name == "grid" else generator_cases()
            strata: dict[tuple, list[dict[str, object]]] = {}
            for case in cases:
                strata.setdefault(tuple(case[k] for k in STRATA[name]), []).append(case)
            self._strata = list(strata.values())

    def pass_ops(self, k: int) -> list[Op]:
        """The ops of pass k; the same (seed, k) always gives the same list."""
        if self._fixed:
            return _shuffled(self._fixed, self.seed, f"{self.name}:{k}")
        size = GRID_PASS if self.name == "grid" else GENERATOR_PASS
        take = size // len(self._strata)
        cycle, part = divmod(k, len(self._strata[0]) // take)
        cases = []
        for index, stratum in enumerate(self._strata):
            order = _shuffled(stratum, self.seed, f"{self.name}:{index}:{cycle}")
            cases += order[part * take:(part + 1) * take]
        return [
            Op(case_key(c), overrides=tuple(c.items()))
            for c in _shuffled(cases, self.seed, f"{self.name}:pass{k}")
        ]
