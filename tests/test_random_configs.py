"""Seeded random configs through the CLI.

Each config must end in exactly one of three outcomes: exit 0; exit 1 with
"solver error:"; exit 2 with "config error:". A traceback fails the test.
The configs mix source kinds, limiting laws, faults and placements, and
push one to three numeric keys to 0, -1, 1e-12 or a thousand times their
default.
"""

from __future__ import annotations

import random
from collections import Counter

from faultlab.cli import main
from faultlab.scenario import DEFAULTS

SEED = 4
CASES = 200

CLC_KINDS = (
    "circular",
    "priority",
    "instantaneous",
    "virtual_admittance",
    "adaptive_virtual_impedance",
)
FAULT_KINDS = ("ag", "bg", "cg", "ab", "bc", "ca", "abg", "bcg", "cag", "abc")
NUMERIC_KEYS = tuple(key for key, (value, _) in DEFAULTS.items() if isinstance(value, float))
EXTREMES = (0.0, -1.0, 1e-12, "x1e3")
PREFIX = {0: "", 1: "solver error: ", 2: "config error: "}


def random_config(rng: random.Random) -> dict[str, object]:
    config: dict[str, object] = {
        "source.kind": rng.choice(("sg", "gfm")),
        "clc.kind": rng.choice(CLC_KINDS),
        "fault.kind": rng.choice(FAULT_KINDS),
        "fault.placement": rng.choice(("forward", "reverse")),
        "fault.m": rng.choice((0.0, 0.05, 0.5, 0.95, 1.0)),
        "fault.r_g_ohm": rng.choice((0.0, 5.0, 30.0, 100.0)),
        "source.p_ref": rng.choice((0.0, 0.5, 1.0)),
    }
    for key in rng.sample(NUMERIC_KEYS, rng.randint(1, 3)):
        extreme = rng.choice(EXTREMES)
        config[key] = 1e3 * DEFAULTS[key][0] if extreme == "x1e3" else extreme
    return config


def test_random_configs_end_in_one_of_three_outcomes(tmp_path, capsys) -> None:
    rng = random.Random(SEED)
    outcomes: Counter[int] = Counter()
    for case in range(CASES):
        config = random_config(rng)
        path = tmp_path / f"case{case}.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        code = main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert code in PREFIX, (config, code)
        assert err.startswith(PREFIX[code]) and (code != 0 or not err), (config, err)
        outcomes[code] += 1
    # the mix reaches every outcome, so none of the three goes unchecked
    assert set(outcomes) == set(PREFIX), outcomes
