"""Named study presets.

Each preset is a set of overrides on the scenario defaults reproducing one
documented study point: the generator baselines, the saturation-strategy
comparisons, the weak/strong inductive shaping pair, the resistive
single-phase case that defeats the incremental element, and the two
three-strategy sweeps behind the reliability matrix. Preset names are part
of the CLI contract.

`table1` is special: replicating it runs the full strategy-by-element
reliability matrix rather than a single scenario.
"""

from __future__ import annotations

from .records import Record

__all__ = ["Preset", "PRESETS", "TABLE1_PRESET", "preset_scenario_overrides"]


class Preset(Record):
    name: str
    description: str
    overrides: dict[str, object]


TABLE1_PRESET = "table1"

_BOLTED_MID_BCG = {
    "fault.kind": "bcg",
    "fault.m": 0.5,
    "fault.r_g_ohm": 0.0,
    "fault.placement": "forward",
}
_RESISTIVE_CLOSE_AG = {
    "fault.kind": "ag",
    "fault.m": 0.01,
    "fault.placement": "forward",
}

PRESETS: dict[str, Preset] = {
    preset.name: preset
    for preset in (
        Preset(
            "sg-baseline-fwd",
            "generator source, bolted bcg at midline ahead of relay 1",
            {"source.kind": "sg", **_BOLTED_MID_BCG},
        ),
        Preset(
            "sg-baseline-rev",
            "generator source, bolted bcg behind relay 1 on the collection line",
            {"source.kind": "sg", **_BOLTED_MID_BCG, "fault.placement": "reverse"},
        ),
        Preset(
            "fig12-circular",
            "circular reference saturation, bolted ag at midline",
            {"source.kind": "gfm", "clc.kind": "circular", "fault.kind": "ag", "fault.m": 0.5},
        ),
        Preset(
            "fig12-priority",
            "d-axis priority saturation, bolted ag at midline",
            {"source.kind": "gfm", "clc.kind": "priority", "fault.kind": "ag", "fault.m": 0.5},
        ),
        Preset(
            "fig12-instantaneous",
            "per-phase instantaneous clipping, bolted ag at midline",
            {
                "source.kind": "gfm",
                "clc.kind": "instantaneous",
                "fault.kind": "ag",
                "fault.m": 0.5,
            },
        ),
        Preset(
            "fig13a",
            "adaptive virtual impedance shaped almost resistive (X/R = 0.1), bolted bcg",
            {
                "source.kind": "gfm",
                "clc.kind": "adaptive_virtual_impedance",
                "clc.n_x_r": 0.1,
                "source.p_ref": 0.3,
                **_BOLTED_MID_BCG,
            },
        ),
        Preset(
            "fig13b",
            "adaptive virtual impedance shaped inductive (X/R = 20), bolted bcg",
            {
                "source.kind": "gfm",
                "clc.kind": "adaptive_virtual_impedance",
                "clc.n_x_r": 20.0,
                "source.p_ref": 0.3,
                **_BOLTED_MID_BCG,
            },
        ),
        Preset(
            "fig14",
            "inductive adaptive shaping, close-in ag through 30 ohm: the incremental "
            "element sees the control response, not an impedance",
            {
                "source.kind": "gfm",
                "clc.kind": "adaptive_virtual_impedance",
                "clc.n_x_r": 20.0,
                **_RESISTIVE_CLOSE_AG,
                "fault.r_g_ohm": 30.0,
            },
        ),
        Preset(
            "fig16a",
            "circular saturation, bolted bcg at midline",
            {"source.kind": "gfm", "clc.kind": "circular", **_BOLTED_MID_BCG},
        ),
        Preset(
            "fig16b",
            "inductive virtual admittance (X/R = 20), bolted bcg at midline",
            {
                "source.kind": "gfm",
                "clc.kind": "virtual_admittance",
                "clc.n_x_r": 20.0,
                **_BOLTED_MID_BCG,
            },
        ),
        Preset(
            "fig16c",
            "inductive adaptive virtual impedance (X/R = 20), bolted bcg at midline",
            {
                "source.kind": "gfm",
                "clc.kind": "adaptive_virtual_impedance",
                "clc.n_x_r": 20.0,
                **_BOLTED_MID_BCG,
            },
        ),
        Preset(
            "fig17a",
            "circular saturation, close-in ag through 20 ohm",
            {
                "source.kind": "gfm",
                "clc.kind": "circular",
                **_RESISTIVE_CLOSE_AG,
                "fault.r_g_ohm": 20.0,
            },
        ),
        Preset(
            "fig17b",
            "inductive virtual admittance (X/R = 20), close-in ag through 20 ohm",
            {
                "source.kind": "gfm",
                "clc.kind": "virtual_admittance",
                "clc.n_x_r": 20.0,
                **_RESISTIVE_CLOSE_AG,
                "fault.r_g_ohm": 20.0,
            },
        ),
        Preset(
            "fig17c",
            "inductive adaptive virtual impedance (X/R = 20), close-in ag through 20 ohm",
            {
                "source.kind": "gfm",
                "clc.kind": "adaptive_virtual_impedance",
                "clc.n_x_r": 20.0,
                **_RESISTIVE_CLOSE_AG,
                "fault.r_g_ohm": 20.0,
            },
        ),
    )
}


def preset_scenario_overrides(name: str) -> dict[str, object]:
    """Overrides for a named preset; KeyError message lists valid names."""
    if name not in PRESETS:
        valid = ", ".join(sorted([*PRESETS, TABLE1_PRESET]))
        raise KeyError(f"unknown preset {name!r}; valid presets: {valid}")
    return dict(PRESETS[name].overrides)
