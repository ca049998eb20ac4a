from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from faultlab import scenario
from faultlab.clc import ClcKind
from faultlab.harness import run_scenario
from faultlab.network import GROUND, FaultType, Placement
from faultlab.presets import PRESETS, preset_scenario_overrides
from faultlab.scenario import (
    DEFAULTS,
    ParseError,
    Scenario,
    SourceKind,
    ValidationError,
    _clear_memos,
    build_scenario,
    canonical_config_lines,
    parse_config_text,
)
from faultlab.sources import NoConvergenceError, SgModel


def test_parse_comments_blanks_and_coercion() -> None:
    text = """
    # a header comment
    source.kind = gfm   # trailing comment
    fault.m = 0.25
    circuit.voltages_are_peak = false
    gfm.filter_in_network = TRUE

    fault.kind = ag
    """
    parsed = parse_config_text(text)
    assert parsed == {
        "source.kind": "gfm",
        "fault.m": 0.25,
        "circuit.voltages_are_peak": False,
        "gfm.filter_in_network": True,
        "fault.kind": "ag",
    }
    assert isinstance(parsed["fault.m"], float)


@pytest.mark.parametrize(
    ("token", "value"),
    [("1", 1.0), ("-1.5", -1.5), ("+.5", 0.5), ("1.", 1.0), ("1e3", 1000.0), ("2E-3", 0.002)],
)
def test_plain_ascii_decimals_are_numbers(token: str, value: float) -> None:
    parsed = parse_config_text(f"fault.m = {token}")
    assert parsed == {"fault.m": value} and isinstance(parsed["fault.m"], float)


# each of these `float` reads as a number
@pytest.mark.parametrize("token", ["1_2", "\u0661\u0662", "\uff11.5", "\u0967e1"])
def test_any_other_number_spelling_is_text_and_not_a_number(token: str) -> None:
    float(token)
    parsed = parse_config_text(f"clc.i_lim_pu = {token}")
    assert parsed == {"clc.i_lim_pu": token}
    message = f"clc.i_lim_pu must be a number, got {token!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        build_scenario(parsed)


@pytest.mark.parametrize("token", ["inf", "-Infinity", "nan", "+NaN"])
def test_inf_and_nan_are_numbers_rejected_as_not_finite(token: str) -> None:
    parsed = parse_config_text(f"fault.m = {token}")
    assert isinstance(parsed["fault.m"], float)
    with pytest.raises(ValidationError, match="fault.m must be finite"):
        build_scenario(parsed)


@pytest.mark.parametrize(
    "bad",
    [
        "source.kind gfm",  # no separator
        "source.kind =",  # empty value
        "= gfm",  # empty key
        "a = 1\na = 2",  # duplicate
    ],
)
def test_parse_rejects_malformed_lines(bad: str) -> None:
    with pytest.raises(ParseError):
        parse_config_text(bad)


def test_parse_error_reports_the_line_number() -> None:
    with pytest.raises(ParseError, match="line 3"):
        parse_config_text("a = 1\n# fine\nbroken line\n")


def test_empty_document_gives_the_default_study_case() -> None:
    s = build_scenario({})
    assert s.kind is SourceKind.SG
    assert type(s.source) is SgModel and s.source == SgModel(x1=0.2, x2=0.2, x0=0.1)
    assert s.fault.fault_type is FaultType.BCG
    assert s.fault.m == pytest.approx(0.5)
    assert s.fault.r_g_ohm == 0.0
    assert s.fault.placement is Placement.FORWARD
    assert s.solver.tol == pytest.approx(1e-9)
    assert s.solver.max_iter == 100


def test_unknown_keys_are_rejected_by_name() -> None:
    with pytest.raises(ValidationError, match="unknown config keys: fault.depth, zz.top"):
        build_scenario({"zz.top": 1.0, "fault.depth": 2.0})


def test_out_of_range_fault_values_name_the_key() -> None:
    with pytest.raises(ValidationError, match=r"fault\.m"):
        build_scenario({"fault.m": 1.5})
    with pytest.raises(ValidationError, match=r"fault\.r_g_ohm"):
        build_scenario({"fault.r_g_ohm": -3.0})
    with pytest.raises(ValidationError, match=r"fault\.kind"):
        build_scenario({"fault.kind": "abcd"})


def _equal_copy(value: object) -> object:
    """A new object equal to `value`; True and False have no copies."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(repr(value))
    assert isinstance(value, str) and len(value) > 1  # one-character strings are shared
    return "".join(list(value))


# each config group's function in `scenario`, by group
GROUP_FUNCTIONS = {
    "base": "_base_impedance",
    "gfm": "_converter",
    "sg": "_generator",
    "relay": "relay_settings",
    "solver": "_solver",
    "circuit": "_circuit",
}


def _built_parts(monkeypatch, config: dict[str, object]) -> tuple[Scenario, dict[str, object]]:
    """build_scenario(config), and the part each group function it called built."""
    built: dict[str, object] = {}
    for group, name in GROUP_FUNCTIONS.items():

        def spy(*args, build=getattr(scenario, name), group=group):
            built[group] = build(*args)
            return built[group]

        monkeypatch.setattr(scenario, name, spy)
    try:
        return build_scenario(config), built
    finally:
        monkeypatch.undo()


def test_copies_of_the_defaults_are_validated_and_build_the_default_scenario(monkeypatch) -> None:
    # build_scenario skips the checks of a value that is its default object;
    # equal copies are other objects, so they take every check
    copies = {key: _equal_copy(default) for key, (default, _) in DEFAULTS.items()}
    for key, value in copies.items():
        default = DEFAULTS[key][0]
        assert value == default and type(value) is type(default)
        assert value is not default or isinstance(value, bool), key
    copied, default = build_scenario(copies), build_scenario({})
    assert copied.config_hash == default.config_hash
    assert copied.resolved == default.resolved
    # provenance records that every key was supplied
    for name in Scenario._fields:
        if name != "provenance":
            assert getattr(copied, name) == getattr(default, name), name

    # the copies build every group's part anew, equal to the default part
    assert set(scenario._GROUP_OF.values()) == {*GROUP_FUNCTIONS, "source", "fault"}
    for kind in ("sg", "gfm"):
        _, built = _built_parts(monkeypatch, {**copies, "source.kind": kind})
        assert built.keys() == GROUP_FUNCTIONS.keys()
        for group, part in built.items():
            assert repr(part) == repr(scenario._DEFAULT_PARTS[group]), group
            assert part is not scenario._DEFAULT_PARTS[group], group
    # the defaults build none and hold the default parts
    a, built = _built_parts(monkeypatch, {})
    b = build_scenario({})
    assert built == {}
    for s in (a, b):
        assert s.source is scenario._DEFAULT_PARTS["sg"]
        assert s.relay is scenario._DEFAULT_PARTS["relay"]
        assert s.solver is scenario._DEFAULT_PARTS["solver"]
    # one key off its default rebuilds its own group's part alone
    for key, value in {
        "circuit.v_lv_kv": 66.0,
        "clc.r_vn_pu": 0.02,
        "gfm.filter_in_network": False,
        "sg.x0_pu": 0.15,
        "relay.asym_floor_pu": 0.1,
        "solver.damping": 0.5,
        "circuit.grid_scr": 5.0,
        "gfm.x_t0_pu": 0.2,
    }.items():
        _, built = _built_parts(monkeypatch, {key: value})
        assert list(built) == [scenario._GROUP_OF[key]], key


def test_a_value_equal_to_its_default_is_still_type_checked() -> None:
    # 100 == 100.0, the default, but an int is not a number of this schema
    with pytest.raises(ValidationError, match=r"solver\.max_iter must be a number, got 100$"):
        build_scenario({"solver.max_iter": 100})


def test_the_first_invalid_key_in_build_order_is_reported() -> None:
    # clc.k_x is checked before solver.tol, whatever order the overrides come in
    for overrides in ({"solver.tol": -1.0, "clc.k_x": 0.0}, {"clc.k_x": 0.0, "solver.tol": -1.0}):
        with pytest.raises(ValidationError, match=r"^clc\.k_x must be positive, got 0\.0$"):
            build_scenario(overrides)
    with pytest.raises(ValidationError, match=r"^source\.p_ref must be a number, got 'x'$"):
        build_scenario({"fault.m": 2.0, "source.p_ref": "x"})
    # a group left at its defaults but for one bad key checks it in its place:
    # the generator's before the circuit's, under either source kind
    for kind in ("sg", "gfm"):
        overrides = {"source.kind": kind, "circuit.line_km": -1.0, "sg.x0_pu": 0.0}
        with pytest.raises(ValidationError, match=r"^sg\.x0_pu must be positive, got 0\.0$"):
            build_scenario(overrides)


def test_source_keys_are_validated_for_either_source_kind() -> None:
    # each kind reads only its own, but every value is checked and hashed
    for kind in ("sg", "gfm"):
        for key in ("sg.collection_km", "gfm.x_t_pu", "gfm.x_t0_pu"):
            for value in (0.0, -1.0):
                with pytest.raises(ValidationError, match=rf"^{re.escape(key)} must be positive"):
                    build_scenario({"source.kind": kind, key: value})
    # the model of the other kind too, though the scenario does not hold it
    for kind, key, value in (
        ("sg", "clc.r_vn_pu", -1.0),
        ("sg", "clc.i_lim_pu", 0.0),
        ("sg", "gfm.k_pv", 0.0),
        ("sg", "gfm.x_f_pu", -0.1),
        ("gfm", "sg.x1_pu", 0.0),
    ):
        with pytest.raises(ValidationError):
            build_scenario({"source.kind": kind, key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("clc.r_vn_pu", -1.0),
        ("clc.x_vn_pu", -0.5),
        ("gfm.x_f_pu", -0.1),
        ("relay.phi_non_deg", 10.0),
        ("relay.dd21_half_deg", 31.0),
        ("relay.d20_half_deg", 61.0),
        ("gfm.filter_in_network", True),
    ],
)
@pytest.mark.parametrize("kind", ["sg", "gfm"])
def test_every_config_error_names_its_key(kind: str, key: str, value: object) -> None:
    with pytest.raises(ValidationError, match=rf"^{re.escape(key)} ") as exc:
        build_scenario({"source.kind": kind, key: value})
    if key == "gfm.filter_in_network":  # true needs the adaptive kind: both keys
        assert "clc.kind = adaptive_virtual_impedance" in str(exc.value)


def test_resolved_echo_covers_every_key() -> None:
    s = build_scenario({"fault.kind": "ag"})
    assert set(s.resolved) == set(DEFAULTS)
    assert s.resolved["fault.kind"] == "ag"
    assert [key for key, tag in s.provenance.items() if tag == "user"] == ["fault.kind"]


def test_provenance_markers() -> None:
    s = build_scenario({"fault.kind": "ag"}, origin="preset:demo")
    assert s.provenance["fault.kind"] == "preset:demo"
    assert s.provenance["circuit.v_hv_kv"] == "study-case"
    assert s.provenance["fault.m"] == "default"
    default_origin = build_scenario({"fault.kind": "ag"})
    assert default_origin.provenance["fault.kind"] == "user"


def test_config_hash_tracks_the_resolved_values() -> None:
    a = build_scenario({})
    b = build_scenario({})
    c = build_scenario({"fault.m": 0.25})
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 12
    assert int(a.config_hash, 16) >= 0  # hex digest prefix


def test_canonical_lines_are_sorted_and_typed() -> None:
    lines = canonical_config_lines(build_scenario({}).resolved)
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == sorted(keys)
    as_dict = dict(line.split("=", 1) for line in lines)
    assert as_dict["circuit.voltages_are_peak"] == "true"
    assert as_dict["source.kind"] == "sg"


def test_filter_placement_resolution() -> None:
    auto_circ = build_scenario({"source.kind": "gfm", "clc.kind": "circular"})
    assert auto_circ.source.filter_in_network is False
    auto_avi = build_scenario({"source.kind": "gfm", "clc.kind": "adaptive_virtual_impedance"})
    assert auto_avi.source.filter_in_network is True
    explicit_off = build_scenario(
        {
            "source.kind": "gfm",
            "clc.kind": "adaptive_virtual_impedance",
            "gfm.filter_in_network": False,
        }
    )
    assert explicit_off.source.filter_in_network is False
    with pytest.raises(ValidationError):
        build_scenario(
            {"source.kind": "gfm", "clc.kind": "circular", "gfm.filter_in_network": True}
        )
    with pytest.raises(ValidationError, match="auto"):
        build_scenario({"source.kind": "gfm", "gfm.filter_in_network": "sometimes"})


def test_solver_damping_resolution() -> None:
    # validated and hashed, though no solve reads it
    auto = build_scenario({"solver.damping": "auto"})
    fixed = build_scenario({"solver.damping": 0.3})
    assert auto.config_hash != fixed.config_hash
    with pytest.raises(ValidationError):
        build_scenario({"solver.damping": 1.5})
    with pytest.raises(ValidationError):
        build_scenario({"solver.damping": "fast"})
    with pytest.raises(ValidationError):
        build_scenario({"solver.max_iter": 2.5})


def test_peak_vs_rms_voltage_convention() -> None:
    # peak-valued 220 kV corresponds to 220/sqrt(2) kV rms: Z_base halves
    peak = build_scenario({})
    assert peak.net.z_base_fault_ohm == pytest.approx(242.0, abs=1e-9)
    rms = build_scenario({"circuit.voltages_are_peak": False})
    assert rms.net.z_base_fault_ohm == pytest.approx(484.0, abs=1e-9)


def test_base_inputs_are_validated_and_only_the_hv_base_enters_the_solve() -> None:
    for key in ("circuit.s_base_mva", "circuit.v_hv_kv", "circuit.v_lv_kv"):
        with pytest.raises(ValidationError, match=key.replace(".", r"\.")):
            build_scenario({key: 0.0})
    base = build_scenario({})
    lv = build_scenario({"circuit.v_lv_kv": 66.0})
    assert lv.config_hash != base.config_hash
    assert lv.net == base.net


@pytest.mark.parametrize(
    "placement, m, eids, fault_node",
    [
        ("forward", 0.0, ["grid", "line", "col"], "bus1"),
        ("forward", 0.5, ["grid", "line_a", "line_b", "col"], "flt"),
        ("forward", 1.0, ["grid", "line", "col"], "bus2"),
        ("reverse", 0.0, ["grid", "line", "col"], "bus1"),
        ("reverse", 0.5, ["grid", "line", "col_a", "col_b"], "flt"),
        ("reverse", 1.0, ["grid", "line", "col"], "sgt"),
    ],
)
def test_generator_network_elements_and_fault_node(
    placement: str, m: float, eids: list[str], fault_node: str
) -> None:
    s = build_scenario({"source.kind": "sg", "fault.placement": placement, "fault.m": m})
    assert [e.eid for e in s.net.elements] == eids
    assert s.net.fault_node == fault_node
    col = {e.eid: e for e in s.net.elements}.get("col")
    if col is not None:
        assert (col.n_from, col.n_to) == ("sgt", "bus1")
        assert (col.z1, col.z0) == (s.z_side1, s.z_side0)


# a converter section: (eid, from node, to node, share of the whole, impedances)
# with the share 1, m or 1 - m of the whole line ("line", z1 = z2 and z0),
# of the transformer's positive and negative sequences ("xfmr", zero open),
# of its zero-sequence leg to ground ("leg", positive and negative open),
# or of both ("xfmr+leg")
_LINE = ("line", "bus1", "bus2", "1", "line")
_XFMR = [("xfmr", "poc", "bus1", "1", "xfmr"), ("xfmr0", "bus1", GROUND, "1", "leg")]


@pytest.mark.parametrize(
    "placement, m, sections, fault_node, tapped",
    [
        ("forward", 0.0, [_LINE, *_XFMR], "bus1", ("line", "line")),
        (
            "forward",
            0.3,
            [
                ("line_a", "bus1", "flt", "m", "line"),
                ("line_b", "flt", "bus2", "1 - m", "line"),
                *_XFMR,
            ],
            "flt",
            ("line_a", "line_b"),
        ),
        (
            "forward",
            0.5,
            [
                ("line_a", "bus1", "flt", "m", "line"),
                ("line_b", "flt", "bus2", "1 - m", "line"),
                *_XFMR,
            ],
            "flt",
            ("line_a", "line_b"),
        ),
        ("forward", 1.0, [_LINE, *_XFMR], "bus2", ("line", "line")),
        ("reverse", 0.0, [_LINE, *_XFMR], "bus1", ("line", "line")),
        (
            "reverse",
            0.3,
            [
                _LINE,
                ("xfmr_a", "bus1", "flt", "m", "xfmr+leg"),
                ("xfmr_b", "flt", "poc", "1 - m", "xfmr"),
                ("xfmr0", "flt", GROUND, "1 - m", "leg"),
            ],
            "flt",
            ("line", "line"),
        ),
        (
            "reverse",
            0.5,
            [
                _LINE,
                ("xfmr_a", "bus1", "flt", "m", "xfmr+leg"),
                ("xfmr_b", "flt", "poc", "1 - m", "xfmr"),
                ("xfmr0", "flt", GROUND, "1 - m", "leg"),
            ],
            "flt",
            ("line", "line"),
        ),
    ],
)
def test_converter_network_elements_impedances_fault_node_and_taps(
    placement: str, m: float, sections: list, fault_node: str, tapped: tuple[str, str]
) -> None:
    s = build_scenario(
        {
            "source.kind": "gfm",
            "fault.placement": placement,
            "fault.m": m,
            "gfm.x_t_pu": 0.12,
            "gfm.x_t0_pu": 0.07,
        }
    )
    zb = s.net.z_base_fault_ohm
    l1, l0 = complex(0.03, 0.34) * 100.0 / zb, complex(0.18, 1.19) * 100.0 / zb
    wholes = {
        "line": (l1, l1, l0),
        "xfmr": (0.12j, 0.12j, None),
        "leg": (None, None, 0.07j),
        "xfmr+leg": (0.12j, 0.12j, 0.07j),
    }
    shares = {"1": 1.0, "m": m, "1 - m": 1 - m}
    expected = [
        (eid, n_from, n_to, *(None if z is None else shares[share] * z for z in wholes[whole]))
        for eid, n_from, n_to, share, whole in sections
    ]
    grid, *series = s.net.elements
    grid_z1 = complex(0.1 / math.sqrt(101.0), 0.1 * 10.0 / math.sqrt(101.0))
    assert tuple(grid) == ("grid", "bus2", 1 + 0j, grid_z1, grid_z1, 3.0 * grid_z1)
    assert [tuple(e) for e in series] == expected
    assert s.net.fault_node == fault_node
    assert s.net.source_node == "poc"
    assert dict(s.net.relay_taps) == {
        "bus1": ("bus1", tapped[0], 1.0),
        "bus2": ("bus2", tapped[1], -1.0),
    }
    assert (s.z_side1, s.z_side0) == (0.12j, 0.07j)


def test_converter_reverse_bus_fault_is_rejected() -> None:
    with pytest.raises(ValidationError, match=r"^fault\.placement=reverse with fault\.m=1 "):
        build_scenario({"source.kind": "gfm", "fault.placement": "reverse", "fault.m": 1.0})
    # the generator topology has no such degeneracy
    build_scenario({"source.kind": "sg", "fault.placement": "reverse", "fault.m": 1.0})


def test_config_text_tokens_that_spell_a_default_are_the_default_objects() -> None:
    text = (
        "source.kind = sg\nclc.kind = circular\nfault.kind = bcg\n"
        "fault.placement = forward\ngfm.filter_in_network = auto\nsolver.damping = auto\n"
    )
    parsed = parse_config_text(text)
    assert len(parsed) == 6
    for key, value in parsed.items():
        assert value is DEFAULTS[key][0], key
    # so the groups they belong to take the parts made at import
    s = build_scenario(parse_config_text("source.kind = gfm\nclc.kind = circular\n"))
    assert s.source is scenario._DEFAULT_PARTS["gfm"]
    assert s.solver is build_scenario(parse_config_text(text)).solver
    assert s.solver is scenario._DEFAULT_PARTS["solver"]
    # another spelling is no default, and no valid choice
    wrong = parse_config_text("clc.kind = Circular")
    message = (
        "clc.kind must be one of circular, priority, instantaneous, virtual_admittance, "
        "adaptive_virtual_impedance; got 'Circular'"
    )
    with pytest.raises(ValidationError) as caught:
        build_scenario(wrong)
    assert str(caught.value) == message


def test_clc_kind_tokens_round_trip() -> None:
    for kind in ClcKind:
        s = build_scenario({"source.kind": "gfm", "clc.kind": kind.value})
        assert s.source.clc.kind is kind


def test_presets_build_and_unknown_preset_lists_names() -> None:
    for name in PRESETS:
        scenario = build_scenario(
            preset_scenario_overrides(name), scenario_id=name, origin=f"preset:{name}"
        )
        assert scenario.scenario_id == name
    with pytest.raises(KeyError, match="fig13a"):
        preset_scenario_overrides("not-a-preset")


def test_preset_overrides_are_copies() -> None:
    a = preset_scenario_overrides("fig13a")
    a["fault.m"] = 0.99
    assert preset_scenario_overrides("fig13a").get("fault.m") != 0.99


def test_every_config_key_has_a_row_in_the_readme_table() -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    named = {
        key
        for row in table.splitlines()
        if row.startswith("| `")
        for key in re.findall(r"`([a-z0-9_]+\.[a-z0-9_]+)`", row.split("|")[1])
    }
    assert set(DEFAULTS) <= named, sorted(set(DEFAULTS) - named)


def _cold_and_warm_reprs(configs: list[dict[str, object]]) -> None:
    """Each config's report, solved after every memo is cleared, equals the
    one solved after the others, in either order."""
    cold = []
    for config in configs:
        _clear_memos()
        cold.append(repr(run_scenario(build_scenario(config))))
    for order in (list(range(len(configs))), list(range(len(configs)))[::-1]):
        _clear_memos()
        warm = {k: repr(run_scenario(build_scenario(configs[k]))) for k in order}
        assert [warm[k] for k in range(len(configs))] == cold, order


@pytest.mark.parametrize(
    "key", ["circuit.grid_angle_deg", "source.p_ref", "fault.r_g_ohm", "fault.m"]
)
@pytest.mark.parametrize("kind", ["sg", "gfm"])
def test_a_zero_and_a_negative_zero_share_no_memo_entry(kind: str, key: str) -> None:
    # -0.0 == 0.0, but a network, a dispatch or a faulted port made of one
    # may differ from one made of the other in the sign of a zero
    _cold_and_warm_reprs([{"source.kind": kind, key: value} for value in (0.0, -0.0)])


@pytest.mark.parametrize("bad", [-1.0, "x", [1.0]])
def test_an_invalid_network_key_raises_whether_or_not_a_valid_twin_is_held(bad) -> None:
    # the memo key is formed only after every key it holds is validated, so
    # an unhashable value raises its ValidationError, not a TypeError
    config = {"source.kind": "gfm", "circuit.line_km": bad}
    _clear_memos()
    with pytest.raises(ValidationError) as cold:
        build_scenario(config)
    run_scenario(build_scenario({**config, "circuit.line_km": 100.0}))
    with pytest.raises(ValidationError) as warm:
        build_scenario(config)
    assert str(warm.value) == str(cold.value)
    assert str(cold.value).startswith("circuit.line_km must be")


def test_an_unreachable_dispatch_raises_on_every_call() -> None:
    # an error is never memoized: the dispatch is tried anew on every call,
    # also after a reachable one on the same network is held
    config = {"source.kind": "gfm", "circuit.grid_scr": 2.0}
    _clear_memos()
    messages = []
    for p_ref in (1.0, 1.0, 0.5, 1.0, 1.0):
        scenario = build_scenario({**config, "source.p_ref": p_ref})
        if p_ref == 0.5:
            run_scenario(scenario)
            continue
        with pytest.raises(NoConvergenceError, match="^pre-fault dispatch unreachable") as exc:
            run_scenario(scenario)
        messages.append(str(exc.value))
    assert len(messages) == 4 and len(set(messages)) == 1
