"""A fault solution's parts against the superposition route they replaced, bit for bit.

`FaultSolution.thevenin`, `i_fault`, `base`, `pure` and `total` are
straight-line sums over each build's column tuples. The route they replaced
summed the builds' dict columns through a list of weighted columns per
sequence. It is kept here as the reference (`_ref_superpose`,
`_ref_voltage` and `_Reference`): the same operations in the same order, on
the same types.
"""

from __future__ import annotations

import random

import pytest

from faultlab import network
from faultlab.harness import solve_scenario
from faultlab.network import (
    GROUND,
    SEQUENCES,
    FaultSolution,
    FaultSpec,
    FaultType,
    NetworkModel,
    RelayTap,
    SeriesElement,
    SequenceSolution,
    SingularNetworkError,
    SourceElement,
    TheveninEquivalent,
    solve_fault,
    solve_fault_boundary,
)
from faultlab.phasors import ALPHA
from faultlab.scenario import build_scenario
from faultlab.sources import NoConvergenceError, OscillationDetectedError

LAWS = (
    "circular", "priority", "instantaneous", "virtual_admittance", "adaptive_virtual_impedance"
)
INF, NAN = float("inf"), float("nan")
# port currents at the edges of the arithmetic: zeros with each sign, a
# non-finite current, and one whose products overflow
EDGE_CURRENTS = [
    (0j, 0j),
    (complex(-0.0, -0.0), complex(-0.0, 0.0)),
    (complex(0.0, -0.0), complex(-0.0, -0.0)),
    (complex(NAN, 0.0), 0j),
    (0j, complex(0.0, NAN)),
    (complex(INF, 0.0), 0.5 + 0j),
    (0.3 - 0.2j, complex(-INF, INF)),
    (complex(1e300, -1e300), 0j),
    (1e300 + 0j, complex(0.0, 1e300)),
]


def _radial_net(*extra) -> NetworkModel:
    """A source behind j0.2 feeding a j0.3 line to the fault node, and `extra`."""
    return NetworkModel(
        (
            SourceElement("src", "s", 1.0 + 0j, 0.2j, 0.2j, 0.2j),
            SeriesElement("ln", "s", "f", 0.3j, 0.3j, 0.3j),
            *extra,
        ),
        fault_node="f",
        source_node="s",
        relay_taps={"s": RelayTap("s", "ln", +1.0)},
    )


def _ref_superpose(build: dict, weighted: list) -> dict:
    """Weighted sum of columns of one build (all have the same keys)."""
    total = dict.fromkeys(build[None], 0j)
    for node, w in weighted:
        column = build[node]
        if w != 0:
            for key, y in column.items():
                total[key] += w * y
    return total


def _ref_voltage(build: dict, node: str, weighted: list) -> complex:
    total = 0j
    for key, w in weighted:
        total += w * build[key][node]
    return total


class _Reference:
    """One fault solution's parts by the replaced route, on its own builds."""

    def __init__(self, sol: FaultSolution) -> None:
        self.sol = sol

    def _weighted(self, seq: int, base: bool, pure: bool) -> list:
        """The columns of the base part, the pure part or both in one sequence."""
        sol = self.sol
        weighted = [(None, 1.0)] if base else []
        if pure:
            i_f = self.i_fault()
            weighted.append((sol.net.fault_node, -(i_f.zero, i_f.pos, i_f.neg)[seq]))
        if base and sol.port and seq:  # the port carries no zero-sequence current
            weighted.append((sol.port, sol.i1 if seq == 1 else sol.i2))
        return weighted

    def _part(self, base: bool, pure: bool) -> SequenceSolution:
        b = self.sol.builds
        v = {seq: _ref_superpose(b[seq], self._weighted(seq, base, pure)) for seq in SEQUENCES}
        return SequenceSolution(v, self.sol.net)

    def thevenin(self) -> TheveninEquivalent:
        node, b = self.sol.net.fault_node, self.sol.builds
        return TheveninEquivalent(
            *(b[seq][node][node] for seq in (1, 2, 0)),
            *(_ref_voltage(b[seq], node, self._weighted(seq, True, False)) for seq in (1, 2, 0)),
        )

    def i_fault(self):
        return solve_fault_boundary(self.thevenin(), self.sol.spec, self.sol.net.z_base_fault_ohm)

    def base(self) -> SequenceSolution:
        return self._part(True, False)

    def pure(self) -> SequenceSolution:
        return self._part(False, True)

    def total(self) -> SequenceSolution:
        return self._part(True, True)


def _outcome(read) -> str:
    try:
        return repr(read())
    except SingularNetworkError as exc:
        return f"{type(exc).__name__}: {exc}"


def _parts(fresh, reference: bool) -> list[str]:
    """repr of each part, each read on a fresh solution, or the error it raised."""
    def part(name: str):
        sol = fresh()
        return getattr(_Reference(sol), name)() if reference else getattr(sol, name)

    return [
        _outcome(lambda: part("thevenin")),
        _outcome(lambda: part("i_fault")),
        _outcome(lambda: part("base").v),
        _outcome(lambda: part("pure").v),
        _outcome(lambda: part("total").v),
        _outcome(lambda: part("total").readings),
    ]


def _assert_parts_are_the_reference(sol: FaultSolution, label: object) -> list[str]:
    fresh = lambda: sol.at(sol.i1, sol.i2)  # noqa: E731
    mine = _parts(fresh, reference=False)
    assert mine == _parts(fresh, reference=True), label
    return mine


def _scenarios(kind: str, rng: random.Random) -> list:
    """Every fault type at both placements, at seeded points."""
    scenarios = []
    for fault_type in FaultType:
        for placement in ("forward", "reverse"):
            config = {
                "source.kind": kind,
                "fault.kind": fault_type.value,
                "fault.placement": placement,
                "fault.m": rng.choice((0.0, 0.05, 0.5, 0.95, 1.0 if kind == "sg" else 0.3)),
                "fault.r_g_ohm": rng.choice((0.0, 5.0, 30.0, 100.0)),
                "source.p_ref": rng.choice((0.0, 0.5, 1.0)),
            }
            if kind == "gfm":
                config["clc.kind"] = rng.choice(LAWS)
            scenarios.append(build_scenario(config))
    return scenarios


def test_generator_parts_are_the_reference_bit_for_bit() -> None:
    """The generator's form: a fault solution with no port, every fault type."""
    rng = random.Random(42)
    zero_weights = 0
    for scenario in _scenarios("sg", rng) + _scenarios("sg", rng):
        _, solved = solve_scenario(scenario)
        assert solved.fault.port == ""
        _assert_parts_are_the_reference(solved.fault, scenario.fault)
        # a zero fault-current component: a fault node column at weight zero
        zero_weights += any(current == 0 for current in solved.fault.i_fault)
    assert zero_weights >= 10


def test_converter_parts_are_the_reference_bit_for_bit() -> None:
    """A converter's fault solution at its converged port currents, at
    seeded currents and at the edges of the arithmetic."""
    rng = random.Random(4242)
    solved_cases = 0
    for scenario in _scenarios("gfm", rng):
        net = scenario.net
        fault = solve_fault(net, scenario.fault, port=net.source_node)
        currents = list(EDGE_CURRENTS)
        for _ in range(3):
            i1 = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            currents.append((i1, complex(rng.gauss(0, 0.3), rng.gauss(0, 0.3))))
        try:
            _, solved = solve_scenario(scenario)
            currents.append((solved.fault.i1, solved.fault.i2))
            solved_cases += 1
        except (NoConvergenceError, OscillationDetectedError):
            pass
        for i1, i2 in currents:
            _assert_parts_are_the_reference(fault.at(i1, i2), (scenario.fault, i1, i2))
    assert solved_cases >= 15


def _poisoned(build, node: str, key: str, value: complex):
    """A copy of `build` whose `node` column holds `value` at `key`, in both layouts."""
    copy = network._Build(build)
    copy[node] = {**build[node], key: value}
    copy.nodes, copy.start = build.nodes, build.start
    copy.columns = network._Columns(build.columns)
    column = zip(build.nodes, build.columns[node])
    copy.columns[node] = tuple(value if k == key else v for k, v in column)
    return copy


@pytest.mark.parametrize(
    ("fault_type", "seq", "which"),
    [
        # a line-line fault draws no zero-sequence current
        (FaultType.BC, 0, "fault"),
        # a three-phase fault on a balanced network draws no negative-sequence current
        (FaultType.ABC, 2, "fault"),
        # no negative-sequence current injected at the port
        (FaultType.AG, 2, "port"),
    ],
)
def test_a_column_at_weight_zero_is_skipped_in_the_parts_and_kept_in_the_voltages(
    fault_type: FaultType, seq: int, which: str
) -> None:
    """The builds a solve makes are finite, so a column at weight zero adds
    only signed zeros and skipping it moves no bit. A column holding inf
    shows the rule itself: the parts skip the column (no nan), while the
    open-circuit voltages at the fault node keep its term (0 * inf, nan)."""
    scenario = build_scenario({"source.kind": "gfm", "fault.kind": fault_type.value})
    net = scenario.net
    port, node = net.source_node, net.fault_node
    fault = solve_fault(net, scenario.fault, port=port)
    builds = dict(fault.builds)
    column = node if which == "fault" else port
    builds[seq] = _poisoned(builds[seq], column, node, complex(INF, 0.0))
    sol = FaultSolution(net, fault.spec, port, builds, 0.7 - 0.4j, 0j)
    parts = _assert_parts_are_the_reference(sol, (fault_type, seq, which))
    i_f = sol.at(sol.i1, sol.i2).i_fault
    if which == "fault":
        assert (i_f.pos, i_f.neg, i_f.zero)[seq - 1 if seq else 2] == 0
        assert "nan" not in parts[4]
    else:
        assert "nan" in parts[0] and "nan" in parts[4]
    assert "nan" not in parts[2]


@pytest.mark.parametrize(("port", "absent_from"), [("nowhere", 1), ("stub", 2)])
def test_a_port_absent_from_a_sequence_build_raises_as_the_reference(
    port: str, absent_from: int
) -> None:
    """A port that a sequence network does not reach has no column there:
    reading it raises the same SingularNetworkError on both routes, even at
    zero current, where the part would skip the column."""
    # a stub the positive sequence alone reaches
    net = _radial_net(SeriesElement("stub", "f", "stub", 0.1j, None, None))
    fault = solve_fault(net, FaultSpec(FaultType.AG), port=port)
    assert (port in fault.builds[1]) == (absent_from != 1)
    for i1, i2 in ((0j, 0j), (0.5 + 0j, 0j), (0j, 0.5j)):
        parts = _assert_parts_are_the_reference(fault.at(i1, i2), (port, i1, i2))
        message = f"SingularNetworkError: node {port!r} is not in this sequence network"
        assert parts[0] == parts[2] == parts[4] == message


def test_the_boundary_constants_are_the_rotations_of_each_fault_type() -> None:
    """`solve_fault_boundary` reads alpha^k, alpha^2k and their conjugates
    from a table made at import: the values it computed on every call."""
    for fault_type in FaultType:
        k = fault_type.shift
        expected = (
            fault_type.category,
            ALPHA**k,
            ALPHA ** (2 * k),
            (ALPHA**k).conjugate(),
            (ALPHA ** (2 * k)).conjugate(),
        )
        assert repr(network._BOUNDARY[fault_type]) == repr(expected), fault_type


def test_the_base_column_enters_each_sum_times_one() -> None:
    """Each part with the sources starts from 0j plus 1.0 times the base
    column, which the build holds made. An ideal source with an infinite
    emf, tied to ground alone, pins its node's base value at inf without
    entering the solve, so the product shows: 1.0 * inf is complex
    multiplication there, not a copy of the value."""
    net = _radial_net(
        SourceElement("pin", "x", complex(INF, 0.0), 0j, 0j, 0j),
        SeriesElement("tie", "x", GROUND, 0.1j, 0.1j, 0.1j),
    )
    for fault_type in (FaultType.AG, FaultType.BC, FaultType.ABC):
        fault = solve_fault(net, FaultSpec(fault_type))
        assert repr(fault.builds[1][None]["x"]) == repr(complex(INF, 0.0))
        parts = _assert_parts_are_the_reference(fault, fault_type)
        assert repr(fault.base.v[1]["x"]) == repr(0j + 1.0 * complex(INF, 0.0)), parts
