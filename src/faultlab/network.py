"""Sequence-network model and phasor-domain fault solver.

The network is a list of three-sequence elements over named nodes ('gnd' is
the reference). Each element carries its positive-, negative-, and
zero-sequence impedances; `None` means that sequence has no path through the
element (e.g. a delta-wye transformer's series zero-sequence). Because every
solver view, the phase-domain oracle included, is assembled from the same
element list, the two solution routes can only differ through their fault
representations, which is exactly what the equivalence checks exercise.

Fault solving follows the classical decomposition:

1. one nodal build per sequence network, solved in one call for all its
   right-hand sides: the network with its sources (the base solve), a unit
   current at the fault node with the sources zeroed, and optionally a unit
   current at a port node (where a converter injects);
2. Thevenin reduction at the fault node: the driving-point impedance is the
   fault-probe column there, the open-circuit voltage the base column (plus
   the port columns times any injected current);
3. boundary conditions for the canonical a-referenced fault of each category,
   then the cyclic phase-shift rule (positive unchanged, negative times
   alpha^k, zero times alpha^2k for a fault reference shifted k phases);
4. back-distribution: the pure-fault solution is minus the fault current
   times the fault-probe column, superposed on the base solve.

Sign conventions: relay current is measured from the bus into the monitored
line; fault sequence currents are drawn out of the network into the fault.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum

import numpy as np

from .phasors import ALPHA, SequenceTriple

__all__ = [
    "GROUND",
    "SEQUENCES",
    "SingularNetworkError",
    "FaultCategory",
    "FaultType",
    "Placement",
    "FaultSpec",
    "SeriesElement",
    "SourceElement",
    "InjectionElement",
    "RelayTap",
    "NetworkModel",
    "SequenceSolution",
    "BusReading",
    "TheveninEquivalent",
    "FaultSolution",
    "solve_linear",
    "driving_point",
    "thevenin_at_fault",
    "solve_fault_boundary",
    "back_distribute",
    "FaultResponse",
    "solve_fault",
]

GROUND = "gnd"
SEQUENCES = (1, 2, 0)


class SingularNetworkError(RuntimeError):
    """Raised when a sequence network has no unique solution."""


class FaultCategory(Enum):
    SLG = "single-line-ground"
    LL = "line-line"
    LLG = "double-line-ground"
    SYM = "three-phase"


class FaultType(Enum):
    """Shunt fault types; value strings double as config tokens."""

    AG = "ag"
    BG = "bg"
    CG = "cg"
    AB = "ab"
    BC = "bc"
    CA = "ca"
    ABG = "abg"
    BCG = "bcg"
    CAG = "cag"
    ABC = "abc"

    @property
    def category(self) -> FaultCategory:
        return _FAULT_SHAPE[self][0]

    @property
    def shift(self) -> int:
        """Cyclic phase shift k from the a-referenced canonical fault."""
        return _FAULT_SHAPE[self][1]

    @property
    def phases(self) -> tuple[str, ...]:
        """Phases tied into the fault."""
        return _FAULT_SHAPE[self][2]

    @property
    def grounded(self) -> bool:
        return self.category in (FaultCategory.SLG, FaultCategory.LLG)


# category, shift from canonical fault, faulted phases.
# Canonical (k = 0) faults: ag, bc, bcg, abc. A shift of k relabels the fault
# one phase forward k times (a->b->c), which multiplies the pure-fault
# negative-sequence solution by alpha^k and the zero-sequence by alpha^2k.
_FAULT_SHAPE: dict[FaultType, tuple[FaultCategory, int, tuple[str, ...]]] = {
    FaultType.AG: (FaultCategory.SLG, 0, ("a",)),
    FaultType.BG: (FaultCategory.SLG, 1, ("b",)),
    FaultType.CG: (FaultCategory.SLG, 2, ("c",)),
    FaultType.BC: (FaultCategory.LL, 0, ("b", "c")),
    FaultType.CA: (FaultCategory.LL, 1, ("c", "a")),
    FaultType.AB: (FaultCategory.LL, 2, ("a", "b")),
    FaultType.BCG: (FaultCategory.LLG, 0, ("b", "c")),
    FaultType.CAG: (FaultCategory.LLG, 1, ("c", "a")),
    FaultType.ABG: (FaultCategory.LLG, 2, ("a", "b")),
    FaultType.ABC: (FaultCategory.SYM, 0, ("a", "b", "c")),
}


class Placement(Enum):
    FORWARD = "forward"  # on the monitored line, fraction m from bus 1
    REVERSE = "reverse"  # on the branch behind bus 1, fraction m from bus 1


@dataclass(frozen=True)
class FaultSpec:
    """What fault to apply and where.

    m is the per-unit distance of the fault node from bus 1 along the host
    branch; r_g_ohm is the fault resistance in ohms (ground path for ground
    faults, phase bridge for line-line, per-phase star for three-phase).
    """

    fault_type: FaultType = FaultType.BCG
    m: float = 0.5
    r_g_ohm: float = 0.0
    placement: Placement = Placement.FORWARD

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"fault position m={self.m} outside [0, 1]")
        if self.r_g_ohm < 0.0:
            raise ValueError(f"fault resistance {self.r_g_ohm} ohm is negative")


@dataclass(frozen=True)
class SeriesElement:
    """Series impedance between two nodes, per sequence; None = open."""

    eid: str
    n_from: str
    n_to: str
    z1: complex | None
    z2: complex | None
    z0: complex | None

    def z(self, seq: int) -> complex | None:
        return (self.z0, self.z1, self.z2)[seq]


@dataclass(frozen=True)
class SourceElement:
    """Ideal positive-sequence emf behind a per-sequence impedance to gnd.

    z = 0 makes the source ideal in that sequence: the node is pinned at the
    emf (positive sequence) or at zero volts (negative/zero, where the emf
    vanishes and the ideal source is a short). z = None leaves the sequence
    unconnected through this element.
    """

    eid: str
    node: str
    e1: complex
    z1: complex | None
    z2: complex | None
    z0: complex | None

    def z(self, seq: int) -> complex | None:
        return (self.z0, self.z1, self.z2)[seq]

    def emf(self, seq: int) -> complex:
        return self.e1 if seq == 1 else 0j


@dataclass(frozen=True)
class InjectionElement:
    """Ideal sequence current sources injecting into a node (zero seq none)."""

    eid: str
    node: str
    i1: complex
    i2: complex

    def current(self, seq: int) -> complex:
        return (0j, self.i1, self.i2)[seq]


@dataclass(frozen=True)
class RelayTap:
    """Where a relay reads: bus voltage plus oriented element current."""

    bus: str
    eid: str
    sign: float  # +1 when the element's from-node is the bus


@dataclass(frozen=True)
class NetworkModel:
    """Element list plus the metadata the fault pipeline needs."""

    elements: tuple
    fault_node: str = ""
    source_node: str = ""
    z_base_fault_ohm: float = 1.0
    relay_taps: dict[str, RelayTap] = field(default_factory=dict)

    def with_elements(self, *extra) -> "NetworkModel":
        return replace(self, elements=self.elements + tuple(extra))

    def series(self) -> list[SeriesElement]:
        return [e for e in self.elements if isinstance(e, SeriesElement)]

    def sources(self) -> list[SourceElement]:
        return [e for e in self.elements if isinstance(e, SourceElement)]

    def injections(self) -> list[InjectionElement]:
        return [e for e in self.elements if isinstance(e, InjectionElement)]

    def nodes(self) -> tuple[str, ...]:
        """All non-ground nodes touched by any element, sorted."""
        found: set[str] = set()
        for e in self.elements:
            if isinstance(e, SeriesElement):
                found.update((e.n_from, e.n_to))
            else:
                found.add(e.node)
        found.discard(GROUND)
        return tuple(sorted(found))


@dataclass(frozen=True)
class SequenceSolution:
    """Node voltages and element currents for the three sequence networks."""

    v: dict[int, dict[str, complex]]
    i_series: dict[int, dict[str, complex]]  # oriented from -> to
    source_out: dict[int, dict[str, complex]]  # current delivered into node

    def voltage(self, node: str) -> SequenceTriple:
        return SequenceTriple(
            pos=self.v[1].get(node, 0j),
            neg=self.v[2].get(node, 0j),
            zero=self.v[0].get(node, 0j),
        )

    def series_current(self, eid: str) -> SequenceTriple:
        return SequenceTriple(
            pos=self.i_series[1].get(eid, 0j),
            neg=self.i_series[2].get(eid, 0j),
            zero=self.i_series[0].get(eid, 0j),
        )

    def source_current(self, eid: str) -> SequenceTriple:
        return SequenceTriple(
            pos=self.source_out[1].get(eid, 0j),
            neg=self.source_out[2].get(eid, 0j),
            zero=self.source_out[0].get(eid, 0j),
        )

    def reading(self, tap: RelayTap) -> "BusReading":
        return BusReading(
            bus=tap.bus,
            v=self.voltage(tap.bus),
            i=self.series_current(tap.eid).scaled(tap.sign),
        )


@dataclass(frozen=True)
class BusReading:
    """Relay-point quantities: bus voltage, current into the monitored line."""

    bus: str
    v: SequenceTriple
    i: SequenceTriple


@dataclass(frozen=True)
class TheveninEquivalent:
    """Reduction of the network to the fault node.

    e_f2/e_f0 are zero for ordinary source mixes; they pick up the
    open-circuit negative/zero-sequence voltage that unbalanced current
    injections (a saturated converter) leave at the fault node.
    """

    z1: complex
    z2: complex
    z0: complex
    e_f: complex  # open-circuit positive-sequence fault-node voltage
    e_f2: complex = 0j
    e_f0: complex = 0j

    def z(self, seq: int) -> complex:
        return {1: self.z1, 2: self.z2, 0: self.z0}[seq]


@dataclass(frozen=True)
class FaultSolution:
    """Base, pure-fault, and total solutions for one applied fault.

    A view of a fault response with the currents (i1, i2) injected at its
    port; each part is superposed from the response's columns when first
    read.
    """

    response: FaultResponse
    i1: complex = 0j
    i2: complex = 0j

    @cached_property
    def _state(self) -> tuple[TheveninEquivalent, SequenceTriple, _Weights, _Weights, _Weights]:
        return self.response._weights(self.i1, self.i2)

    @property
    def thevenin(self) -> TheveninEquivalent:
        return self._state[0]

    @property
    def i_fault(self) -> SequenceTriple:
        return self._state[1]

    @cached_property
    def base(self) -> SequenceSolution:
        return _sequence_solution(self.response.builds, self._state[2])

    @cached_property
    def pure(self) -> SequenceSolution:
        return _sequence_solution(self.response.builds, self._state[3])

    @cached_property
    def total(self) -> SequenceSolution:
        return _sequence_solution(self.response.builds, self._state[4])

    def readings(self, net: NetworkModel) -> dict[str, BusReading]:
        return {name: self.total.reading(tap) for name, tap in net.relay_taps.items()}


# one solution column of a sequence network: node voltages, series currents
# (oriented from -> to) and source deliveries into their nodes
_Column = tuple[dict[str, complex], dict[str, complex], dict[str, complex]]
# per sequence, the weight of each column of its build
_Weights = dict[int, list[complex]]


def _solve_one_sequence(
    net: NetworkModel, seq: int, probes: tuple[str, ...] = ()
) -> list[_Column]:
    """Nodal build of one sequence network, solved for all right-hand sides at once.

    The right-hand sides are the network as it stands (column 0) and a unit
    current injected at each probe node with every source zeroed: ideal
    sources short, Norton admittances kept, injections open (column k for
    probes[k - 1]). All columns share their keys. Ideal sources pin their
    node voltage and are eliminated from the unknown set; nodes untouched
    by any element of this sequence are absent from the result (callers
    read them as zero).
    """
    branches = [
        (e.eid, e.n_from, e.n_to, e.z(seq)) for e in net.series() if e.z(seq) is not None
    ]
    sources = [e for e in net.sources() if e.z(seq) is not None]
    # a zero injection must not drag an otherwise unconnected node (e.g. the
    # converter terminal in the zero sequence) into the system
    injections = [e for e in net.injections() if e.current(seq) != 0]

    # pinned voltages of column 0; the probe columns pin the same nodes at 0
    pinned: dict[str, complex] = {GROUND: 0j}
    for src in sources:
        if src.z(seq) == 0:
            pinned[src.node] = src.emf(seq)

    nodes: set[str] = set(probes)
    for _, n_from, n_to, _ in branches:
        nodes.update((n_from, n_to))
    nodes.update(src.node for src in sources)
    nodes.update(inj.node for inj in injections)
    unknowns = sorted(n for n in nodes if n not in pinned)
    index = {n: k for k, n in enumerate(unknowns)}

    # stamped as Python lists: item access on small arrays costs more than
    # the solve itself
    n, cols = len(unknowns), 1 + len(probes)
    y = [[0j] * n for _ in range(n)]
    rhs = [[0j] * cols for _ in range(n)]

    def stamp_admittance(na: str, nb: str, adm: complex) -> None:
        ia = index.get(na)
        ib = index.get(nb)
        if ia is not None:
            y[ia][ia] += adm
            if ib is not None:
                y[ia][ib] -= adm
            else:
                rhs[ia][0] += adm * pinned.get(nb, 0j)
        if ib is not None:
            y[ib][ib] += adm
            if ia is not None:
                y[ib][ia] -= adm
            else:
                rhs[ib][0] += adm * pinned.get(na, 0j)

    for _, n_from, n_to, z in branches:
        stamp_admittance(n_from, n_to, 1.0 / z)
    for src in sources:
        z = src.z(seq)
        if z == 0:
            continue  # pinned above
        adm = 1.0 / z
        idx = index.get(src.node)
        if idx is not None:
            y[idx][idx] += adm
            rhs[idx][0] += adm * src.emf(seq)
    for inj in injections:
        rhs[index[inj.node]][0] += inj.current(seq)
    for k, node in enumerate(probes, start=1):
        idx = index.get(node)
        if idx is not None:
            rhs[idx][k] = 1.0 + 0j

    solved: list[list[complex]] = [[] for _ in range(cols)]
    if n:
        try:
            solved = np.linalg.solve(np.array(y), np.array(rhs)).T.tolist()
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(f"sequence-{seq} network is singular") from exc
        if not all(cmath.isfinite(x) for values in solved for x in values):
            raise SingularNetworkError(f"sequence-{seq} solve returned non-finite voltages")

    # Source delivery by KCL so ideal (pinned) sources are covered too:
    # everything leaving the node through series elements, minus what the
    # injections (column 0) or the probe (its column) supply there.
    kcl = [
        (
            src,
            [(eid, (n_from == src.node) - (n_to == src.node))
             for eid, n_from, n_to, _ in branches if src.node in (n_from, n_to)],
            sum((inj.current(seq) for inj in injections if inj.node == src.node), 0j),
        )
        for src in sources
    ]
    columns: list[_Column] = []
    for k, values in enumerate(solved):
        v = dict(pinned) if k == 0 else dict.fromkeys(pinned, 0j)
        v.update(zip(unknowns, values))
        i_series = {eid: (v[n_from] - v[n_to]) / z for eid, n_from, n_to, z in branches}
        source_out: dict[str, complex] = {}
        for src, terms, injected in kcl:
            out = 0j
            for eid, sign in terms:
                out += sign * i_series[eid]
            if k == 0:
                out -= injected
            elif probes[k - 1] == src.node:
                out -= 1.0
            source_out[src.eid] = out
        columns.append((v, i_series, source_out))
    return columns


def _superpose(columns: list[_Column], weights: list[complex]) -> _Column:
    """Weighted sum of the columns of one build (same keys, same order)."""
    terms = [(w, col) for w, col in zip(weights, columns) if w != 0]
    out = []
    for part in range(3):
        keys = columns[0][part]
        values = [0j] * len(keys)
        for w, col in terms:
            values = [x + w * y for x, y in zip(values, col[part].values())]
        out.append(dict(zip(keys, values)))
    return out[0], out[1], out[2]


def _voltage(columns: list[_Column], node: str, weights: list[complex]) -> complex:
    return sum((w * col[0].get(node, 0j) for w, col in zip(weights, columns)), 0j)


def _sequence_solution(builds: dict[int, list[_Column]], weights: _Weights) -> SequenceSolution:
    parts = {seq: _superpose(columns, weights[seq]) for seq, columns in builds.items()}
    return SequenceSolution(
        v={seq: part[0] for seq, part in parts.items()},
        i_series={seq: part[1] for seq, part in parts.items()},
        source_out={seq: part[2] for seq, part in parts.items()},
    )


def solve_linear(
    net: NetworkModel,
    zero_sources: bool = False,
    extra_injections: dict[int, tuple[str, complex]] | None = None,
    sequences: tuple[int, ...] = SEQUENCES,
) -> SequenceSolution:
    """Solve the sequence networks as they stand (no fault logic).

    An extra injection (node, current) in a sequence adds that current at
    the node; zero_sources drops every source, leaving only the extra
    injections. The three sequence networks are independent, so a caller
    that reads only some of them may restrict `sequences`; the others are
    then absent from the solution, and reading them raises KeyError.
    """
    builds: dict[int, list[_Column]] = {}
    weights: _Weights = {}
    for seq in sequences:
        extra = extra_injections.get(seq) if extra_injections else None
        builds[seq] = _solve_one_sequence(net, seq, (extra[0],) if extra else ())
        weights[seq] = [0.0 if zero_sources else 1.0] + ([extra[1]] if extra else [])
    return _sequence_solution(builds, weights)


def driving_point(net: NetworkModel, node: str) -> tuple[complex, complex]:
    """The positive-sequence network seen from node, from one build.

    Returns (v_oc, z): the node voltage is v_oc + z * i when a current i is
    injected there.
    """
    base, probe = _solve_one_sequence(net, 1, (node,))
    return base[0][node], probe[0][node]


def _fault_builds(net: NetworkModel, port: str = "") -> dict[int, list[_Column]]:
    """Each sequence network built once, probed at the fault node and the port.

    The port carries positive- and negative-sequence currents only, so the
    zero-sequence network is not probed there.
    """
    return {
        seq: _solve_one_sequence(
            net, seq, (net.fault_node, port) if port and seq != 0 else (net.fault_node,)
        )
        for seq in SEQUENCES
    }


def _thevenin(builds: dict[int, list[_Column]], node: str, base: _Weights) -> TheveninEquivalent:
    """Fault-probe column at node (impedances), base solution there (voltages)."""
    return TheveninEquivalent(
        z1=builds[1][1][0][node],
        z2=builds[2][1][0][node],
        z0=builds[0][1][0][node],
        e_f=_voltage(builds[1], node, base[1]),
        e_f2=_voltage(builds[2], node, base[2]),
        e_f0=_voltage(builds[0], node, base[0]),
    )


def thevenin_at_fault(net: NetworkModel) -> TheveninEquivalent:
    """Driving-point impedances at the fault node and its open-circuit voltages.

    One nodal build per sequence solves the network as it stands and a
    unit-current probe at the fault node with all sources zeroed (ideal
    sources short, Norton admittances kept, injections open); the
    impedances are the probe column at the fault node, the open-circuit
    voltages the base column there.
    """
    base = {seq: [1.0, 0.0] for seq in SEQUENCES}
    return _thevenin(_fault_builds(net), net.fault_node, base)


def solve_fault_boundary(
    thevenin: TheveninEquivalent, spec: FaultSpec, z_base_ohm: float
) -> SequenceTriple:
    """Sequence fault currents drawn out of the network at the fault node.

    Canonical a-referenced interconnections, with the ground-path resistance
    entering the zero-sequence branch as 3R and phase resistances where the
    category puts them; the cyclic shift rule then rotates the solution onto
    the requested phases. Open-circuit negative/zero-sequence voltages enter
    the same interconnections after being carried into the a-referenced
    frame, so the boundary stays exact when the base network is unbalanced.
    """
    r = spec.r_g_ohm / z_base_ohm
    z1, z2, z0, e_f = thevenin.z1, thevenin.z2, thevenin.z0, thevenin.e_f
    cat = spec.fault_type.category

    k = spec.fault_type.shift
    rot2 = ALPHA**k
    rot0 = ALPHA ** (2 * k)
    e2h = thevenin.e_f2 * rot2.conjugate()
    e0h = thevenin.e_f0 * rot0.conjugate()

    if cat is FaultCategory.SLG:
        i1 = (e_f + e2h + e0h) / (z1 + z2 + z0 + 3.0 * r)
        i2 = i1
        i0 = i1
    elif cat is FaultCategory.LL:
        i1 = (e_f - e2h) / (z1 + z2 + r)
        i2 = -i1
        i0 = 0j
    elif cat is FaultCategory.LLG:
        zg = z0 + 3.0 * r
        vx = (e_f / z1 + e2h / z2 + e0h / zg) / (1.0 / z1 + 1.0 / z2 + 1.0 / zg)
        i1 = (e_f - vx) / z1
        i2 = (e2h - vx) / z2
        i0 = (e0h - vx) / zg
    else:  # SYM: per-phase resistance star, no ground return
        i1 = e_f / (z1 + r)
        i2 = e2h / (z2 + r)
        i0 = 0j

    return SequenceTriple(pos=i1, neg=i2 * rot2, zero=i0 * rot0)


def back_distribute(net: NetworkModel, i_fault: SequenceTriple) -> SequenceSolution:
    """Pure-fault solution: passive network with the fault current extracted."""
    pulls = {1: -i_fault.pos, 2: -i_fault.neg, 0: -i_fault.zero}
    return solve_linear(
        net,
        zero_sources=True,
        extra_injections={seq: (net.fault_node, pulls[seq]) for seq in SEQUENCES},
    )


@dataclass(frozen=True)
class FaultResponse:
    """One faulted network as an affine function of the currents injected at a port.

    `solve_fault` builds each sequence network once and solves its
    right-hand sides together: the network as it stands, a unit current at
    the fault node and, in the positive and negative sequences when a port
    node is named, a unit current at the port. The rest is superposition.
    Injecting (i1, i2) at the port adds i1 and i2 times the port columns to
    the base solution, and with it to the open-circuit voltages at the
    fault node; the boundary conditions turn those into the fault current;
    the pure-fault solution is minus that current times the fault column.
    """

    net: NetworkModel
    spec: FaultSpec
    port: str
    builds: dict[int, list[_Column]]

    def _weights(
        self, i1: complex, i2: complex
    ) -> tuple[TheveninEquivalent, SequenceTriple, _Weights, _Weights, _Weights]:
        """Thevenin view, fault current, and the base, pure and total column weights."""
        if not self.port and (i1 or i2):
            raise ValueError("no port to inject at: solve the fault with a port node")
        inject = {1: [i1], 2: [i2], 0: []} if self.port else {1: [], 2: [], 0: []}
        base = {seq: [1.0, 0.0, *inject[seq]] for seq in SEQUENCES}
        thevenin = _thevenin(self.builds, self.net.fault_node, base)
        i_fault = solve_fault_boundary(thevenin, self.spec, self.net.z_base_fault_ohm)
        pure = {
            seq: [0.0, -i_f] + [0.0] * len(inject[seq])
            for seq, i_f in ((1, i_fault.pos), (2, i_fault.neg), (0, i_fault.zero))
        }
        total = {seq: [a + b for a, b in zip(base[seq], pure[seq])] for seq in SEQUENCES}
        return thevenin, i_fault, base, pure, total

    def voltage(self, node: str, i1: complex = 0j, i2: complex = 0j) -> SequenceTriple:
        """Faulted sequence voltages at node with (i1, i2) injected at the port."""
        total = self._weights(i1, i2)[4]
        v = {seq: _voltage(self.builds[seq], node, total[seq]) for seq in SEQUENCES}
        return SequenceTriple(pos=v[1], neg=v[2], zero=v[0])

    def at(self, i1: complex = 0j, i2: complex = 0j) -> FaultSolution:
        """The fault solution with (i1, i2) injected at the port."""
        return FaultSolution(self, i1, i2)


def solve_fault(net: NetworkModel, spec: FaultSpec, port: str = "") -> FaultSolution:
    """Full linear fault solve: one nodal build per sequence, then superposition.

    With a port node named, the solution's `response` also gives the fault
    solution for any positive- and negative-sequence currents injected
    there, without another solve.
    """
    return FaultSolution(FaultResponse(net, spec, port, _fault_builds(net, port)))
