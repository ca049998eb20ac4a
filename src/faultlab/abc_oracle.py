"""Independent phase-coordinate fault solver used as a numerical oracle.

The main pipeline decomposes faults into sequence networks, solves each
sequence with boundary conditions at the fault point, and superposes. This
module solves the same element list a completely different way: every
element's three-phase admittance block is built by similarity transform

    Y_abc = A diag(y0, y1, y2) A^-1

with A the mode synthesis matrix (columns: zero, positive, negative;
inverted numerically), and the fault is stamped literally as phase-domain
branches: a bolted connection merges unknowns, a resistive one stamps a
conductance. One complex nodal solve covers the whole unbalanced system at
once. No sequence decomposition, no superposition, no boundary formulas.
Agreement between the two routes to 1e-8 is therefore evidence, not
tautology: they share only the element list, the memo that holds what a
network object determines (`network._shared`) and the LU arithmetic
(`network.factor_dense` and `network.solve_factored`).

The matrix depends on the network and the fault alone; only the
right-hand side (the sources' emfs, the injected currents, a probe)
changes from case to case. So the matrix is stamped and factored once per
network object and fault, bit for bit, and each solve builds its
right-hand side and replays the factorization on it, to the bits that
eliminating the matrix again would give. A singular matrix stores
nothing, and raises on every solve.

Assembly is by row index: each node's three phase rows are looked up once
per network and fault, and every block entry is added into the matrix in
element order, so each entry sums its stamps in the order that keying
every entry by (node, phase) gave. The block and matrix-vector products
are written out as three-term sums from the int 0 that `sum` starts from,
so their zeros keep the signs that `sum` gives them.

Scope: sources must be Norton-representable (nonzero impedance in every
sequence they span) or replaced by equivalent current injections; the
converter's frozen operating states already fit that form. A node whose
zero mode touches nothing (delta-side terminals) gets a reference zero-mode
tie to ground; no physical zero-sequence current can reach such a node, so
the tie carries none and merely pins the otherwise indeterminate common
mode at zero, matching the sequence-side convention.
"""

from __future__ import annotations

import cmath
import math

from .network import (
    GROUND,
    FaultCategory,
    FaultSpec,
    InjectionElement,
    NetworkModel,
    RelayTap,
    SeriesElement,
    SingularNetworkError,
    SourceElement,
    _bitwise,
    _shared,
    factor_dense,
    solve_dense,
    solve_factored,
)
from .phasors import PhaseTriple
from .records import Record

__all__ = ["OracleUnsupportedError", "AbcSolution", "solve_abc"]

PHASES = ("a", "b", "c")
_STAR = ("_fault_star", "s")  # single scalar node for the three-phase star point
_GROUND_KEY = (GROUND, "*")


def _mat_vec(m: list[list[complex]], v: list[complex]) -> list[complex]:
    # `sum` spelled out: the same int 0 start and the same left-to-right adds
    v0, v1, v2 = v
    return [0 + a0 * v0 + a1 * v1 + a2 * v2 for a0, a1, a2 in m]


# mode synthesis matrix: columns are (zero, positive, negative) unit sets
_W = cmath.exp(2j * math.pi / 3.0)
A_MATRIX = [[1.0, 1.0, 1.0], [1.0, _W**2, _W], [1.0, _W, _W**2]]
A_INV = solve_dense(
    [row[:] for row in A_MATRIX], [[float(r == c) for c in range(3)] for r in range(3)]
)


class OracleUnsupportedError(ValueError):
    """The element list contains something the phase solver cannot stamp."""


def _block(z1: complex | None, z2: complex | None, z0: complex | None) -> list[list[complex]]:
    """Three-phase admittance block of a symmetric element."""

    def y(z: complex | None) -> complex:
        if z is None:
            return 0j
        if z == 0:
            raise OracleUnsupportedError(
                "zero-impedance branch cannot be stamped as an admittance; "
                "replace the pinned source with its injection equivalent"
            )
        return 1.0 / z

    # A diag(modes) A^-1 entry by entry, as `sum` over the modes would add it
    m0, m1, m2 = y(z0), y(z1), y(z2)
    inv0, inv1, inv2 = A_INV
    return [
        [0 + a0 * m0 * inv0[q] + a1 * m1 * inv1[q] + a2 * m2 * inv2[q] for q in range(3)]
        for a0, a1, a2 in A_MATRIX
    ]


_Y_ZERO_REF = _block(None, None, 1.0)  # unit zero-mode tie


class _Merge:
    """Union-find over phase-node keys with a grounded sentinel root."""

    def __init__(self) -> None:
        self._parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(self, key: tuple[str, str]) -> tuple[str, str]:
        root = key
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(key, key) != key:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: tuple[str, str], b: tuple[str, str]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if ra == _GROUND_KEY:  # keep the ground root canonical
            self._parent[rb] = ra
        else:
            self._parent[ra] = rb

    def ground(self, key: tuple[str, str]) -> None:
        self.union(key, _GROUND_KEY)


class AbcSolution(Record):
    """Phase-domain nodal solution over the full unbalanced network."""

    v_phase: dict[str, PhaseTriple]
    net: NetworkModel
    # each series and source element's 3x3 admittance block, as stamped
    blocks: dict[str, list[list[complex]]]

    def voltage(self, node: str) -> PhaseTriple:
        if node == GROUND:
            return PhaseTriple(0j, 0j, 0j)
        return self.v_phase[node]

    def series_current(self, eid: str) -> PhaseTriple:
        """Phase currents through a series element, from -> to."""
        elem = self._element(eid, SeriesElement)
        dv = self.voltage(elem.n_from) - self.voltage(elem.n_to)
        return PhaseTriple(*_mat_vec(self.blocks[eid], [dv.a, dv.b, dv.c]))

    def source_current(self, eid: str) -> PhaseTriple:
        """Phase currents a Norton source delivers into its node."""
        elem = self._element(eid, SourceElement)
        dv = PhaseTriple(*_mat_vec(A_MATRIX, [0j, elem.e1, 0j])) - self.voltage(elem.node)
        return PhaseTriple(*_mat_vec(self.blocks[eid], [dv.a, dv.b, dv.c]))

    def reading(self, tap: RelayTap) -> tuple[PhaseTriple, PhaseTriple]:
        """(bus phase voltages, phase currents in the tap's direction)."""
        i = self.series_current(tap.eid)
        if tap.sign < 0:
            i = i.scaled(-1.0)
        return self.voltage(tap.bus), i

    def _element(self, eid: str, kind: type) -> SeriesElement | SourceElement:
        elem = self.net.element(eid)
        if not isinstance(elem, kind):
            raise KeyError(f"no {kind.__name__} {eid!r}")
        return elem


def _fault_stamps(
    spec: FaultSpec, fault_node: str, r_pu: float, merge: _Merge
) -> list[tuple[tuple[str, str], tuple[str, str] | None, complex]]:
    """Phase-domain branches realizing the fault; merges applied in place.

    Returns (key, other_key_or_None_for_ground, admittance) scalar stamps
    for the resistive cases; bolted cases only mutate the merge structure.
    """
    keys = [(fault_node, p) for p in spec.fault_type.phases]
    stamps: list[tuple[tuple[str, str], tuple[str, str] | None, complex]] = []
    cat = spec.fault_type.category

    if cat is FaultCategory.SLG:
        (key,) = keys
        if r_pu == 0.0:
            merge.ground(key)
        else:
            stamps.append((key, None, 1.0 / r_pu))
    elif cat is FaultCategory.LL:
        k1, k2 = keys
        if r_pu == 0.0:
            merge.union(k1, k2)
        else:
            stamps.append((k1, k2, 1.0 / r_pu))
    elif cat is FaultCategory.LLG:
        k1, k2 = keys
        merge.union(k1, k2)  # phase bridge is bolted; r sits in the ground leg
        if r_pu == 0.0:
            merge.ground(k1)
        else:
            stamps.append((k1, None, 1.0 / r_pu))
    else:  # symmetrical: bolted merge, or per-phase r into a floating star
        if r_pu == 0.0:
            merge.union(keys[0], keys[1])
            merge.union(keys[1], keys[2])
        else:
            for key in keys:
                stamps.append((key, _STAR, 1.0 / r_pu))
    return stamps


def _zero_floating_nodes(
    net: NetworkModel, nodes: tuple[str, ...], exclude: set[str]
) -> set[str]:
    """Those of net's nodes with no zero-sequence path through any element."""
    touched: set[str] = set()
    for elem in net.elements:
        if isinstance(elem, SeriesElement) and elem.z0 is not None:
            touched.update((elem.n_from, elem.n_to))
        elif isinstance(elem, SourceElement) and elem.z0 is not None:
            touched.add(elem.node)
    return set(nodes) - touched - exclude


_SINGULAR = "phase-domain system is singular or its solve is not finite"


def _add_rhs(rhs: list[list[complex]], rows: tuple[int | None, ...], j: list[complex]) -> None:
    for ki, val in zip(rows, j):
        if ki is not None:
            rhs[ki][0] += val


def solve_abc(
    net: NetworkModel,
    spec: FaultSpec | None = None,
    zero_sources: bool = False,
    probe: tuple[str, int] | None = None,
    injections: tuple[InjectionElement, ...] = (),
) -> AbcSolution:
    """Full phase-coordinate nodal solve of the (possibly faulted) network.

    The fault node must already exist in the element topology (the builders
    split the host branch); spec then decides which phase branches to stamp
    there. spec=None solves the healthy network. injections are current
    injections at nodes of net, taken as coming after its elements: they
    enter only the right-hand side, so `solve_abc(net, spec,
    injections=(inj,))` is `solve_abc(net.with_elements(inj), spec)` bit
    for bit, with `net` as the solution's network. probe=(node, seq)
    injects a unit current set of the given sequence, and zero_sources
    leaves every source and injection dead. Pinned (zero-impedance) sources
    are rejected; freeze them to injection equivalents first.

    The matrix and its factors depend on net and spec alone, so they are
    made once per network object and fault, bit for bit (`_system`, held
    by `network._shared`); a call builds its right-hand side, in element
    order and then the probe, and solves it on those factors.
    """
    what = ("abc", None if spec is None else _bitwise(*spec))
    nodes, rows_of, blocks, sourced, factors = _shared(net, what, _system, net, spec)
    rhs = [[0j] for _ in sourced] if zero_sources else [[v] for v in sourced]
    for elem in injections:
        if elem.node not in rows_of:
            raise SingularNetworkError(f"node {elem.node!r} is not in the phase network")
        if not zero_sources:
            _add_rhs(rhs, rows_of[elem.node], _mat_vec(A_MATRIX, [0j, elem.i1, elem.i2]))

    if probe is not None:
        node, seq = probe
        unit = {1: [0j, 1.0 + 0j, 0j], 2: [0j, 0j, 1.0 + 0j], 0: [1.0 + 0j, 0j, 0j]}[seq]
        _add_rhs(rhs, rows_of[node], _mat_vec(A_MATRIX, unit))

    solution = solve_factored(factors, rhs)
    if solution is None:
        raise SingularNetworkError(_SINGULAR)

    v_phase = {
        node: PhaseTriple(*(0j if ki is None else solution[ki][0] for ki in rows_of[node]))
        for node in nodes
    }
    return AbcSolution(v_phase=v_phase, net=net, blocks=blocks)


def _system(net: NetworkModel, spec: FaultSpec | None) -> tuple:
    """What net and spec alone determine of the phase solve.

    Merges the fault's bolted keys, stamps the matrix and factors it
    (`factor_dense`); a zero pivot raises SingularNetworkError. Returns the
    nodes; each node's three phase rows (ground's are None); each series
    and source element's admittance block; the right-hand side that net's
    own sources and injections give, by row, each added in element order
    to a sum that starts at 0j; and the factors.
    """
    merge = _Merge()
    stamps: list[tuple[tuple[str, str], tuple[str, str] | None, complex]] = []
    if spec is not None:
        if not net.fault_node:
            raise OracleUnsupportedError("network has no fault node to stamp")
        r_pu = spec.r_g_ohm / net.z_base_fault_ohm
        stamps = _fault_stamps(spec, net.fault_node, r_pu, merge)

    # never reference-tie the fault node: fault stamps may legitimately
    # couple or ground its zero mode
    exclude = {net.fault_node} if spec is not None else set()
    nodes = net.nodes()
    reference_nodes = _zero_floating_nodes(net, nodes, exclude)

    keys = [(n, p) for n in nodes for p in PHASES]
    if any(other == _STAR for _, other, _ in stamps):
        keys.append(_STAR)
    # every key resolved to its row once, after the fault merges: merged
    # keys share the row of their root, grounded ones have none
    index: dict[tuple[str, str], int] = {}
    row_of: dict[tuple[str, str], int | None] = {}
    for key in keys:
        root = merge.find(key)
        row_of[key] = None if root == _GROUND_KEY else index.setdefault(root, len(index))
    n_unknowns = len(index)
    if n_unknowns == 0:
        raise SingularNetworkError("phase network has no unknowns")
    # each node's three phase rows, looked up once; ground has none
    rows_of = {node: tuple(row_of[(node, p)] for p in PHASES) for node in nodes}
    rows_of[GROUND] = (None, None, None)

    amat = [[0j] * n_unknowns for _ in range(n_unknowns)]
    rhs = [[0j] for _ in range(n_unknowns)]

    def add(row: tuple[str, str], col: tuple[str, str], val: complex) -> None:
        ri, ci = row_of[row], row_of[col]
        if ri is not None and ci is not None:
            amat[ri][ci] += val

    def stamp_block(nf: str, nt: str, blk: list[list[complex]]) -> None:
        # the four entries of each (p, q) in a fixed order, so that every
        # amat entry sums its stamps in element order
        rf, rt = rows_of[nf], rows_of[nt]
        for fp, tp, blk_p in zip(rf, rt, blk):
            for fq, tq, y in zip(rf, rt, blk_p):
                if y == 0:
                    continue
                if fp is not None:
                    if fq is not None:
                        amat[fp][fq] += y
                    if tq is not None:
                        amat[fp][tq] += -y
                if tp is not None:
                    if tq is not None:
                        amat[tp][tq] += y
                    if fq is not None:
                        amat[tp][fq] += -y

    blocks: dict[str, list[list[complex]]] = {}
    for elem in net.elements:
        if isinstance(elem, SeriesElement):
            blk = blocks[elem.eid] = _block(elem.z1, elem.z2, elem.z0)
            stamp_block(elem.n_from, elem.n_to, blk)
        elif isinstance(elem, SourceElement):
            blk = blocks[elem.eid] = _block(elem.z1, elem.z2, elem.z0)
            stamp_block(elem.node, GROUND, blk)
            emf = _mat_vec(blk, _mat_vec(A_MATRIX, [0j, elem.e1, 0j]))
            _add_rhs(rhs, rows_of[elem.node], emf)
        elif isinstance(elem, InjectionElement):
            _add_rhs(rhs, rows_of[elem.node], _mat_vec(A_MATRIX, [0j, elem.i1, elem.i2]))
        else:
            raise OracleUnsupportedError(f"cannot stamp element type {type(elem).__name__}")

    for node in reference_nodes:
        stamp_block(node, GROUND, _Y_ZERO_REF)

    for key, other, y in stamps:
        add(key, key, y)
        if other is not None:
            add(other, other, y)
            add(key, other, -y)
            add(other, key, -y)

    factors = factor_dense(amat)
    if factors is None:
        raise SingularNetworkError(_SINGULAR)
    return nodes, rows_of, blocks, tuple(row[0] for row in rhs), factors
