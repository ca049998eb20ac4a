"""Source models and the nonlinear fault solve.

Two sources can sit behind bus 1:

* A synchronous generator: constant internal emf behind fixed sequence
  reactances. Faults stay linear; one network solve suffices.
* A grid-forming converter: internal reference behind a current-limiting
  control. Under fault the control state (saturation ratios or shaped
  virtual impedance) depends on the very currents and voltages it produces,
  so the fault solution is a fixed point, found here by semismooth Newton
  iteration with a damped fallback.

Both fault solves return a `SourceSolution`: the terminal state, the source
branch impedance per sequence and the source frozen at that state, so that
the harness reads either kind the same way.

The iteration does not solve the network. Seen from the converter
terminal the faulted network is affine in the two channel currents the
converter injects (it is open in the zero sequence):

    v = v_oc + Z_port @ i,    v = (v1, v2), i = (i1, i2)

One linear fault solve per scenario, with the terminal as its port, gives
the faulted network's response to any (i1, i2) by superposition;
(v_oc, Z_port) are read off it once, and every iteration is then 2x2
complex arithmetic.

The fault condition is a fixed point x = law(x) of a real state: the
(Re, Im) parts of (i1, i2) for the saturation modes, whose law reads the
terminal voltages off the port for the injected currents, runs the
proportional voltage loop and clips its output; and of Z_v for the shaping
modes, whose law puts the emf behind z_branch in both channels, solves
(Z_port + z_branch * I) @ i = (e_ref1, 0) - v_oc and recomputes Z_v. One
driver solves all five laws. Each iteration tries a Newton step on G(x) =
law(x) - x, capped at 0.5 in max-norm and kept only if it halves the
residual (the largest |law - x| over the complex unknowns), and otherwise
takes the damped step x + lam * G (lam = 0.5 unless solver.damping says
otherwise; it halves each time the residual plateaus, and a plateau at its
floor of 0.005 is reported as a limit cycle). The Jacobian is taken by
forward differences on the port model with the limiter frozen on the base
point's branch (the phase that sets the common rescale and whether it
binds; priority's d/q clamps), so it is an element of the generalized
Jacobian of the piecewise-smooth G: a semismooth Newton step, which
converges where two phase currents tie at the cap. The saturation modes
start from the currents that pin the terminal at the reference, which are
the fixed point when the limiter stays idle; while it is idle G is affine
and Newton solves it in one step. The relay readings are the same
response at the converged terminal currents; a shaping law's source
branch enters through its terminal currents (substitution theorem).

One iteration is one update of the state, by the Newton step or the damped
step; the starting state counts as the first. The Newton trial that is
rejected and the Jacobian probes are not iterations. solver.max_iter
bounds the iterations.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .clc import (
    ClcConfig,
    ClcKind,
    clc_adaptive_impedance,
    clc_virtual_admittance,
    instantaneous_two_channel,
    max_phase_current,
    phase_components,
)
from .network import (
    FaultResponse,
    FaultSolution,
    FaultSpec,
    InjectionElement,
    NetworkModel,
    SingularNetworkError,
    SourceElement,
    driving_point,
    solve_fault,
    solve_linear,  # noqa: F401  unused here; perfbench's tracer wraps it under this name
)
from .phasors import SequenceTriple, from_polar, inverse_fortescue

__all__ = [
    "NoConvergenceError",
    "OscillationDetectedError",
    "SgModel",
    "GfmModel",
    "OperatingPoint",
    "SourceSolution",
    "TerminalPort",
    "terminal_port",
    "prefault_solve",
    "solve_sg_fault",
    "fault_fixed_point",
    "incremental_source_impedance",
]

SOURCE_EID = "src"


class NoConvergenceError(RuntimeError):
    """Iteration exhausted its budget with a shrinking but unmet residual."""


class OscillationDetectedError(RuntimeError):
    """Iteration residual stopped decreasing (limit cycle between states)."""


@dataclass(frozen=True)
class SgModel:
    """Synchronous generator: emf behind fixed sequence reactances (pu)."""

    x1: float = 0.2
    x2: float = 0.2
    x0: float = 0.1

    def __post_init__(self) -> None:
        if self.x1 <= 0.0 or self.x2 <= 0.0 or self.x0 <= 0.0:
            raise ValueError("generator sequence reactances must be positive")

    def source_element(self, node: str, e1: complex) -> SourceElement:
        return SourceElement(
            SOURCE_EID, node, e1=e1, z1=1j * self.x1, z2=1j * self.x2, z0=1j * self.x0
        )


@dataclass(frozen=True)
class GfmModel:
    """Grid-forming converter: reference behind a current-limiting control.

    x_f is the filter reactance. It sits inside the control loop for every
    strategy except the one that shapes impedance directly on the converter
    bridge; only then (filter_in_network=True, adaptive kind) does x_f
    appear as a network branch in series with Z_v.
    """

    clc: ClcConfig = field(default_factory=ClcConfig)
    k_pv: float = 2.0
    x_f: float = 0.15
    filter_in_network: bool = False

    def __post_init__(self) -> None:
        if self.k_pv <= 0.0:
            raise ValueError("voltage-loop gain k_pv must be positive")
        if self.x_f < 0.0:
            raise ValueError("filter reactance must be non-negative")
        if self.filter_in_network and self.clc.kind is not ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE:
            raise ValueError(
                "filter_in_network applies only to the adaptive virtual impedance "
                "variant that shapes impedance at the bridge"
            )

    @property
    def x_f_network(self) -> float:
        """Filter reactance as seen by the network (0 when inside the loop)."""
        return self.x_f if self.filter_in_network else 0.0

    def normal_z(self) -> complex | None:
        """Source-branch impedance during normal (unlimited) operation.

        The admittance mode always keeps its nominal Z_v; the others hold
        the terminal voltage stiffly (zero source impedance apart from a
        network-side filter).
        """
        z = complex(0.0)
        if self.clc.kind is ClcKind.VIRTUAL_ADMITTANCE:
            z += complex(self.clc.r_vn, self.clc.x_vn)
        z += 1j * self.x_f_network
        return z


@dataclass(frozen=True)
class OperatingPoint:
    """Pre-fault internal reference and attachment-node state (pu, peak)."""

    e_mag: float
    theta_deg: float
    v_attach: complex
    i_attach: complex
    p: float
    q: float
    iterations: int

    @property
    def e_ref1(self) -> complex:
        return from_polar(self.e_mag, self.theta_deg)

    @property
    def theta_rad(self) -> float:
        return math.radians(self.theta_deg)


def _dispatch(
    x: np.ndarray, v_oc: complex, z_th: complex, z_loop: complex
) -> tuple[complex, complex, complex, np.ndarray]:
    """Node voltage, current and power of the emf E e^{j theta} behind z.

    x = [E, theta]; z_loop = z + z_th. Also returns the exact Jacobian of
    (P, Q) over x: de/dE = e / E = e^{j theta}, de/dtheta = j e,
    di = de / z_loop, dv = z_th di, and dS = dv conj(i) + v conj(di).
    """
    e = cmath.rect(x[0], x[1])
    i = (e - v_oc) / z_loop
    v = v_oc + z_th * i
    jac = np.empty((2, 2))
    for col, de in enumerate((cmath.rect(1.0, x[1]), 1j * e)):
        di = de / z_loop
        ds = z_th * di * i.conjugate() + v * di.conjugate()
        jac[:, col] = ds.real, ds.imag
    return v, i, v * i.conjugate(), jac


def prefault_solve(
    net: NetworkModel,
    source: SgModel | GfmModel,
    p_ref: float = 1.0,
    q_ref: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> OperatingPoint:
    """Find (E, theta) so the source delivers (p_ref, q_ref) at its node.

    Two-variable Newton iteration with the exact Jacobian. Powers are
    v * conj(i) in pu on the system base, i the positive-sequence current
    out of the source branch. Only the positive sequence carries the
    dispatch, and seen from the source node its healthy network is the
    one-port v = v_oc + z_th * i, so the emf e behind the branch impedance
    z delivers i = (e - v_oc) / (z + z_th): no network solve per iterate.
    """
    z = 1j * source.x1 if isinstance(source, SgModel) else source.normal_z()
    v_oc, z_th = driving_point(net, net.source_node)
    if z + z_th == 0:
        raise SingularNetworkError("positive-sequence network is singular at the source node")

    x = np.array([1.0, 0.0])  # [E, theta_rad]
    for it in range(1, max_iter + 1):
        v, i, s, jac = _dispatch(x, v_oc, z_th, z + z_th)
        r = np.array([s.real - p_ref, s.imag - q_ref])
        if max(abs(r[0]), abs(r[1])) < tol:
            return OperatingPoint(
                e_mag=x[0],
                theta_deg=math.degrees(x[1]),
                v_attach=v,
                i_attach=i,
                p=s.real,
                q=s.imag,
                iterations=it,
            )
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular power-flow Jacobian at iteration {it}") from exc
        # trust region: cap the step so the iterate stays in a sane basin
        step[0] = max(-0.2, min(0.2, step[0]))
        step[1] = max(-0.5, min(0.5, step[1]))
        x = x - step
        if x[0] <= 0.0:
            raise NoConvergenceError("power-flow iterate drove the emf magnitude non-positive")
    raise NoConvergenceError(
        f"pre-fault power flow missed tol={tol} after {max_iter} iterations"
    )


@dataclass(frozen=True)
class SourceSolution:
    """Fault-time state of the source behind bus 1, either kind (pu, peak).

    The generator is linear: one solve, no limiter, no control quantities.
    The converter's state is the converged fixed point of its limiting law.
    """

    v_t: SequenceTriple  # terminal (attachment node) voltage
    i_t: SequenceTriple  # current delivered into the network
    # source branch impedance as the network sees it, per sequence (positive,
    # negative, zero); None where a dead converter channel leaves it undefined
    z_branch: tuple[complex | None, complex | None, complex]
    limiter_active: bool
    iterations: int
    residual: float
    fault: FaultSolution
    # the source frozen at this state, for the phase-domain cross-check
    frozen: SourceElement | InjectionElement
    # largest per-phase waveform amplitude the source actually carries.
    # For sinusoidal modes this is the largest phase-phasor magnitude; for
    # the clipper it is the clipped peak, which the fundamental phasor that
    # the network sees may exceed (up to 4/pi of the clip level).
    i_max_phase: float
    z_v1: complex | None = None  # (e_ref1 - v_t1) / i_t1, None if the channel is dead
    z_v2: complex | None = None  # -v_t2 / i_t2
    sigma1: complex | None = None  # saturation ratio per channel, None for shaping modes
    sigma2: complex | None = None


def solve_sg_fault(
    net: NetworkModel, sg: SgModel, spec: FaultSpec, op: OperatingPoint
) -> SourceSolution:
    """Fault solution for the linear (generator) source: one shot."""
    element = sg.source_element(net.source_node, op.e_ref1)
    fault = solve_fault(net.with_elements(element), spec)
    i_t = fault.total.source_current(SOURCE_EID)
    return SourceSolution(
        v_t=fault.total.voltage(net.source_node),
        i_t=i_t,
        z_branch=(element.z1, element.z2, element.z0),
        limiter_active=False,
        iterations=1,
        residual=0.0,
        fault=fault,
        frozen=element,
        i_max_phase=inverse_fortescue(i_t).max_abs(),
    )


def _ratio(num: complex, den: complex, floor: float = 1e-9) -> complex | None:
    if abs(den) < floor:
        return None
    return num / den


@dataclass(frozen=True)
class TerminalPort:
    """The faulted network reduced to the converter terminal (pu, peak).

    The network is linear and the converter is open in the zero sequence,
    so the terminal sequence voltages are affine in the positive- and
    negative-sequence currents the converter injects:

        [v1, v2] = [v1_oc, v2_oc] + Z_port @ [i1, i2]

    Z_port is the 2x2 port (Kron) reduction of the faulted network; an
    unbalanced fault couples the two channels, so it is not diagonal.
    """

    v1_oc: complex
    v2_oc: complex
    z11: complex
    z12: complex
    z21: complex
    z22: complex

    def voltage(self, i1: complex, i2: complex) -> tuple[complex, complex]:
        """Terminal voltages for injected channel currents."""
        return (
            self.v1_oc + self.z11 * i1 + self.z12 * i2,
            self.v2_oc + self.z21 * i1 + self.z22 * i2,
        )

    def current_behind(self, e1: complex, z_b: complex) -> tuple[complex, complex]:
        """Channel currents of the emf (e1, 0) behind z_b in both channels.

        Solves (Z_port + z_b * I) @ i = (e1, 0) - v_oc; z_b = 0 pins the
        terminal voltage at the emf.
        """
        a11 = self.z11 + z_b
        a22 = self.z22 + z_b
        det = a11 * a22 - self.z12 * self.z21
        if det == 0:
            raise SingularNetworkError("converter terminal port is singular")
        r1 = e1 - self.v1_oc
        r2 = -self.v2_oc
        return (a22 * r1 - self.z12 * r2) / det, (a11 * r2 - self.z21 * r1) / det


def terminal_port(response: FaultResponse) -> TerminalPort:
    """Reduce a faulted network to its port, the converter terminal.

    Reads the port voltages off the fault response with no injection, then
    with a unit current in each channel for the columns of Z_port.
    """
    v = response.voltage(response.port)
    a = response.voltage(response.port, 1.0 + 0j, 0j)
    b = response.voltage(response.port, 0j, 1.0 + 0j)
    return TerminalPort(
        v.pos, v.neg, z11=a.pos - v.pos, z12=b.pos - v.pos, z21=a.neg - v.neg, z22=b.neg - v.neg
    )


def _clamp(value: float, bound: float, side: int | None) -> tuple[float, int]:
    """Clamp value to [-bound, bound]; side (-1, 0 or 1) fixes the branch."""
    if side is None:
        side = (value > bound) - (value < -bound)
    return (value if side == 0 else side * bound), side


def _priority_clamp(
    cfg: ClcConfig, ref_dq: complex, sides: tuple[int | None, int | None]
) -> tuple[complex, tuple[int, int]]:
    """Clamp d to the limit, then q to the headroom d leaves."""
    d, side_d = _clamp(ref_dq.real, cfg.i_lim, sides[0])
    q, side_q = _clamp(ref_dq.imag, math.sqrt(max(0.0, cfg.i_lim**2 - d * d)), sides[1])
    return complex(d, q), (side_d, side_q)


def _limit(
    cfg: ClcConfig, theta: float, ref1: complex, ref2: complex, branch: tuple | None
) -> tuple[complex, complex, tuple]:
    """Limiter output (network frame) for the loop references.

    Also returns the branch the limiter took: priority's d/q clamps, the
    phase that sets the common rescale and whether the rescale binds.
    Passing a branch back evaluates that smooth piece of the limiter even
    where another piece would be picked. The clipper is smooth: no branch.
    """
    if cfg.kind is ClcKind.INSTANTANEOUS:
        return (*instantaneous_two_channel(cfg, ref1, ref2), ())
    clamps, cap = branch or (((None, None), (None, None)), None)
    if cfg.kind is ClcKind.PRIORITY:
        # each channel is clamped in its own synchronous frame first
        rot = cmath.exp(-1j * theta)
        dq1, sides1 = _priority_clamp(cfg, ref1 * rot, clamps[0])
        dq2, sides2 = _priority_clamp(cfg, ref2 / rot, clamps[1])
        ref1, ref2, clamps = dq1 / rot, dq2 * rot, (sides1, sides2)
    # one real shrink factor keeps every phase inside i_lim and both
    # channel angles untouched; the largest phase sets it
    phases = phase_components(ref1, ref2)
    if cap is None:
        peak = max(range(3), key=lambda n: abs(phases[n]))
        cap = (peak, abs(phases[peak]) > cfg.i_lim)
    scale = cfg.i_lim / abs(phases[cap[0]]) if cap[1] else 1.0
    return ref1 * scale, ref2 * scale, (clamps, cap)


def _plateaued(history: list[float], window: int = 10, shrink: float = 0.95) -> bool:
    """True when the residual has stopped making real progress."""
    if len(history) < 2 * window:
        return False
    recent = history[-window:]
    earlier = history[-2 * window : -window]
    return min(recent) > shrink * min(earlier)


# the driver's Newton step: forward-difference Jacobian of step _FD_H,
# capped at _STEP_CAP in max-norm; the damping factor halves down to _LAM_FLOOR
_FD_H = 1e-7
_STEP_CAP = 0.5
_LAM_FLOOR = 0.005

# law(x, branch) -> (law output, branch it took); x holds the complex unknowns
_Law = Callable[[np.ndarray, tuple | None], tuple[np.ndarray, tuple | None]]


def _newton_point(
    law: _Law, x: np.ndarray, g: np.ndarray, branch: tuple | None
) -> np.ndarray | None:
    """x plus the capped Newton step on G = law - x, or None if singular.

    The Jacobian over the real and imaginary parts is taken by forward
    differences with the law frozen on the base point's branch, so it is
    an element of G's generalized Jacobian even where two pieces meet.
    """
    n = 2 * x.size
    jac = np.empty((n, n))
    for col in range(n):
        probe = x.copy()
        probe[col // 2] += _FD_H if col % 2 == 0 else 1j * _FD_H
        y, _ = law(probe, branch)
        jac[:, col] = ((y - probe) - g).view(float) / _FD_H
    try:
        dx = np.linalg.solve(jac, -g.view(float))
    except np.linalg.LinAlgError:
        return None
    big = np.abs(dx).max()
    if not math.isfinite(big):
        return None
    if big > _STEP_CAP:
        dx *= _STEP_CAP / big
    return x + dx.view(complex)


def _drive(
    law: _Law, x: np.ndarray, lam: float, tol: float, max_iter: int, name: str
) -> tuple[np.ndarray, float, int]:
    """Solve x = law(x): semismooth Newton with a damped fixed-point fallback.

    Each iteration tries the Newton step and keeps it if it halves the
    residual max|law(x) - x|; otherwise it takes the damped step
    x + lam * (law(x) - x). lam halves whenever the residual plateaus; a
    plateau at the floor is a limit cycle. Returns (x, residual,
    iterations), the starting point counting as the first iteration.
    """
    floor = min(lam, _LAM_FLOOR)
    y, branch = law(x, None)
    g = y - x
    res = float(np.abs(g).max())
    history = [res]
    it = 1
    while res >= tol and it < max_iter:
        it += 1
        x_new = _newton_point(law, x, g, branch)
        if x_new is not None:
            y, new_branch = law(x_new, None)
        if x_new is None or not np.abs(y - x_new).max() <= 0.5 * res:
            x_new = x + lam * g
            y, new_branch = law(x_new, None)
        x, branch, g = x_new, new_branch, y - x_new
        res = float(np.abs(g).max())
        history.append(res)
        if res >= tol and _plateaued(history):
            if lam <= floor:
                raise OscillationDetectedError(
                    f"{name}: residual {res:.3e} stopped falling after {it} iterations "
                    f"with damping at its floor {lam:g}: limit cycle"
                )
            lam = max(floor, 0.5 * lam)
            history = [res]
    if res >= tol:
        raise NoConvergenceError(
            f"{name}: fixed point missed tol={tol:g} after {it} iterations "
            f"(last residual {res:.3e}, damping {lam:g}): slow contraction"
        )
    return x, res, it


def fault_fixed_point(
    net: NetworkModel,
    gfm: GfmModel,
    spec: FaultSpec,
    op: OperatingPoint,
    tol: float = 1e-9,
    max_iter: int = 100,
    damping: float | None = None,
) -> SourceSolution:
    """Solve the current-limited fault condition on the terminal port model.

    The unknowns are the two channel injections (saturation modes) or the
    shared virtual impedance (shaping modes); the law maps them through the
    port model and the control law to their next value, and `_drive` finds
    its fixed point. damping is the fallback step's factor (0.5 if None).
    The fault response at the converged terminal currents gives the
    readings.
    """
    cfg = gfm.clc
    lam = 0.5 if damping is None else damping
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"damping factor must lie in (0, 1], got {lam}")
    e_ref1 = op.e_ref1
    node = net.source_node
    response = solve_fault(net, spec, port=node).response
    port = terminal_port(response)
    x_net = 1j * gfm.x_f_network

    if cfg.kind.is_saturation:

        def loop_refs(i1: complex, i2: complex) -> tuple[complex, complex, complex, complex]:
            v1, v2 = port.voltage(i1, i2)
            return v1, v2, gfm.k_pv * (e_ref1 - v1) + i1, gfm.k_pv * (0.0 - v2) + i2

        def sat_law(x: np.ndarray, branch: tuple | None) -> tuple[np.ndarray, tuple]:
            _, _, ref1, ref2 = loop_refs(*x.tolist())
            sat1, sat2, branch = _limit(cfg, op.theta_rad, ref1, ref2, branch)
            return np.array([sat1, sat2]), branch

        # start from the currents that pin the terminal at the reference:
        # the fixed point itself when the limiter stays idle
        x, res, it = _drive(
            sat_law, np.array(port.current_behind(e_ref1, 0j)), lam, tol, max_iter,
            cfg.kind.value,
        )
        i1, i2 = x.tolist()
        v1, v2, ref1, ref2 = loop_refs(i1, i2)
        sat1, sat2, _ = _limit(cfg, op.theta_rad, ref1, ref2, None)
        if cfg.kind is ClcKind.INSTANTANEOUS:
            i_peak = min(max_phase_current(ref1, ref2), cfg.clip_level)
        else:
            i_peak = max_phase_current(i1, i2)
        z_v1, z_v2 = _ratio(e_ref1 - v1, i1), _ratio(-v2, i2)
        sigma1 = _sigma(cfg, gfm.k_pv, e_ref1, v1, i1)
        sigma2 = _sigma(cfg, gfm.k_pv, 0j, v2, i2)
        active = any(
            abs(sat - ref) > 1e-12 * max(1.0, abs(ref))
            for sat, ref in ((sat1, ref1), (sat2, ref2))
        )
    else:
        # impedance-shaping modes: shared complex Z_v in both channels
        def shape_law(x: np.ndarray, branch: tuple | None) -> tuple[np.ndarray, None]:
            z_branch = complex(x[0]) + x_net
            i1, i2 = port.current_behind(e_ref1, z_branch)
            if cfg.kind is ClcKind.VIRTUAL_ADMITTANCE:
                v1, v2 = e_ref1 - z_branch * i1, -z_branch * i2
                z_target = clc_virtual_admittance(cfg, abs(e_ref1 - v1) + abs(v2))
            else:
                z_target = clc_adaptive_impedance(cfg, max_phase_current(i1, i2))
            return np.array([z_target]), None

        z_vn = complex(cfg.r_vn, cfg.x_vn)
        x, res, it = _drive(
            shape_law,
            np.array([z_vn if cfg.kind is ClcKind.VIRTUAL_ADMITTANCE else 0j]),
            lam, tol, max_iter, cfg.kind.value,
        )
        # the commanded shaping impedance itself, shared by both channels;
        # the realized -v/i ratio at the source node would fold the
        # in-network filter reactance into it
        z_v1 = z_v2 = complex(x[0])
        z_branch = z_v1 + x_net
        i1, i2 = port.current_behind(e_ref1, z_branch)
        v1, v2 = e_ref1 - z_branch * i1, -z_branch * i2
        sigma1 = sigma2 = None
        i_peak = max_phase_current(i1, i2)
        if cfg.kind is ClcKind.VIRTUAL_ADMITTANCE:
            active = abs(z_v1 - z_vn) > 10.0 * tol
        else:
            active = abs(z_v1) > 0.0
    return SourceSolution(
        v_t=SequenceTriple(pos=v1, neg=v2, zero=0j),
        i_t=SequenceTriple(pos=i1, neg=i2, zero=0j),
        # open in the zero sequence: bus 1 sees only the transformer leg there
        z_branch=(*(None if z is None else z + x_net for z in (z_v1, z_v2)), 0j),
        limiter_active=active,
        iterations=it,
        residual=res,
        fault=response.at(i1, i2),
        frozen=InjectionElement("frozen_clc", node, i1, i2),
        i_max_phase=i_peak,
        z_v1=z_v1,
        z_v2=z_v2,
        sigma1=sigma1,
        sigma2=sigma2,
    )


def _sigma(
    cfg: ClcConfig, k_pv: float, e_ch: complex, v_ch: complex, i_ch: complex
) -> complex | None:
    """Componentwise saturation ratio realized by the converged channel."""
    ref = k_pv * (e_ch - v_ch) + i_ch
    if abs(ref) < 1e-9:
        return None
    return i_ch / ref


def incremental_source_impedance(
    i1_bus: complex, delta_i1: complex, z_v1: complex
) -> complex | None:
    """Apparent incremental impedance contributed by the control response.

    The pre- to post-fault change of the source branch voltage drop is
    Z_v1 * i1 (the pre-fault virtual impedance being zero), so seen from
    bus 1 the control adds

        Z_ad = -Z_v1 * i1 / delta_i1

    on top of the passive transfer impedance. A resistive or capacitive
    Z_ad is what pulls the incremental directional angle out of its band.
    """
    if abs(delta_i1) < 1e-9:
        return None
    return -z_v1 * i1_bus / delta_i1
