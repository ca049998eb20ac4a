"""Source models and the nonlinear fault solve.

Two sources can sit behind bus 1:

* A synchronous generator: constant internal emf behind fixed sequence
  reactances. Faults stay linear; one network solve suffices.
* A grid-forming converter: internal reference behind a current-limiting
  control. Under fault the control state (saturation ratios or shaped
  virtual impedance) depends on the very currents and voltages it produces,
  so the fault solution is a fixed point, found here by damped iteration.

The iteration does not solve the network. Seen from the converter
terminal the faulted network is affine in the two channel currents the
converter injects (it is open in the zero sequence):

    v = v_oc + Z_port @ i,    v = (v1, v2), i = (i1, i2)

Three linear fault solves build (v_oc, Z_port) once per scenario: one with
no injection, then a unit current in each channel. Every iteration is then
2x2 complex arithmetic. An idle saturation-mode limiter obeys v_t = e_ref
exactly (the proportional loop is transparent at the fixed point), so both
channels are pinned at the reference and solve Z_port @ i = (e_ref1, 0) -
v_oc for their currents; iterating the injection form instead would
contract at a rate around (K_pv * |Z_ext|)^-1 ~ 1 and stall. Saturated
channels are damped current injections that read their voltage off the
port. The shaping modes put the emf behind z_branch in both channels and
solve (Z_port + z_branch * I) @ i = (e_ref1, 0) - v_oc. The adaptive
impedance map has a steep local gain (d|i|/dX_v is several per unit), so
it gets a smaller default damping factor than the saturation modes. Once
converged, the state is solved once more in the full network, which gives
the relay readings.

One iteration is one trial update of the state: a damped step, an Anderson
extrapolation, or the endgame Newton step of the saturation modes (tried
once the limiter is active and the residual is below 1e-6, kept only if it
halves the residual). The finite-difference probes of that Newton step's
Jacobian run on the port model and are not iterations. solver.max_iter
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
    saturate_reference,
)
from .network import (
    FaultSolution,
    FaultSpec,
    InjectionElement,
    NetworkModel,
    SingularNetworkError,
    SourceElement,
    solve_fault,
    solve_linear,
)
from .phasors import SequenceTriple, from_polar

__all__ = [
    "NoConvergenceError",
    "OscillationDetectedError",
    "SgModel",
    "GfmModel",
    "OperatingPoint",
    "ClcSolution",
    "TerminalPort",
    "terminal_port",
    "default_damping",
    "prefault_solve",
    "solve_sg_fault",
    "fault_fixed_point",
    "effective_impedances",
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


def default_damping(kind: ClcKind) -> float:
    """Per-strategy damping factor for the fault fixed point."""
    if kind is ClcKind.ADAPTIVE_VIRTUAL_IMPEDANCE:
        return 0.2
    return 0.5


def _attach_power(net: NetworkModel, element: SourceElement) -> tuple[complex, complex, complex]:
    """Solve the healthy network; return (v, i, s) at the source node.

    Only the positive sequence carries the dispatch, and its network does
    not depend on the other two, so it is the only one solved.
    """
    sol = solve_linear(net.with_elements(element), sequences=(1,))
    v = sol.v[1].get(element.node, 0j)
    i = sol.source_out[1].get(element.eid, 0j)
    return v, i, v * i.conjugate()


def prefault_solve(
    net: NetworkModel,
    source: SgModel | GfmModel,
    p_ref: float = 1.0,
    q_ref: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> OperatingPoint:
    """Find (E, theta) so the source delivers (p_ref, q_ref) at its node.

    Two-variable Newton iteration with a finite-difference Jacobian. Powers
    are v * conj(i) in pu on the system base, i the positive-sequence
    current out of the source branch.
    """
    if isinstance(source, SgModel):
        make = lambda e_mag, th: source.source_element(net.source_node, cmath.rect(e_mag, th))
    else:
        z = source.normal_z()
        make = lambda e_mag, th: SourceElement(
            SOURCE_EID, net.source_node, e1=cmath.rect(e_mag, th), z1=z, z2=z, z0=None
        )

    x = np.array([1.0, 0.0])  # [E, theta_rad]
    eps = 1e-7

    def residual(vec: np.ndarray) -> np.ndarray:
        _, _, s = _attach_power(net, make(vec[0], vec[1]))
        return np.array([s.real - p_ref, s.imag - q_ref])

    for it in range(1, max_iter + 1):
        r = residual(x)
        if max(abs(r[0]), abs(r[1])) < tol:
            elem = make(x[0], x[1])
            v, i, s = _attach_power(net, elem)
            return OperatingPoint(
                e_mag=x[0],
                theta_deg=math.degrees(x[1]),
                v_attach=v,
                i_attach=i,
                p=s.real,
                q=s.imag,
                iterations=it,
            )
        jac = np.empty((2, 2))
        for col in range(2):
            bumped = x.copy()
            bumped[col] += eps
            jac[:, col] = (residual(bumped) - r) / eps
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


def solve_sg_fault(
    net: NetworkModel, sg: SgModel, spec: FaultSpec, op: OperatingPoint
) -> FaultSolution:
    """Fault solution for the linear (generator) source: one shot."""
    return solve_fault(net.with_elements(sg.source_element(net.source_node, op.e_ref1)), spec)


@dataclass(frozen=True)
class ClcSolution:
    """Converged fault-time state of the current-limited converter."""

    v_t: SequenceTriple  # terminal (attachment node) voltage
    i_t: SequenceTriple  # current delivered into the network
    z_v1: complex | None  # (e_ref1 - v_t1) / i_t1, None if the channel is dead
    z_v2: complex | None  # -v_t2 / i_t2
    sigma1: complex | None  # saturation ratio per channel, None for shaping modes
    sigma2: complex | None
    limiter_active: bool
    iterations: int
    residual: float
    fault: FaultSolution
    elements: tuple[SourceElement | InjectionElement, ...]
    # largest per-phase waveform amplitude the converter actually carries.
    # For sinusoidal modes this is the largest phase-phasor magnitude; for
    # the clipper it is the clipped peak, which the fundamental phasor that
    # the network sees may exceed (up to 4/pi of the clip level).
    i_max_phase: float = 0.0


def _ratio(num: complex, den: complex, floor: float = 1e-9) -> complex | None:
    if abs(den) < floor:
        return None
    return num / den


_PORT_EID = "port"


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


def terminal_port(net: NetworkModel, spec: FaultSpec) -> TerminalPort:
    """Reduce the faulted network to the converter terminal.

    Three linear fault solves with a current injection at the source node:
    none for the open-circuit voltages, then a unit current in each channel
    for the columns of Z_port.
    """

    def terminal(i1: complex, i2: complex) -> tuple[complex, complex]:
        probe = InjectionElement(_PORT_EID, net.source_node, i1=i1, i2=i2)
        v = solve_fault(net.with_elements(probe), spec).total.voltage(net.source_node)
        return v.pos, v.neg

    v1, v2 = terminal(0j, 0j)
    a1, a2 = terminal(1.0 + 0j, 0j)
    b1, b2 = terminal(0j, 1.0 + 0j)
    return TerminalPort(v1, v2, z11=a1 - v1, z12=b1 - v1, z21=a2 - v2, z22=b2 - v2)


def _saturation_targets(
    cfg: ClcConfig, k_pv: float, theta: float, e_ref1: complex,
    v1: complex, v2: complex, i1: complex, i2: complex,
) -> tuple[complex, complex, bool]:
    """Limiter output (network frame) for the present terminal state."""
    ref1 = k_pv * (e_ref1 - v1) + i1
    ref2 = k_pv * (0.0 - v2) + i2

    if cfg.kind is ClcKind.INSTANTANEOUS:
        sat1, sat2 = instantaneous_two_channel(cfg, ref1, ref2)
        active = abs(sat1 - ref1) > 1e-12 * max(1.0, abs(ref1)) or abs(
            sat2 - ref2
        ) > 1e-12 * max(1.0, abs(ref2))
        return sat1, sat2, active

    if cfg.kind is ClcKind.CIRCULAR:
        # one real shrink factor keeps every phase inside i_lim and both
        # channel angles untouched; max phase >= each channel magnitude,
        # so the per-channel circle is implied
        peak = max_phase_current(ref1, ref2)
        k = min(1.0, cfg.i_lim / peak) if peak > 0.0 else 1.0
        return ref1 * k, ref2 * k, k < 1.0

    # priority: clamp each channel in its own synchronous frame, then a
    # common real rescale enforces the per-phase cap on the combination
    rot = cmath.exp(-1j * theta)
    sat1_dq, _ = saturate_reference(cfg, ref1 * rot)
    sat2_dq, _ = saturate_reference(cfg, ref2 / rot)
    sat1 = sat1_dq / rot
    sat2 = sat2_dq * rot
    peak = max_phase_current(sat1, sat2)
    k = min(1.0, cfg.i_lim / peak) if peak > 0.0 else 1.0
    sat1 *= k
    sat2 *= k
    active = (
        k < 1.0
        or abs(sat1 - ref1) > 1e-12 * max(1.0, abs(ref1))
        or abs(sat2 - ref2) > 1e-12 * max(1.0, abs(ref2))
    )
    return sat1, sat2, active


def _plateaued(history: list[float], window: int = 10, shrink: float = 0.95) -> bool:
    """True when the residual has stopped making real progress."""
    if len(history) < 2 * window:
        return False
    recent = history[-window:]
    earlier = history[-2 * window : -window]
    return min(recent) > shrink * min(earlier)


class _SlackDamper:
    """Adaptive damping factor for the fixed-point loops.

    These maps often grow the residual for a few iterations while the state
    swings toward the attractor, so plain damping is kept as long as the
    residual stays within a slack band of the best value seen. The factor
    halves on clear trouble only: a residual far above the best, or a
    plateau of the best itself (rescue). Once the floor is reached a
    further plateau is a genuine limit cycle and must be reported.
    """

    def __init__(self, base: float, floor: float = 0.005, growth: float = 2.0) -> None:
        self.base = base
        self.floor = min(base, floor)
        self.growth = growth
        self.lam = base
        self.best = math.inf
        self._streak = 0

    def observe(self, res: float) -> None:
        if res > self.growth * self.best:
            self.lam = max(self.floor, 0.5 * self.lam)
            self._streak = 0
        elif res <= self.best:
            self._streak += 1
            if self._streak >= 5:
                self.lam = min(self.base, 1.5 * self.lam)
        self.best = min(self.best, res)

    def rescue(self) -> bool:
        """Halve for a plateau; False when already at the floor."""
        if self.lam <= self.floor:
            return False
        self.lam = max(self.floor, 0.5 * self.lam)
        self._streak = 0
        return True


_TURBO_MIN = 4  # window entries needed before an extrapolation attempt
_TURBO_EVERY = 3  # plain damped steps between attempts


def _anderson_step(
    win_x: list[np.ndarray], win_f: list[np.ndarray], beta: float
) -> np.ndarray | None:
    """Windowed extrapolation of a fixed-point sequence (Anderson mixing).

    Combines the stored iterates so the extrapolated residual is the
    least-squares minimum over the window's span; kills the slow linear
    modes the plain damped step leaves behind. Returns None when the
    window is degenerate.
    """
    xs = win_x[-_TURBO_MIN:]
    fs = win_f[-_TURBO_MIN:]
    if len(xs) < 2:
        return None
    df = np.stack([fs[k + 1] - fs[k] for k in range(len(fs) - 1)], axis=1)
    dx = np.stack([xs[k + 1] - xs[k] for k in range(len(xs) - 1)], axis=1)
    try:
        gamma, *_ = np.linalg.lstsq(df, fs[-1], rcond=None)
    except np.linalg.LinAlgError:
        return None
    x_new = xs[-1] + beta * fs[-1] - (dx + beta * df) @ gamma
    if not np.all(np.isfinite(x_new)):
        return None
    return x_new


# endgame Newton step of the saturation modes: tried once the residual is
# below _NEWTON_BELOW, with a forward-difference Jacobian of step _NEWTON_H
_NEWTON_BELOW = 1e-6
_NEWTON_H = 1e-7


@dataclass(frozen=True)
class _SatState:
    """One evaluated saturation-mode iterate.

    pinned: both channels hold the terminal at the reference (limiter
    idle); otherwise both inject (i1, i2).
    """

    pinned: bool
    v1: complex
    v2: complex
    i1: complex
    i2: complex
    sat1: complex
    sat2: complex
    active: bool
    res: float


@dataclass(frozen=True)
class _ShapeState:
    """One evaluated impedance-shaping iterate."""

    v1: complex
    v2: complex
    i1: complex
    i2: complex
    z_v: complex
    z_target: complex
    res: float


def _sat_step(state: _SatState) -> np.ndarray:
    """G = sat(i) - i as a real 4-vector (Re, Im of each channel)."""
    g1 = state.sat1 - state.i1
    g2 = state.sat2 - state.i2
    return np.array([g1.real, g1.imag, g2.real, g2.imag])


def _newton_step(
    evaluate: Callable[[complex, complex], _SatState], acc: _SatState
) -> _SatState | None:
    """Newton trial on G(i) = sat(i) - i over (Re i1, Im i1, Re i2, Im i2).

    The Jacobian is taken by forward differences of `evaluate`, which runs
    on the port model; its probes are not trials of the state. Returns the
    evaluated trial, or None when the Jacobian is singular.
    """
    x = np.array([acc.i1.real, acc.i1.imag, acc.i2.real, acc.i2.imag])
    g = _sat_step(acc)
    jac = np.empty((4, 4))
    for col in range(4):
        bumped = x.copy()
        bumped[col] += _NEWTON_H
        probe = evaluate(complex(bumped[0], bumped[1]), complex(bumped[2], bumped[3]))
        jac[:, col] = (_sat_step(probe) - g) / _NEWTON_H
    try:
        x_new = x - np.linalg.solve(jac, g)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x_new)):
        return None
    return evaluate(complex(x_new[0], x_new[1]), complex(x_new[2], x_new[3]))


def fault_fixed_point(
    net: NetworkModel,
    gfm: GfmModel,
    spec: FaultSpec,
    op: OperatingPoint,
    tol: float = 1e-9,
    max_iter: int = 100,
    damping: float | None = None,
) -> ClcSolution:
    """Damped fixed-point solve of the current-limited fault condition.

    The state is either the pair of channel injections (saturation modes)
    or the shared virtual impedance (shaping modes). The faulted network is
    reduced once to its terminal port model; each pass evaluates the port
    for the present state, evaluates the control law on the resulting
    terminal quantities, and moves the state a damped step toward the law's
    output. The residual is the size of the undamped step.

    One iteration is one trial update of the state: a damped step, an
    Anderson extrapolation or an endgame Newton step, accepted or not.
    max_iter bounds them all. The converged elements are solved once more
    in the full network for the readings.
    """
    cfg = gfm.clc
    lam = default_damping(cfg.kind) if damping is None else damping
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"damping factor must lie in (0, 1], got {lam}")
    e_ref1 = op.e_ref1
    node = net.source_node
    history: list[float] = []
    control = _SlackDamper(lam)
    port = terminal_port(net, spec)

    if cfg.kind.is_saturation:

        def targets(pinned: bool, v1: complex, v2: complex, i1: complex, i2: complex) -> _SatState:
            sat1, sat2, active = _saturation_targets(
                cfg, gfm.k_pv, op.theta_rad, e_ref1, v1, v2, i1, i2
            )
            res = max(abs(sat1 - i1), abs(sat2 - i2))
            return _SatState(pinned, v1, v2, i1, i2, sat1, sat2, active, res)

        def eval_pinned() -> _SatState:
            i1, i2 = port.current_behind(e_ref1, 0j)
            return targets(True, e_ref1, 0j, i1, i2)

        def eval_inj(i1: complex, i2: complex) -> _SatState:
            v1, v2 = port.voltage(i1, i2)
            return targets(False, v1, v2, i1, i2)

        acc = eval_pinned()
        history.append(acc.res)
        control.observe(acc.res)
        win_x: list[np.ndarray] = []
        win_f: list[np.ndarray] = []
        since_turbo = 0
        it = 1
        while acc.res >= tol and it < max_iter:
            cand: _SatState | None = None
            if since_turbo >= _TURBO_EVERY and len(win_f) >= _TURBO_MIN:
                since_turbo = 0
                x_new = _anderson_step(win_x, win_f, control.lam)
                if x_new is not None:
                    trial = eval_inj(complex(x_new[0]), complex(x_new[1]))
                    it += 1
                    if trial.res < acc.res:
                        cand = trial
                    else:
                        # stale window (the clip set moved); start over
                        win_x.clear()
                        win_f.clear()
                if cand is None and it >= max_iter:
                    break
            if cand is None and acc.active and acc.res < _NEWTON_BELOW:
                trial = _newton_step(eval_inj, acc)
                if trial is not None:
                    it += 1
                    if trial.res <= 0.5 * acc.res:
                        cand = trial
                    elif it >= max_iter:
                        break
            if cand is None:
                if acc.active:
                    cand = eval_inj(
                        acc.i1 + control.lam * (acc.sat1 - acc.i1),
                        acc.i2 + control.lam * (acc.sat2 - acc.i2),
                    )
                else:
                    cand = eval_pinned()
                it += 1
                since_turbo += 1
            acc = cand
            if acc.active:
                win_x.append(np.array([acc.i1, acc.i2]))
                win_f.append(np.array([acc.sat1 - acc.i1, acc.sat2 - acc.i2]))
                del win_x[:-_TURBO_MIN], win_f[:-_TURBO_MIN]
            else:
                win_x.clear()
                win_f.clear()
            control.observe(acc.res)
            history.append(acc.res)
            if acc.res >= tol and _plateaued(history):
                if control.rescue():
                    history.clear()
                    history.append(acc.res)
                    win_x.clear()
                    win_f.clear()
                else:
                    raise OscillationDetectedError(
                        f"saturation state oscillates; residual {acc.res:.3e} "
                        f"after {it} iterations"
                    )
        if acc.res >= tol:
            raise NoConvergenceError(
                f"saturation fixed point missed tol={tol} after {it} iterations "
                f"(last residual {acc.res:.3e})"
            )
        if cfg.kind is ClcKind.INSTANTANEOUS:
            ref1 = gfm.k_pv * (e_ref1 - acc.v1) + acc.i1
            ref2 = gfm.k_pv * (0.0 - acc.v2) + acc.i2
            i_peak = min(max_phase_current(ref1, ref2), cfg.clip_level)
        else:
            i_peak = max_phase_current(acc.i1, acc.i2)
        elems: tuple[SourceElement | InjectionElement, ...] = (
            (SourceElement(SOURCE_EID, node, e1=e_ref1, z1=0j, z2=0j, z0=None),)
            if acc.pinned
            else (InjectionElement("clc_inj", node, i1=acc.i1, i2=acc.i2),)
        )
        return ClcSolution(
            v_t=SequenceTriple(pos=acc.v1, neg=acc.v2, zero=0j),
            i_t=SequenceTriple(pos=acc.i1, neg=acc.i2, zero=0j),
            z_v1=_ratio(e_ref1 - acc.v1, acc.i1),
            z_v2=_ratio(-acc.v2, acc.i2),
            sigma1=_sigma(cfg, gfm.k_pv, e_ref1, acc.v1, acc.i1),
            sigma2=_sigma(cfg, gfm.k_pv, 0j, acc.v2, acc.i2),
            limiter_active=acc.active,
            iterations=it,
            residual=acc.res,
            fault=solve_fault(net.with_elements(*elems), spec),
            elements=elems,
            i_max_phase=i_peak,
        )

    # impedance-shaping modes: shared complex Z_v in both channels
    x_net = 1j * gfm.x_f_network

    def eval_z(z_v: complex) -> _ShapeState:
        z_branch = z_v + x_net
        i1, i2 = port.current_behind(e_ref1, z_branch)
        v1, v2 = e_ref1 - z_branch * i1, -z_branch * i2
        if cfg.kind is ClcKind.VIRTUAL_ADMITTANCE:
            z_target = clc_virtual_admittance(cfg, abs(e_ref1 - v1) + abs(v2))
        else:
            z_target = clc_adaptive_impedance(cfg, max_phase_current(i1, i2))
        return _ShapeState(v1, v2, i1, i2, z_v, z_target, abs(z_target - z_v))

    acc_z = eval_z(complex(cfg.r_vn, cfg.x_vn) if cfg.kind is ClcKind.VIRTUAL_ADMITTANCE else 0j)
    history.append(acc_z.res)
    best = acc_z.res
    lam_z = control.lam
    floor_z = control.floor
    it = 1
    while acc_z.res >= tol and it < max_iter:
        trial = eval_z(acc_z.z_v + lam_z * (acc_z.z_target - acc_z.z_v))
        it += 1
        if trial.res > control.growth * best and lam_z > floor_z:
            # overshot the slack band: retry the same state more gently.
            # (growth within the band is left alone; the map routinely
            # climbs for a few iterations while z_v marches toward the
            # saturated region)
            lam_z = max(floor_z, 0.5 * lam_z)
            continue
        acc_z = trial
        best = min(best, acc_z.res)
        history.append(acc_z.res)
        if acc_z.res >= tol and _plateaued(history):
            if lam_z > floor_z:
                lam_z = max(floor_z, 0.5 * lam_z)
                history.clear()
                history.append(acc_z.res)
            else:
                raise OscillationDetectedError(
                    f"virtual impedance oscillates; residual {acc_z.res:.3e} "
                    f"after {it} iterations"
                )
    if acc_z.res >= tol:
        raise NoConvergenceError(
            f"virtual impedance fixed point missed tol={tol} after {it} iterations "
            f"(last residual {acc_z.res:.3e})"
        )
    if cfg.kind is ClcKind.VIRTUAL_ADMITTANCE:
        active = abs(acc_z.z_v - complex(cfg.r_vn, cfg.x_vn)) > 10.0 * tol
    else:
        active = abs(acc_z.z_v) > 0.0
    z_branch = acc_z.z_v + x_net
    src = SourceElement(SOURCE_EID, node, e1=e_ref1, z1=z_branch, z2=z_branch, z0=None)
    return ClcSolution(
        v_t=SequenceTriple(pos=acc_z.v1, neg=acc_z.v2, zero=0j),
        i_t=SequenceTriple(pos=acc_z.i1, neg=acc_z.i2, zero=0j),
        # the commanded shaping impedance itself, shared by both channels;
        # the realized -v/i ratio at the source node would fold the
        # in-network filter reactance into it
        z_v1=acc_z.z_v,
        z_v2=acc_z.z_v,
        sigma1=None,
        sigma2=None,
        limiter_active=active,
        iterations=it,
        residual=acc_z.res,
        fault=solve_fault(net.with_elements(src), spec),
        elements=(src,),
        i_max_phase=max_phase_current(acc_z.i1, acc_z.i2),
    )


def _sigma(
    cfg: ClcConfig, k_pv: float, e_ch: complex, v_ch: complex, i_ch: complex
) -> complex | None:
    """Componentwise saturation ratio realized by the converged channel."""
    ref = k_pv * (e_ch - v_ch) + i_ch
    if abs(ref) < 1e-9:
        return None
    return i_ch / ref


def effective_impedances(
    z_v1: complex | None,
    z_v2: complex | None,
    x_f_network: float,
    x_t1: float,
    x_t0: float,
    n: float = 1.0,
) -> tuple[complex | None, complex | None, complex]:
    """Sequence impedances between the internal reference and bus 1.

    n is the converter-to-bus referral ratio for quantities expressed on
    mixed bases; with both sides already on a common per-unit base (the
    pipeline convention here) it is 1.

        Z_e1 = n^2 * (Z_v1 + j x_f) + j x_t1, likewise Z_e2
        Z_e0 = j x_t0   (converter side open in zero sequence)
    """
    n2 = n * n
    z_e1 = None if z_v1 is None else n2 * (z_v1 + 1j * x_f_network) + 1j * x_t1
    z_e2 = None if z_v2 is None else n2 * (z_v2 + 1j * x_f_network) + 1j * x_t1
    return z_e1, z_e2, 1j * x_t0


def incremental_source_impedance(
    i1_bus: complex, delta_i1: complex, z_v1: complex, n: float = 1.0, floor: float = 1e-9
) -> complex | None:
    """Apparent incremental impedance contributed by the control response.

    The pre- to post-fault change of the source branch voltage drop is
    Z_v1 * i1 (the pre-fault virtual impedance being zero), so seen from
    bus 1 the control adds

        Z_ad = -n^2 * Z_v1 * i1 / delta_i1

    on top of the passive transfer impedance. A resistive or capacitive
    Z_ad is what pulls the incremental directional angle out of its band.
    """
    if abs(delta_i1) < floor:
        return None
    return -(n * n) * z_v1 * i1_bus / delta_i1
