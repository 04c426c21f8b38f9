"""Velocity solve and explicit gradient-flow time stepping.

Each step minimizes the dissipation potential minus the force power over
periodic piecewise-linear velocity fields on every loop, with the line
constraint v.tau = 0 eliminated by expressing v in a per-node basis of
the normal plane.  Nodes are then pushed forward by dt*v, the mesh is
resampled when segments leave the target band, and loops below the
annihilation length are removed.

The driving force density is minus the discrete energy gradient divided
by the lumped node length; it converges to the line-integral
Peach-Koehler density under refinement and makes the discrete energy
decrement match the dissipated power to second order in dt.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .calibration import BOUND_CONSTANTS
from .energy_force import energy_and_gradient
from .errors import SolverError
from .geometry import mass, mass_ratio, pushforward, remesh
from .mobility import drag_matrix

__all__ = [
    "StepPolicy",
    "VelocityField",
    "DiagnosticsRow",
    "EvolutionState",
    "solve_velocity",
    "step",
    "run",
    "bound_monitor",
]


@dataclass(frozen=True)
class StepPolicy:
    """Adaptive explicit stepping and mesh maintenance parameters.

    dt = min(c1 * eps / |v|_inf, c2 / |grad_tau v|_inf, dt_max) keeps the
    node motion well below the core scale and bounds the per-step stretch.
    h_min/h_max are in units of epsilon.
    """

    c1: float = 0.1
    c2: float = 0.1
    dt_max: float = 1.0
    dt_min: float = 1e-12
    t_end: float = 1.0
    h_min: float = 0.3
    h_max: float = 1.0
    theta_max: float = 50.0
    kappa: float = 3.0
    snapshot_every: int = 10

    def choose_dt(self, eps, v_inf, dv_inf, t_left):
        dt = self.dt_max
        if v_inf > 0:
            dt = min(dt, self.c1 * eps / v_inf)
        if dv_inf > 0:
            dt = min(dt, self.c2 / dv_inf)
        return min(dt, t_left)


@dataclass
class VelocityField:
    v: np.ndarray  # (n, 3)
    tangents: np.ndarray  # (n, 3)
    residual: float  # relative weak-form residual of the solve
    v_inf: float
    dv_inf: float
    v_l2: float
    dv_l2: float
    dv_l1: float
    power: float  # (f, v) lumped inner product


@dataclass
class DiagnosticsRow:
    t: float
    dt: float
    mass: float
    theta_hat: float
    energy: float
    v_inf: float
    dv_inf: float
    f_inf: float
    energy_decrement: float
    ratio_ap_vel: float
    ratio_pk_linf: float
    ratio_length_rate: float
    ratio_mass: float

    COLUMNS = (
        "t",
        "dt",
        "mass",
        "theta_hat",
        "energy",
        "v_inf",
        "dv_inf",
        "f_inf",
        "energy_decrement",
        "ratio_ap_vel",
        "ratio_pk_linf",
        "ratio_length_rate",
        "ratio_mass",
    )

    def values(self):
        return [getattr(self, c) for c in self.COLUMNS]


@dataclass
class EvolutionState:
    time: float
    network: object
    diagnostics: list = field(default_factory=list)
    events: list = field(default_factory=list)
    # Lagrangian map: cumulative displacement per node since the last
    # remesh; across remeshes only the event log survives (node identity
    # does not).
    cumulative_displacement: np.ndarray = None
    termination: str = ""

    def log_event(self, kind, **info):
        self.events.append({"t": self.time, "kind": kind, **info})


def _normal_basis(tau):
    """Orthonormal (e1, e2) spanning the plane normal to each tangent."""
    n = len(tau)
    ref = np.zeros((n, 3))
    smallest = np.argmin(np.abs(tau), axis=1)
    ref[np.arange(n), smallest] = 1.0
    e1 = np.cross(tau, ref)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(tau, e1)
    return e1, e2


def _assemble_loop(loop, f_nodes, model):
    """Reduced SPD system for one loop: P1 gradient penalty plus lumped
    drag in per-node normal-plane coordinates."""
    tau, hairpin = loop.node_tangents()
    if hairpin.any():
        raise SolverError(
            f"hairpin node(s) {np.nonzero(hairpin)[0].tolist()}: remesh before solving"
        )
    n = len(loop)
    h = loop.segment_lengths()
    lumped = loop.lumped_lengths()
    e1, e2 = _normal_basis(tau)
    Q = np.stack([e1, e2], axis=2)  # (n, 3, 2)
    b = loop.burgers.cartesian
    A = np.zeros((2 * n, 2 * n))
    rhs = np.zeros(2 * n)
    alpha = model.alpha
    for i in range(n):
        j = (i + 1) % n
        c = alpha / h[i]
        blk = c * (Q[i].T @ Q[j])
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += c * np.eye(2)
        A[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] += c * np.eye(2)
        A[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] -= blk
        A[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] -= blk.T
        D = drag_matrix(model, b, tau[i])
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += lumped[i] * (Q[i].T @ D.pseudo_inverse @ Q[i])
        rhs[2 * i : 2 * i + 2] = lumped[i] * (Q[i].T @ f_nodes[i])
    return A, rhs, Q, tau


def _solve_loop(loop, f_nodes, model):
    """Periodic P1 solve of the constrained force balance on one loop."""
    A, rhs, Q, tau = _assemble_loop(loop, f_nodes, model)
    n = len(loop)
    try:
        cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        u = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"velocity system not SPD: {exc}") from exc
    res = A @ u - rhs
    scale = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(res)) / scale if scale > 0 else float(np.linalg.norm(res))
    if rel > 1e-9 and scale > 0:
        raise SolverError(f"velocity solve residual {rel:.2e} exceeds 1e-9")
    v = np.einsum("nij,nj->ni", Q, u.reshape(n, 2), optimize=False)
    return v, tau, rel


def weak_form_residual(network, force_density, model, vf, rng, n_fields=100):
    """Residual of the assembled weak form at the computed velocity,
    normalized against random reduced test fields."""
    force_density = np.asarray(force_density, dtype=float)
    worst = 0.0
    off = 0
    for lp in network.loops:
        n = len(lp)
        A, rhs, Q, _ = _assemble_loop(lp, force_density[off : off + n], model)
        u = np.einsum("nij,ni->nj", Q, vf.v[off : off + n], optimize=False).ravel()
        r = A @ u - rhs
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        for _ in range(n_fields):
            w = rng.normal(size=2 * n)
            worst = max(worst, abs(w @ r) / (np.linalg.norm(w) * scale))
        off += n
    return worst


def solve_velocity(network, force_density, model):
    """Velocity field balancing dissipation against the given force density.

    force_density is (n_nodes, 3) stacked in loop order.  The returned
    field satisfies v.tau = 0 exactly at every node.
    """
    if network.is_empty():
        raise SolverError("velocity solve on an empty network")
    force_density = np.asarray(force_density, dtype=float)
    vs, taus, rels = [], [], []
    dv_l1 = dv_l2_sq = v_l2_sq = power = 0.0
    dv_inf = 0.0
    off = 0
    for lp in network.loops:
        n = len(lp)
        v, tau, rel = _solve_loop(lp, force_density[off : off + n], model)
        vs.append(v)
        taus.append(tau)
        rels.append(rel)
        h = lp.segment_lengths()
        lumped = lp.lumped_lengths()
        dv = np.roll(v, -1, axis=0) - v
        dv_norm = np.linalg.norm(dv, axis=1)
        dv_l1 += float(dv_norm.sum())
        dv_l2_sq += float((dv_norm**2 / h).sum())
        dv_inf = max(dv_inf, float((dv_norm / h).max()))
        v_l2_sq += float((lumped * (v**2).sum(axis=1)).sum())
        power += float((lumped * (force_density[off : off + n] * v).sum(axis=1)).sum())
        off += n
    v = np.concatenate(vs)
    return VelocityField(
        v=v,
        tangents=np.concatenate(taus),
        residual=max(rels),
        v_inf=float(np.linalg.norm(v, axis=1).max()),
        dv_inf=dv_inf,
        v_l2=math.sqrt(v_l2_sq),
        dv_l2=math.sqrt(dv_l2_sq),
        dv_l1=dv_l1,
        power=power,
    )


def _lumped_all(network):
    return np.concatenate([lp.lumped_lengths() for lp in network.loops])


def _bound_ratios(network, model, vf, f_inf, mass_now, theta, t_now, mass0):
    eps = network.epsilon
    bmax = network.max_burgers_norm()
    gam = min(model.alpha, model.beta())
    logterm = math.log(1.0 + 2.0 * mass_now / (eps * theta))
    v_h1 = math.sqrt(vf.v_l2**2 + vf.dv_l2**2)
    rhs_ap = BOUND_CONSTANTS["ap_vel"] * math.sqrt(mass_now) * theta * bmax / (eps * gam) * logterm
    rhs_len = BOUND_CONSTANTS["length_rate"] * mass_now * theta * bmax / (eps * gam) * logterm
    rhs_finf = BOUND_CONSTANTS["pk_linf"] / eps * bmax * theta * logterm
    denom = 1.0 / mass0 - BOUND_CONSTANTS["mass"] * 2.0 * bmax * t_now / (eps**2 * gam)
    ratio_mass = mass_now * denom if denom > 0 else 0.0
    return (
        v_h1 / rhs_ap if rhs_ap > 0 else 0.0,
        f_inf / rhs_finf if rhs_finf > 0 else 0.0,
        vf.dv_l1 / rhs_len if rhs_len > 0 else 0.0,
        ratio_mass,
    )


def _energy_force_velocity(net, ev, model, rule):
    energy, grad = energy_and_gradient(net, ev, rule)
    lumped = _lumped_all(net)
    return energy, grad, solve_velocity(net, -grad / lumped[:, None], model)


def step(state, dt, ev, model, rule, policy, mass0=None, precomputed=None):
    """One explicit step: force, velocity, push, remesh, annihilate.

    dt may be 0, in which case only diagnostics are appended.  Returns
    the new state; termination conditions are recorded on it.
    `precomputed` is (energy, grad, velocity field) of the current
    network, as `run` already has them from choosing dt.
    """
    net = state.network
    eps = net.epsilon
    if precomputed is None:
        precomputed = _energy_force_velocity(net, ev, model, rule)
    energy, grad, vf = precomputed
    f_density = -grad / _lumped_all(net)[:, None]
    m_now = mass(net)
    theta = mass_ratio(net)
    if mass0 is None:
        mass0 = m_now
    f_inf = float(np.linalg.norm(f_density, axis=1).max())
    r_ap, r_f, r_len, r_mass = _bound_ratios(
        net, model, vf, f_inf, m_now, theta, state.time, mass0
    )
    prev_energy = state.diagnostics[-1].energy if state.diagnostics else energy
    row = DiagnosticsRow(
        t=state.time,
        dt=dt,
        mass=m_now,
        theta_hat=theta,
        energy=energy,
        v_inf=vf.v_inf,
        dv_inf=vf.dv_inf,
        f_inf=f_inf,
        energy_decrement=prev_energy - energy,
        ratio_ap_vel=r_ap,
        ratio_pk_linf=r_f,
        ratio_length_rate=r_len,
        ratio_mass=r_mass,
    )
    new_state = EvolutionState(
        time=state.time,
        network=net,
        diagnostics=state.diagnostics + [row],
        events=list(state.events),
        cumulative_displacement=state.cumulative_displacement,
        termination=state.termination,
    )
    if theta > policy.theta_max:
        new_state.log_event("blowup", theta_hat=theta, theta_max=policy.theta_max)
        new_state.termination = "blowup"
        return new_state
    if dt == 0.0:
        return new_state
    disp = dt * vf.v
    moved = pushforward(net, disp)
    if new_state.cumulative_displacement is None:
        new_state.cumulative_displacement = disp
    else:
        new_state.cumulative_displacement = new_state.cumulative_displacement + disp
    new_state.time = state.time + dt
    # mesh maintenance
    h_lo, h_hi = policy.h_min * eps, policy.h_max * eps
    survivors = []
    for li, lp in enumerate(moved.loops):
        if lp.total_length() < policy.kappa * eps:
            new_state.log_event("annihilation", loop=li, length=lp.total_length())
        else:
            survivors.append(lp)
    moved = moved.with_loops(survivors)
    needs = any(
        lp.segment_lengths().min() < h_lo or lp.segment_lengths().max() > h_hi
        for lp in moved.loops
    )
    if not moved.is_empty() and needs:
        before = mass(moved)
        moved = remesh(moved, h_lo, h_hi)
        new_state.log_event("remesh", mass_before=before, mass_after=mass(moved))
        new_state.cumulative_displacement = None
    elif survivors and len(survivors) != len(state.network.loops):
        new_state.cumulative_displacement = None
    new_state.network = moved
    if moved.is_empty():
        new_state.termination = "annihilated"
        new_state.log_event("annihilated_all")
    return new_state


def run(network, ev, model, rule, policy, snapshot_cb=None):
    """March the network until t_end, annihilation, blow-up or dt floor."""
    state = EvolutionState(time=0.0, network=network)
    mass0 = mass(network) if not network.is_empty() else 0.0
    if network.is_empty():
        state.termination = "empty"
        state.log_event("empty_start")
        return state
    istep = 0
    while policy.t_end - state.time > policy.dt_min:
        net = state.network
        solved = _energy_force_velocity(net, ev, model, rule)
        vf = solved[2]
        dt = policy.choose_dt(net.epsilon, vf.v_inf, vf.dv_inf, policy.t_end - state.time)
        if dt < policy.dt_min:
            state.log_event("dt_floor", dt=dt)
            state.termination = "dt_floor"
            break
        state = step(state, dt, ev, model, rule, policy, mass0=mass0, precomputed=solved)
        istep += 1
        if snapshot_cb is not None and istep % policy.snapshot_every == 0:
            snapshot_cb(istep, state)
        if state.termination:
            break
    if not state.termination:
        state.termination = "t_end"
        state.log_event("t_end")
    return state


def bound_monitor(diagnostics):
    """Maximum of each monitored bound ratio over a diagnostics record."""
    if not diagnostics:
        raise ValueError("empty diagnostics record")
    return {
        "ap_vel": max(r.ratio_ap_vel for r in diagnostics),
        "pk_linf": max(r.ratio_pk_linf for r in diagnostics),
        "length_rate": max(r.ratio_length_rate for r in diagnostics),
        "mass": max(r.ratio_mass for r in diagnostics),
    }
