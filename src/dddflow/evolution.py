"""Velocity solve and explicit gradient-flow time stepping.

Each step minimizes the dissipation potential minus the force power over
periodic piecewise-linear velocity fields on every loop, with the line
constraint v.tau = 0 eliminated by expressing v in a per-node basis of
the normal plane; all loops form one sparse SPD system.  Nodes are then
pushed forward by dt*v, the mesh is resampled when segments leave the
target band, and loops below the annihilation length are removed.

The driving force density is minus the discrete energy gradient divided
by the lumped node length; it converges to the line-integral
Peach-Koehler density under refinement and makes the discrete energy
decrement match the dissipated power to second order in dt.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

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

    def values(self):
        return [getattr(self, c) for c in self.COLUMNS]


DiagnosticsRow.COLUMNS = tuple(f.name for f in fields(DiagnosticsRow))


@dataclass
class EvolutionState:
    time: float
    network: object
    diagnostics: list = field(default_factory=list)
    events: list = field(default_factory=list)
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


def _reduced_system(network, force_density, model):
    """Reduced SPD system of the whole network: P1 gradient penalty plus
    lumped drag in per-node normal-plane coordinates, assembled from 2x2
    blocks (a node's own block and one pair per segment).  Returns the
    sparse matrix, the right-hand side and the (n, 3, 2) node bases."""
    layout = network.layout
    if layout.hairpin.any():
        raise SolverError(
            f"hairpin node(s) {np.flatnonzero(layout.hairpin).tolist()}: remesh before solving"
        )
    n, succ = len(layout.nodes), layout.succ
    Q = np.stack(_normal_basis(layout.tangents), axis=2)
    Qt = Q.transpose(0, 2, 1)
    bdag = drag_matrix(model, layout.burgers, layout.tangents).pseudo_inverse
    # segment i -> succ[i] penalizes |Q_j u_j - Q_i u_i|^2 with weight alpha / h_i
    c = model.alpha / layout.seg_len
    stiff = c.copy()
    stiff[succ] += c
    diag = layout.lumped[:, None, None] * (Qt @ bdag @ Q) + stiff[:, None, None] * np.eye(2)
    off = -c[:, None, None] * (Qt @ Q[succ])
    blocks = np.concatenate([diag, off, off.transpose(0, 2, 1)])
    node = np.arange(n)
    rows = 2 * np.concatenate([node, node, succ])[:, None, None] + np.array([[0, 0], [1, 1]])
    cols = 2 * np.concatenate([node, succ, node])[:, None, None] + np.array([[0, 1], [0, 1]])
    A = scipy.sparse.csc_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), (2 * n, 2 * n))
    rhs = layout.lumped[:, None] * np.einsum("nai,na->ni", Q, force_density, optimize=False)
    return A, rhs.ravel(), Q


def weak_form_residual(network, force_density, model, vf, rng, n_fields=100):
    """Residual of the assembled weak form at the computed velocity,
    normalized per loop against random reduced test fields."""
    A, rhs, Q = _reduced_system(network, np.asarray(force_density, dtype=float), model)
    u = np.einsum("nij,ni->nj", Q, vf.v, optimize=False).ravel()
    dof_loop = np.repeat(network.layout.loop_of, 2)
    r = A @ u - rhs
    worst = 0.0
    for li in range(network.n_loops):
        r_loop = r[dof_loop == li]
        scale = max(float(np.linalg.norm(rhs[dof_loop == li])), 1e-300)
        w = rng.normal(size=(n_fields, len(r_loop)))
        worst = max(worst, float((np.abs(w @ r_loop) / (np.linalg.norm(w, axis=1) * scale)).max()))
    return worst


def solve_velocity(network, force_density, model):
    """Velocity field balancing dissipation against the given force density.

    force_density is (n_nodes, 3) stacked in loop order.  The returned
    field satisfies v.tau = 0 exactly at every node.  A non-finite force
    or a residual above 1e-9 relative raises SolverError.
    """
    if network.is_empty():
        raise SolverError("velocity solve on an empty network")
    force_density = np.asarray(force_density, dtype=float)
    A, rhs, Q = _reduced_system(network, force_density, model)
    try:
        u = scipy.sparse.linalg.splu(A).solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"velocity system singular: {exc}") from exc
    res = float(np.linalg.norm(A @ u - rhs))
    scale = float(np.linalg.norm(rhs))
    rel = res / scale if scale > 0 else res
    if not (np.isfinite(scale) and rel <= 1e-9):
        raise SolverError(f"velocity solve residual {rel:.2e} (|rhs| {scale:.2e}) not below 1e-9")
    layout = network.layout
    v = np.einsum("nij,nj->ni", Q, u.reshape(-1, 2), optimize=False)
    h = layout.seg_len
    dv_norm = np.linalg.norm(v[layout.succ] - v, axis=1)
    return VelocityField(
        v=v,
        tangents=layout.tangents,
        residual=rel,
        v_inf=float(np.linalg.norm(v, axis=1).max()),
        dv_inf=float((dv_norm / h).max()),
        v_l2=math.sqrt(float((layout.lumped * (v**2).sum(axis=1)).sum())),
        dv_l2=math.sqrt(float((dv_norm**2 / h).sum())),
        dv_l1=float(dv_norm.sum()),
        power=float((layout.lumped * (force_density * v).sum(axis=1)).sum()),
    )


def _bound_ratios(network, model, vf, f_inf, mass_now, theta, t_now, mass_initial):
    """The monitored bounds (ap_vel, pk_linf, length_rate, mass), each as
    its left-hand side over the right-hand side with the calibrated
    constant; the one statement of these bounds."""
    eps = network.epsilon
    bmax = network.max_burgers_norm()
    gam = min(model.alpha, model.beta())
    logterm = math.log(1.0 + 2.0 * mass_now / (eps * theta))
    v_h1 = math.sqrt(vf.v_l2**2 + vf.dv_l2**2)
    rhs_ap = BOUND_CONSTANTS["ap_vel"] * math.sqrt(mass_now) * theta * bmax / (eps * gam) * logterm
    rhs_len = BOUND_CONSTANTS["length_rate"] * mass_now * theta * bmax / (eps * gam) * logterm
    rhs_finf = BOUND_CONSTANTS["pk_linf"] / eps * bmax * theta * logterm
    denom = 1.0 / mass_initial - BOUND_CONSTANTS["mass"] * 2.0 * bmax * t_now / (eps**2 * gam)
    ratio_mass = mass_now * denom if denom > 0 else 0.0
    return (
        v_h1 / rhs_ap if rhs_ap > 0 else 0.0,
        f_inf / rhs_finf if rhs_finf > 0 else 0.0,
        vf.dv_l1 / rhs_len if rhs_len > 0 else 0.0,
        ratio_mass,
    )


def _require_finite(phase, value, state):
    if not np.isfinite(value).all():
        raise SolverError(f"non-finite {phase} at step {len(state.diagnostics)}")


def _energy_force_velocity(state, ev, model, rule):
    """Energy, gradient and velocity of the state's network; a non-finite
    value stops the run, naming its phase and the step."""
    net = state.network
    energy, grad = energy_and_gradient(net, ev, rule)
    _require_finite("energy", energy, state)
    _require_finite("gradient", grad, state)
    vf = solve_velocity(net, -grad / net.layout.lumped[:, None], model)
    _require_finite("velocity", vf.v, state)
    return energy, grad, vf


def step(state, dt, ev, model, rule, policy, precomputed=None):
    """One explicit step: force, velocity, push, remesh, annihilate.

    Advances `state` in place and returns it: appends the step's
    diagnostics row, logs its events and records termination.  dt may be
    0, in which case only the row is appended.  The mass bound starts
    from the first row's mass.  `precomputed` is (energy, grad, velocity
    field) of the current network, as `run` already has them from
    choosing dt.
    """
    net = state.network
    eps = net.epsilon
    if precomputed is None:
        precomputed = _energy_force_velocity(state, ev, model, rule)
    energy, grad, vf = precomputed
    f_density = -grad / net.layout.lumped[:, None]
    m_now = mass(net)
    theta = mass_ratio(net)
    rows = state.diagnostics
    mass_initial, prev_energy = (rows[0].mass, rows[-1].energy) if rows else (m_now, energy)
    f_inf = float(np.linalg.norm(f_density, axis=1).max())
    r_ap, r_f, r_len, r_mass = _bound_ratios(
        net, model, vf, f_inf, m_now, theta, state.time, mass_initial
    )
    rows.append(
        DiagnosticsRow(
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
    )
    if theta > policy.theta_max:
        state.log_event("blowup", theta_hat=theta, theta_max=policy.theta_max)
        state.termination = "blowup"
        return state
    if dt == 0.0:
        return state
    moved = pushforward(net, dt * vf.v)
    state.time += dt
    # mesh maintenance
    survivors = []
    for li, lp in enumerate(moved.loops):
        if lp.total_length() < policy.kappa * eps:
            state.log_event("annihilation", loop=li, length=lp.total_length())
        else:
            survivors.append(lp)
    moved = moved.with_loops(survivors)
    state.network = remesh(moved, policy.h_min * eps, policy.h_max * eps)
    if any(new is not old for new, old in zip(state.network.loops, moved.loops)):
        state.log_event("remesh", mass_before=mass(moved), mass_after=mass(state.network))
    if state.network.is_empty():
        state.termination = "annihilated"
        state.log_event("annihilated_all")
    return state


def run(network, ev, model, rule, policy, snapshot_cb=None):
    """March the network until t_end, annihilation, blow-up or dt floor."""
    state = EvolutionState(time=0.0, network=network)
    if network.is_empty():
        state.termination = "empty"
        state.log_event("empty_start")
        return state
    while policy.t_end - state.time > policy.dt_min:
        solved = _energy_force_velocity(state, ev, model, rule)
        vf = solved[2]
        dt = policy.choose_dt(network.epsilon, vf.v_inf, vf.dv_inf, policy.t_end - state.time)
        if dt < policy.dt_min:
            state.log_event("dt_floor", dt=dt)
            state.termination = "dt_floor"
            break
        step(state, dt, ev, model, rule, policy, precomputed=solved)
        istep = len(state.diagnostics)
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
