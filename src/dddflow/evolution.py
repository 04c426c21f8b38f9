"""Velocity solve and explicit gradient-flow time stepping.

Each step minimizes the dissipation potential minus the force power over
periodic piecewise-linear velocity fields on every loop, with the line
constraint v.tau = 0 eliminated by expressing v in a per-node basis of
the normal plane.  All loops form one SPD system, block tridiagonal along
each loop with 2x2 blocks and one wrap-around coupling, which block
cyclic reduction shrinks and a batched dense solve ends.  Nodes are then
pushed forward by dt*v, the mesh is resampled when segments leave the
target band, and loops below the annihilation length are removed.

The driving force density is minus the discrete energy gradient divided
by the lumped node length; it converges to the line-integral
Peach-Koehler density under refinement and makes the discrete energy
decrement match the dissipated power to second order in dt.
"""

import ctypes
import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import BOUND_CONSTANTS
from .energy_force import FLAT, energy_and_gradient
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
    """Orthonormal bases (n, 3, 2) of the planes normal to unit tangents:
    the branchless frame of Duff et al., J. Comput. Graph. Tech. 6 (2017)."""
    x, y, z = tau.T
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    e1 = np.stack([1.0 + s * x * x * a, s * b, -s * x], axis=1)
    return np.stack([e1, np.stack([b, s + y * y * a, -y], axis=1)], axis=2)


def _reduced_system(network, force_density, model):
    """Reduced SPD system of the whole network: P1 gradient penalty plus
    lumped drag in per-node normal-plane coordinates.  Along each loop it
    is block tridiagonal with one wrap-around coupling: row i holds the
    2x2 block D_i at node i, B_i at succ[i] and B_p^T at the node p whose
    successor is i.  Returns D and B (n, 2, 2), the right-hand side (n, 2)
    and the (n, 3, 2) node bases."""
    layout = network.layout
    if layout.hairpin.any():
        raise SolverError(
            f"hairpin node(s) {np.flatnonzero(layout.hairpin).tolist()}: remesh before solving"
        )
    succ = layout.succ
    Q = _normal_basis(layout.tangents)
    Qt = Q.transpose(0, 2, 1)
    bdag = drag_matrix(model, layout.burgers, layout.tangents)
    # segment i -> succ[i] penalizes |Q_j u_j - Q_i u_i|^2 with weight alpha / h_i
    c = model.alpha / layout.seg_len
    stiff = c.copy()
    stiff[succ] += c
    D = layout.lumped[:, None, None] * (Qt @ bdag @ Q) + stiff[:, None, None] * np.eye(2)
    B = -c[:, None, None] * (Qt @ Q[succ])
    rhs = layout.lumped[:, None] * np.einsum("nai,na->ni", Q, force_density, optimize=False)
    return D, B, rhs, Q


def _block_product(D, B, succ, u):
    """A u for the system (D, B) of `_reduced_system`, u of shape (n, 2)."""
    y = (D @ u[:, :, None] + B @ u[succ][:, :, None])[:, :, 0]
    y[succ] += (B.transpose(0, 2, 1) @ u[:, :, None])[:, :, 0]
    return y


# Cyclic reduction stops at loops of this many nodes (2-core x86, one BLAS thread):
# dense solves of 7-39 nodes took 1/5-1/3 of its time, of 40 loops of 30 as long.
DENSE_LOOP = 24


@functools.lru_cache(maxsize=16)
def _reduction_plan(sizes):
    """Index plan of block cyclic reduction on loops of the given sizes,
    stored one after another, while some loop has more than DENSE_LOOP
    nodes.  Each level eliminates the nodes j at odd positions of every
    loop (no two adjacent), each between p = j - 1 and its successor s;
    the survivors `keep` stay in order.  ip and is_ are the survivor
    indices of each j's p and s, and a and b give each survivor the j it
    precedes and the j it follows, len(j) for none.  The base indexes the
    survivors' blocks D, B, B^T, their unknowns and the padding's diagonal
    in one dense system per loop, padded with the identity to 2S unknowns."""
    sizes = np.array(sizes)
    levels = []
    while sizes.max() > DENSE_LOOP:
        start = np.repeat(np.cumsum(sizes) - sizes, sizes)
        pos = np.arange(len(start)) - start
        odd = pos % 2 == 1
        j, keep = np.flatnonzero(odd), np.flatnonzero(~odd)
        survivor = np.cumsum(~odd) - 1
        s = np.where(pos[j] + 1 < np.repeat(sizes, sizes)[j], j + 1, start[j])
        ip, is_ = survivor[j - 1], survivor[s]
        a = np.full(len(keep), len(j))
        a[ip] = np.arange(len(j))
        b = np.full(len(keep), len(j))
        b[is_] = np.arange(len(j))
        levels.append((j, keep, ip, is_, a, b))
        sizes = (sizes + 1) // 2
    n_loops, size = len(sizes), int(sizes.max())
    pos = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    succ = (pos + 1) % np.repeat(sizes, sizes)
    first = np.repeat(np.arange(n_loops) * 2 * size, sizes)

    def block(p, q):  # rows 2p, 2p + 1 and columns 2q, 2q + 1 of each node's loop
        return ((first + 2 * p)[:, None, None] + [[0], [1]]) * 2 * size + 2 * q[:, None, None] + [0, 1]

    unknown = ((first + 2 * pos)[:, None] + [0, 1]).ravel()
    pad = np.setdiff1d(np.arange(n_loops * 2 * size), unknown)
    blocks = np.stack([block(pos, pos), block(pos, succ), block(succ, pos)]).ravel()
    return levels, (blocks, pad * 2 * size + pad % (2 * size), unknown, n_loops, size)


# adj(M) = M[::-1, ::-1].T * _ADJ_SIGN for a 2x2 M, so adj(M) M = det(M) I
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _solve_2x2(M, R):
    """M^-1 R for stacks of 2x2 M and 2-row R, from the adjugate: its
    product with [M e_1 | R] is det(M) e_1 in the first column."""
    adj = M[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJ_SIGN
    Z = adj @ np.concatenate((M[:, :, :1], R), axis=2)
    return Z[:, :, 1:] / Z[:, :1, :1]


def _cyclic_reduction(D, B, rhs, sizes):
    """Solve the system (D, B) of `_reduced_system` on loops of the given
    sizes by block cyclic reduction (Heller, SIAM J. Numer. Anal. 13,
    1976) in batched levels, until no loop has more than DENSE_LOOP
    nodes, and what is left as one batched dense system.

    Each node holds its row [D | r | B] (2 x 5).  Eliminating j, with
    u_j = D_j^-1 (r_j - B_p^T u_p - B_j u_s), subtracts B_p D_j^-1
    [B_p^T | r_j | B_j + D_j] from row p, which leaves it the coupling
    -B_p D_j^-1 B_j to s, and B_j^T D_j^-1 [B_j | r_j] from [D | r] of row
    s.  It is symmetric elimination of an SPD matrix, so the blocks stay
    SPD and need no pivoting; a 2-cycle (p = s) takes both updates."""
    levels, (blocks, pad, unknown, n_loops, size) = _reduction_plan(sizes)
    M = np.concatenate((D, rhs[:, :, None], B), axis=2)
    solved = []
    for j, keep, ip, is_, a, b in levels:
        e = len(j)
        Mj = M.take(j, axis=0)
        Dj, rj, Bj = Mj[:, :, :2], Mj[:, :, 2:3], Mj[:, :, 3:]
        Bp = M.take(j - 1, axis=0)[:, :, 3:]
        X = _solve_2x2(Dj, np.concatenate((Bj, rj, Bp.transpose(0, 2, 1), rj, Bj + Dj), axis=2))
        # one zero row past the updates, for the survivors that take none
        to_p = np.zeros((e + 1, 2, 5))
        np.matmul(Bp, X[:, :, 3:], out=to_p[:e])
        to_s = np.zeros((e + 1, 2, 3))
        np.matmul(Bj.transpose(0, 2, 1), X[:, :, :3], out=to_s[:e])
        M_next = M.take(keep, axis=0) - to_p.take(a, axis=0)
        M_next[:, :, :3] -= to_s.take(b, axis=0)
        solved.append(X[:, :, :5])
        M = M_next
    # entries that meet add up: a loop of one node has D + B + B^T
    values = np.stack((M[:, :, :2], M[:, :, 3:], M[:, :, 3:].transpose(0, 2, 1))).ravel()
    A = np.bincount(blocks, values, n_loops * 4 * size * size)
    A[pad] = 1.0
    r = np.bincount(unknown, M[:, :, 2].ravel(), n_loops * 2 * size)
    u = np.linalg.solve(A.reshape(n_loops, 2 * size, -1), r.reshape(n_loops, -1, 1)).ravel()
    u = u[unknown].reshape(-1, 2)
    for (j, keep, ip, is_, a, b), X in zip(reversed(levels), reversed(solved)):
        # X [u_s | -1 | u_p] = D_j^-1 (B_j u_s - r_j + B_p^T u_p) = -u_j
        y = np.concatenate((u.take(is_, axis=0), np.full((len(j), 1), -1.0), u.take(ip, axis=0)), axis=1)
        u_prev = np.empty((len(keep) + len(j), 2))
        u_prev[keep] = u
        u_prev[j] = -(X @ y[:, :, None])[:, :, 0]
        u = u_prev
    return u


def weak_form_residual(network, force_density, model, vf, rng):
    """Residual of the assembled weak form at the computed velocity,
    normalized per loop against 100 random reduced test fields."""
    D, B, rhs, Q = _reduced_system(network, np.asarray(force_density, dtype=float), model)
    u = np.einsum("nij,ni->nj", Q, vf.v, optimize=False)
    dof_loop = np.repeat(network.layout.loop_of, 2)
    r = (_block_product(D, B, network.layout.succ, u) - rhs).ravel()
    rhs = rhs.ravel()
    worst = 0.0
    for li in range(network.n_loops):
        r_loop = r[dof_loop == li]
        scale = max(float(np.linalg.norm(rhs[dof_loop == li])), 1e-300)
        w = rng.normal(size=(100, len(r_loop)))
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
    D, B, rhs, Q = _reduced_system(network, force_density, model)
    layout = network.layout
    sizes = tuple(np.bincount(layout.loop_of).tolist())
    u = _cyclic_reduction(D, B, rhs, sizes)
    res = float(np.linalg.norm(_block_product(D, B, layout.succ, u) - rhs))
    scale = float(np.linalg.norm(rhs))
    rel = res / scale if scale > 0 else res
    if not (np.isfinite(scale) and rel <= 1e-9):
        raise SolverError(f"velocity solve residual {rel:.2e} (|rhs| {scale:.2e}) not below 1e-9")
    v = np.einsum("nij,nj->ni", Q, u, optimize=False)
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


def step(state, ev, model, rule, policy):
    """One explicit step: force, velocity, dt, push, remesh, annihilate.

    Advances `state` in place and returns it: chooses dt from the
    velocity, appends the step's diagnostics row, logs its events and
    records termination.  A dt below policy.dt_min ends the run with no
    row; a non-finite energy, gradient or velocity raises SolverError
    naming its phase and the step.  The mass bound starts from the first
    row's mass.
    """
    net = state.network
    eps = net.epsilon
    energy, grad = energy_and_gradient(net, ev, rule)
    _require_finite("energy", energy, state)
    _require_finite("gradient", grad, state)
    f_density = -grad / net.layout.lumped[:, None]
    vf = solve_velocity(net, f_density, model)
    _require_finite("velocity", vf.v, state)
    dt = policy.choose_dt(eps, vf.v_inf, vf.dv_inf, policy.t_end - state.time)
    if dt < policy.dt_min:
        state.log_event("dt_floor", dt=dt)
        state.termination = "dt_floor"
        return state
    m_now = mass(net)
    theta = mass_ratio(net)
    rows = state.diagnostics
    mass_initial, prev_energy = (rows[0].mass, rows[-1].energy) if rows else (m_now, energy)
    f_inf = float(np.linalg.norm(f_density, axis=1).max())
    r_ap, r_f, r_len, r_mass = _bound_ratios(net, model, vf, f_inf, m_now, theta, state.time, mass_initial)
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
    moved = pushforward(net, dt * vf.v)
    state.time += dt
    # mesh maintenance
    lengths = moved.layout.loop_length
    short = lengths < policy.kappa * eps
    for li in np.flatnonzero(short):
        state.log_event("annihilation", loop=int(li), length=float(lengths[li]))
    if short.any():
        moved = moved.with_loops([lp for lp, gone in zip(moved.loops, short) if not gone])
    state.network = remesh(moved, policy.h_min * eps, policy.h_max * eps)
    if state.network is not moved:
        state.log_event("remesh", mass_before=mass(moved), mass_after=mass(state.network))
    if state.network.is_empty():
        state.termination = "annihilated"
        state.log_event("annihilated_all")
    return state


@functools.cache
def _keep_freed_heap():
    """Let the heap keep what a run frees.  Under glibc's default
    thresholds the 0.1-2 MB arrays of every correlation chunk are unmapped
    or trimmed when freed and faulted in again by the next chunk.  An mmap
    threshold of 8 MiB, four times the largest array CHUNK_BUDGET allows,
    serves them from the heap, and a trim threshold of twice that (glibc's
    ratio) keeps them there.  Skipped where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


def run(network, ev, model, rule, policy, snapshot_cb=None):
    """March the network until t_end, annihilation, blow-up or dt floor.

    A network whose nodes lie within FLAT eps of a plane that is not
    already normal to the rule's axis runs on the rule turned to that
    plane (one `rule_aligned` event) and sweeps once per pair of azimuths."""
    _keep_freed_heap()
    state = EvolutionState(time=0.0, network=network)
    if network.is_empty():
        state.termination = "empty"
        state.log_event("empty_start")
        return state
    nodes, flat = network.layout.nodes, FLAT * network.epsilon
    normal = np.linalg.svd(nodes - nodes.mean(axis=0), full_matrices=False)[2][-1]
    if ev.mirror is not None and np.ptp(nodes @ normal) <= flat < np.ptp(nodes @ ev.axis):
        ev = ev.aligned(normal)
        state.log_event("rule_aligned", axis=ev.axis.tolist())
    while not state.termination and policy.t_end - state.time > policy.dt_min:
        step(state, ev, model, rule, policy)
        istep = len(state.diagnostics)
        # a dt floor appends no row, so it takes no snapshot
        if snapshot_cb is not None and state.termination != "dt_floor" and istep % policy.snapshot_every == 0:
            snapshot_cb(istep, state)
    if not state.termination:
        state.termination = "t_end"
        state.log_event("t_end")
    return state


def bound_monitor(diagnostics):
    """Maximum of each monitored bound ratio over a diagnostics record,
    keyed by its `ratio_` column without the prefix."""
    if not diagnostics:
        raise ValueError("empty diagnostics record")
    return {
        c.removeprefix("ratio_"): max(getattr(r, c) for r in diagnostics)
        for c in DiagnosticsRow.COLUMNS
        if c.startswith("ratio_")
    }
