"""Seeded workload generators.

Each generator returns the network (in the ``ddd-net/1`` JSON format), the
config (the JSON that ``dddflow simulate`` reads) and a ``meta`` dict that
only the benchmark's gates read.  Loop and node counts are fixed by
construction; the seed moves placement and orientation, never the amount
of work.  Only numpy is needed, so the generator runs without the program.
"""

import itertools
import math

import numpy as np

EPS = 0.1

def _random_rotation(rng):
    """Uniform random rotation (QR of a Gaussian matrix, sign-fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _circle(radius, n):
    th = 2.0 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(th), radius * np.sin(th), np.zeros(n)], axis=1)


def _network(lattice, loops):
    return {
        "format": "ddd-net/1",
        "epsilon": EPS,
        "lattice": np.asarray(lattice, dtype=float).tolist(),
        "loops": [{"burgers": list(b), "nodes": np.asarray(x).tolist()} for b, x in loops],
    }


def shrink_circle(seed):
    """The acceptance shrink run (R = 10 eps, 128 nodes, 16x32 rule, line
    order 2, dt_max 0.5, run to annihilation).  The seed rotates the lattice
    together with the loop, so the loop stays prismatic."""
    rot = _random_rotation(np.random.default_rng(seed))
    nodes = _circle(10 * EPS, 128) @ rot.T
    net = _network(rot, [((0, 0, 1), nodes)])
    cfg = {
        "epsilon": EPS,
        "quadrature": {"sphere_polar": 16, "sphere_azimuthal": 32, "line_order": 2},
        "stepping": {"dt_max": 0.5, "t_end": 1e9},
    }
    return net, cfg, {}


ENSEMBLE_RADII = (1.5, 1.5, 1.8, 2.0, 2.4, 2.8)  # in eps; nodes ~ 0.6 eps apart
ENSEMBLE_NODES = tuple(int(round(2 * math.pi * r / 0.6)) for r in ENSEMBLE_RADII)
ENSEMBLE_BURGERS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def cubic_stiffness(c11, c12, c44):
    """81 components of a cubic stiffness tensor in the crystal frame."""
    d = np.eye(3)
    C = (
        c12 * np.einsum("ij,kl->ijkl", d, d)
        + c44 * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    )
    for n in range(3):
        C[n, n, n, n] += c11 - c12 - 2.0 * c44
    return C.ravel().tolist()


def _cubic_rotations():
    """The 24 proper rotations of the cube, as signed permutation matrices."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            q = np.zeros((3, 3), dtype=int)
            q[np.arange(3), perm] = signs
            if round(np.linalg.det(q)) == 1:
                out.append(q)
    return out


CUBIC_ROTATIONS = _cubic_rotations()
# Fixed draw of each loop's plane, Burgers vector and grid cell.
_ENSEMBLE_BASE_SEED = 2018


def loop_ensemble(seed):
    """Six small loops with six cubic Burgers vectors and random planes, on
    distinct cells of an 8 eps grid; cubic anisotropic stiffness and BCC
    drag.

    The loops' radii, node counts, planes, Burgers vectors and cells come
    from a fixed draw.  The seed turns the whole network, Burgers vectors
    included, by one of the 24 cube rotations and translates it.  Cubic
    stiffness and BCC drag are invariant under both, so a new seed changes
    placement and orientation but not the physics: only the sphere rule's
    alignment differs, and the amount of work stays the same.  (Turning or
    moving loops one by one changes their interactions, which at 8 eps
    spacing changes the step count several-fold.)"""
    base = np.random.default_rng(_ENSEMBLE_BASE_SEED)
    planes = [_random_rotation(base) for _ in ENSEMBLE_RADII]
    burgers = [ENSEMBLE_BURGERS[i] for i in base.permutation(len(ENSEMBLE_BURGERS))]
    cells = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
    chosen = base.permutation(len(cells))[: len(ENSEMBLE_RADII)]
    rng = np.random.default_rng(seed)
    q = CUBIC_ROTATIONS[rng.integers(len(CUBIC_ROTATIONS))]
    shift = rng.uniform(-20 * EPS, 20 * EPS, size=3)
    loops = []
    for li, (radius, n) in enumerate(zip(ENSEMBLE_RADII, ENSEMBLE_NODES)):
        centre = 8 * EPS * np.asarray(cells[chosen[li]], dtype=float)
        nodes = (_circle(radius * EPS, n) @ planes[li].T + centre) @ q.T + shift
        loops.append((tuple(int(v) for v in q @ burgers[li]), nodes))
    net = _network(np.eye(3), loops)
    cfg = {
        "epsilon": EPS,
        "elasticity": {"full": cubic_stiffness(2.4, 1.4, 1.0)},
        "mobility": {"alpha": 1.0, "bcc": {"B_eg": 4.0, "B_ec": 1.0, "B_s": 2.0}},
        "quadrature": {"sphere_polar": 16, "sphere_azimuthal": 32, "line_order": 2},
        "stepping": {"t_end": 10.0},
        "annihilation_kappa": 7.0,
    }
    return net, cfg, {}


STATIC_NODES = 96
STATIC_BURGERS = ((0, 0, 1), (1, 0, 1))


def static_eval(seed):
    """Two coaxial circles (R = 12 eps, 96 nodes, 5 eps apart) with
    different Burgers vectors; default 24x48 rule and line order 4.

    The seed translates the pair, lists the loops in either order and
    shifts each loop's first node.  All outputs are invariant under these
    moves (up to the relabelling recorded in meta), so the references
    recorded for seed-free placement hold for every seed."""
    if seed is None:  # the canonical placement the references were recorded at
        shift, order, rolls = np.zeros(3), np.arange(2), np.zeros(2, dtype=int)
    else:
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-20 * EPS, 20 * EPS, size=3)
        order = rng.permutation(2)  # order[k] = canonical loop listed k-th
        rolls = rng.integers(0, STATIC_NODES, size=2)
    canon = [_circle(12 * EPS, STATIC_NODES), _circle(12 * EPS, STATIC_NODES) + [0.0, 0.0, 5 * EPS]]
    loops, node_index = [], [None, None]
    for k, ci in enumerate(order):
        loops.append((STATIC_BURGERS[ci], np.roll(canon[ci], -rolls[ci], axis=0) + shift))
        # canonical node j of loop ci sits at position (j - roll) mod n in its loop
        node_index[ci] = k * STATIC_NODES + (np.arange(STATIC_NODES) - rolls[ci]) % STATIC_NODES
    net = _network(np.eye(3), loops)
    cfg = {"epsilon": EPS}
    meta = {
        "loop_index": [int(np.nonzero(order == ci)[0][0]) for ci in range(2)],
        "node_index": np.concatenate(node_index).tolist(),
    }
    return net, cfg, meta


GENERATORS = {
    "shrink_circle": shrink_circle,
    "loop_ensemble": loop_ensemble,
    "static_eval": static_eval,
}
