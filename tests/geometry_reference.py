"""Reference geometry that only the tests read: one loop's geometry
computed on its own, a reversed loop, the boundary of a triangulated
surface, and its midpoint refinement."""

import numpy as np

from dddflow import geometry as GE


def loop_geometry(loop):
    """One loop's per-node geometry from np.roll of its own nodes: segment
    vectors and lengths, lumped lengths, tangents with hairpin flags, and
    the total length."""
    seg = np.roll(loop.nodes, -1, axis=0) - loop.nodes
    lengths = np.linalg.norm(seg, axis=1)
    unit = seg / lengths[:, None]
    both = unit + np.roll(unit, 1, axis=0)
    hairpin = np.linalg.norm(both, axis=1) < 1e-8
    safe = np.where(hairpin[:, None], unit, both)
    return {
        "segments": seg,
        "seg_len": lengths,
        "lumped": 0.5 * (lengths + np.roll(lengths, 1)),
        "tangents": safe / np.linalg.norm(safe, axis=1)[:, None],
        "hairpin": hairpin,
        "total": lengths.sum(),
    }


def reversed_loop(loop):
    """The same loop traversed backwards."""
    return GE.Loop(loop.nodes[::-1].copy(), loop.burgers)


def boundary_edges(surface):
    """Directed edges on the boundary (internal pairs cancel exactly)."""
    seen = {}
    for t in surface.triangles:
        for i in range(3):
            a = tuple(t[i])
            b = tuple(t[(i + 1) % 3])
            if (b, a) in seen and seen[(b, a)] > 0:
                seen[(b, a)] -= 1
            else:
                seen[(a, b)] = seen.get((a, b), 0) + 1
    return [e for e, n in seen.items() if n > 0 for _ in range(n)]


def midpoint_refined(surface):
    """Midpoint 4-split; boundary midpoints stay on the original edges."""
    tri = surface.triangles
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    parts = np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ],
        axis=0,
    )
    return GE.SpanningSurface(parts, surface.slip)
