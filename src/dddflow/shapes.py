"""Benchmark loop builders used by tests, calibration and examples."""

import numpy as np

from .geometry import Lattice, BurgersVector, Loop, DislocationNetwork

__all__ = [
    "cubic_lattice",
    "circle_loop",
    "ellipse_loop",
    "square_loop",
    "random_loop",
    "single_loop_network",
]


def cubic_lattice():
    return Lattice(np.eye(3))


def circle_loop(lattice, radius, n_nodes, burgers=(0, 0, 1), center=(0.0, 0.0, 0.0)):
    """Regular n-gon inscribed in a circle in the xy plane; prismatic by
    default (b normal to the loop plane)."""
    th = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.stack([radius * np.cos(th), radius * np.sin(th), np.zeros(n_nodes)], axis=1)
    return Loop(nodes + np.asarray(center, dtype=float), BurgersVector(lattice, burgers))


def ellipse_loop(lattice, a, b, n_nodes, burgers=(0, 0, 1), center=(0.0, 0.0, 0.0)):
    th = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.stack([a * np.cos(th), b * np.sin(th), np.zeros(n_nodes)], axis=1)
    return Loop(nodes + np.asarray(center, dtype=float), BurgersVector(lattice, burgers))


def square_loop(lattice, side, nodes_per_side, burgers=(0, 0, 1), center=(0.0, 0.0, 0.0)):
    h = side / nodes_per_side
    t = np.arange(nodes_per_side) * h - 0.5 * side
    right = np.stack([np.full_like(t, 0.5 * side), t, np.zeros_like(t)], axis=1)
    top = np.stack([-t, np.full_like(t, 0.5 * side), np.zeros_like(t)], axis=1)
    left = np.stack([np.full_like(t, -0.5 * side), -t, np.zeros_like(t)], axis=1)
    bottom = np.stack([t, np.full_like(t, -0.5 * side), np.zeros_like(t)], axis=1)
    nodes = np.concatenate([right, top, left, bottom], axis=0)
    return Loop(nodes + np.asarray(center, dtype=float), BurgersVector(lattice, burgers))


def random_loop(lattice, rng, n_nodes=12, scale=1.0, burgers=(1, 0, 0), center=(0.0, 0.0, 0.0)):
    """Smooth random closed loop: a circle plus a few low-order Fourier modes."""
    th = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    r = scale * (1.0 + 0.2 * np.cos(2 * th + rng.uniform(0, 2 * np.pi))
                 + 0.1 * np.cos(3 * th + rng.uniform(0, 2 * np.pi)))
    z = 0.2 * scale * np.sin(2 * th + rng.uniform(0, 2 * np.pi))
    nodes = np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)
    return Loop(nodes + np.asarray(center, dtype=float), BurgersVector(lattice, burgers))


def single_loop_network(loop, epsilon):
    return DislocationNetwork(loop.burgers.lattice, [loop], epsilon)
