"""Network JSON, CSV writers, event log, and SVG snapshots.

The network format is version-tagged ("ddd-net/1") and round-trips
finite doubles exactly (floats are serialized with shortest-round-trip
repr, at most 17 significant digits).
"""

import hashlib
import json

import numpy as np

from .errors import ConfigError, GeometryError
from .geometry import BurgersVector, DislocationNetwork, Lattice, Loop

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "diagnostics_csv",
    "forces_csv",
    "kernel_table_csv",
    "write_events",
    "render_svg",
]

FORMAT_TAG = "ddd-net/1"


def network_to_dict(network):
    return {
        "format": FORMAT_TAG,
        "epsilon": network.epsilon,
        "lattice": network.lattice.basis.tolist(),
        "loops": [
            {"burgers": lp.burgers.coords.tolist(), "nodes": lp.nodes.tolist()}
            for lp in network.loops
        ],
    }


def _numbers(value, key):
    """`value` if it is a JSON number or nested lists of them: strings and
    booleans are rejected, as in the config."""
    if isinstance(value, list):
        for v in value:
            _numbers(v, key)
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{key!r} must hold JSON numbers only")
    return value


def network_from_dict(data):
    if not isinstance(data, dict) or data.get("format") != FORMAT_TAG:
        raise ConfigError(f"expected network format {FORMAT_TAG!r}")
    for key in data:
        if key not in ("format", "epsilon", "lattice", "loops"):
            raise ConfigError(f"unknown network key {key!r}")
    try:
        lattice = Lattice(np.asarray(_numbers(data["lattice"], "lattice"), dtype=float))
        loops = []
        for i, lp in enumerate(data["loops"]):
            try:
                nodes = np.asarray(_numbers(lp["nodes"], "nodes"), dtype=float)
                loops.append(Loop(nodes, BurgersVector(lattice, _numbers(lp["burgers"], "burgers"))))
            except (KeyError, TypeError, ValueError, GeometryError) as exc:
                raise ConfigError(f"malformed network: loop {i}: {exc}") from exc
        return DislocationNetwork(lattice, loops, float(_numbers(data["epsilon"], "epsilon")))
    except (KeyError, TypeError, ValueError, GeometryError) as exc:
        raise ConfigError(f"malformed network: {exc}") from exc


def save_network(network, path):
    with open(path, "w") as fh:
        # json.dumps runs the C encoder, json.dump to a file the pure-Python one
        fh.write(json.dumps(network_to_dict(network)) + "\n")


def load_network(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read network {path}: {exc}") from exc
    return network_from_dict(data)


def diagnostics_csv(rows):
    from .evolution import DiagnosticsRow

    lines = [",".join(DiagnosticsRow.COLUMNS)]
    for r in rows:
        lines.append(",".join(repr(float(v)) for v in r.values()))
    return "\n".join(lines) + "\n"


def forces_csv(network, field):
    lines = ["node,x,y,z,fx,fy,fz,lumped_length"]
    nodes = network.layout.nodes
    for i in range(len(nodes)):
        vals = list(nodes[i]) + list(field.density[i]) + [field.lumped[i]]
        lines.append(str(i) + "," + ",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


def energy_csv(breakdown):
    lines = ["loop_i,loop_j,energy"]
    L = breakdown.matrix.shape[0]
    for i in range(L):
        for j in range(L):
            lines.append(f"{i},{j},{float(breakdown.matrix[i, j])!r}")
    lines.append(f"total,,{breakdown.total!r}")
    return "\n".join(lines) + "\n"


_IDX4 = [(a, b, c, d) for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
# Points per block of the kernel table, at most: its arrays stay a few MB
# on any grid.  The blocks are of equal size, as a small last block could
# take a different multithreaded BLAS path and round differently.
TABLE_BLOCK = 256


def _csv_row(row):
    """`",".join(map(repr, row))`, with one repr per distinct bit pattern.

    K_abcd = K_cdab repeats about half of each table row.  Bit patterns,
    not values, are compared, so 0.0 and -0.0 keep their own text.
    """
    bits, inverse = np.unique(row.view(np.uint64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return ",".join([text[i] for i in inverse.tolist()])


def kernel_table_csv(ev, points, include_grad=False):
    """CSV dump of K (and optionally grad K) at the given points.

    Component columns are row-major over the indices: K_abcd with d
    fastest; gradient columns dK_abcd_e append the derivative index
    fastest of all.  The sums run over blocks of TABLE_BLOCK points, each
    formatted as soon as it is computed.
    """
    from .kernels import sphere_sum

    points = np.asarray(points, dtype=float).reshape(-1, 3)
    header = ["s_x", "s_y", "s_z"]
    header += [f"K_{a + 1}{b + 1}{c + 1}{d + 1}" for a, b, c, d in _IDX4]
    if include_grad:
        header += [f"dK_{a + 1}{b + 1}{c + 1}{d + 1}_{e + 1}" for a, b, c, d in _IDX4 for e in range(3)]
    lines = [",".join(header)]
    for p in np.array_split(points, max(1, int(np.ceil(len(points) / TABLE_BLOCK)))):
        blocks = [p, sphere_sum(ev, p).reshape(-1, 81)]
        if include_grad:
            dK = [sphere_sum(ev, p, 1, directions=[e]).reshape(-1, 81) for e in np.eye(3)]
            blocks.append(np.stack(dK, axis=-1).reshape(-1, 243))
        lines.extend(map(_csv_row, np.concatenate(blocks, axis=1)))
    lines.append("")
    return "\n".join(lines)


def write_events(events, path):
    with open(path, "w") as fh:
        for e in events:
            fh.write(json.dumps(e) + "\n")


_PLANES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


def _burgers_color(coords):
    h = hashlib.sha1(np.asarray(coords, dtype=int).tobytes()).digest()
    return f"#{h[0]:02x}{h[1]:02x}{h[2]:02x}"


def render_svg(network, plane="xy", path=None):
    """Orthographic projection of the loops, colored by Burgers vector,
    with an epsilon-length scale bar, on a 640-pixel square."""
    if network.is_empty():
        raise GeometryError("cannot render an empty network")
    if plane not in _PLANES:
        raise ValueError(f"plane must be one of {sorted(_PLANES)}")
    ix, iy = _PLANES[plane]
    size = 640
    pts = network.layout.nodes[:, [ix, iy]]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float((hi - lo).max()), network.epsilon)
    margin = 0.08 * span
    lo = lo - margin
    scale = size / (span + 2 * margin)

    def xy(p):
        q = (p[[ix, iy]] - lo) * scale
        return q[0], size - q[1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for lp in network.loops:
        cmds = []
        for i, node in enumerate(lp.nodes):
            x, y = xy(node)
            cmds.append(f"{'M' if i == 0 else 'L'} {x:.2f} {y:.2f}")
        cmds.append("Z")
        parts.append(
            f'<path d="{" ".join(cmds)}" fill="none" '
            f'stroke="{_burgers_color(lp.burgers.coords)}" stroke-width="1.5"/>'
        )
    bar = network.epsilon * scale
    parts.append(
        f'<line x1="10" y1="{size - 10}" x2="{10 + bar:.2f}" y2="{size - 10}" '
        'stroke="black" stroke-width="2"/>'
    )
    parts.append(f'<text x="10" y="{size - 16}" font-size="11">eps</text>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
