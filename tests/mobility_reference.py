"""The mobility matrix B, which only the tests read: the program uses
only the drag matrix Bdag, and B is its pseudo-inverse on the plane
normal to the tangent."""

from types import SimpleNamespace

import numpy as np

from dddflow import mobility as MB


def drag_pair(model, b, tau):
    """Drag matrix Bdag of (b, tau) as `pseudo_inverse` and the mobility B
    as `matrix`, for one tangent (3,) or a stack (n, 3).  Bdag annihilates
    tau and is positive definite on the normal plane, so B + tau tau^T is
    the inverse of Bdag + tau tau^T."""
    tau = np.asarray(tau, dtype=float)
    bdag = MB.drag_matrix(model, b, tau)
    tt = tau[..., :, None] * tau[..., None, :]
    B = np.linalg.inv(bdag + tt) - tt
    return SimpleNamespace(matrix=0.5 * (B + np.swapaxes(B, -1, -2)), pseudo_inverse=bdag)
