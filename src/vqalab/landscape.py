"""The continuous MaxCut objective, its calculus, and discrete rounding.

The objective is the trigonometric relaxation
``mu(phi) = (1/4) sum_ij A_ij [cos(phi_i) cos(phi_j) - 1]``
whose minimum over angles equals minus the maximum cut.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph

DISCRETE_TOL = 1e-9


def _check_phases(g: Graph, phi) -> np.ndarray:
    """The checks of every public function here; the private kernels skip them."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (g.d,):
        raise ValueError(f"phase vector length {phi.shape} does not match d={g.d}")
    if not np.isfinite(phi).all():
        raise ValueError("phase vector entries must be finite")
    return phi


def reduce_phases(phi) -> np.ndarray:
    """Canonical reduction of angles into [0, 2*pi)."""
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("phase vector entries must be finite")
    return np.mod(phi, 2 * np.pi)


def mu(g: Graph, phi) -> float:
    return float(_mu_rows(g, _check_phases(g, phi)[None])[0])


def _mu_cosine_rows(g: Graph, C: np.ndarray) -> np.ndarray:
    # unchecked: mu of each row of X from its cosines C = np.cos(X). The
    # stacked products make the same BLAS calls per row as ``c @ A @ c``, so
    # a row's value does not depend on the stack around it; ``C @ A`` and a
    # row einsum would round differently
    return (((C[:, None, :] @ g.float_adjacency) @ C[:, :, None])[:, 0, 0] - g.adjacency_sum) / 4


def _mu_rows(g: Graph, X: np.ndarray) -> np.ndarray:
    return _mu_cosine_rows(g, np.cos(X))


def _sin_exact(phi: np.ndarray) -> np.ndarray:
    # np.sin(np.pi) is ~1.2e-16; snap exact multiples of pi so the gradient
    # vanishes identically on {0, pi}^d points
    s = np.sin(phi)
    s[np.mod(phi, np.pi) == 0.0] = 0.0
    return s


def _mu_gradient_cosine_rows(g: Graph, X: np.ndarray, C: np.ndarray) -> np.ndarray:
    # unchecked: mu_gradient of each row of X from its cosines C = np.cos(X);
    # the stacked A @ c makes the same BLAS call per row as a row's own A @ c
    return -0.5 * _sin_exact(X) * (g.float_adjacency @ C[:, :, None])[:, :, 0]


def _mu_gradient_rows(g: Graph, X: np.ndarray) -> np.ndarray:
    return _mu_gradient_cosine_rows(g, X, np.cos(X))


def _mu_value_and_gradient_rows(g: Graph, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _mu_rows and _mu_gradient_rows of X from one np.cos(X)
    C = np.cos(X)
    return _mu_cosine_rows(g, C), _mu_gradient_cosine_rows(g, X, C)


def mu_gradient(g: Graph, phi) -> np.ndarray:
    return _mu_gradient_rows(g, _check_phases(g, phi)[None])[0]


def mu_hessian(g: Graph, phi) -> np.ndarray:
    phi = _check_phases(g, phi)
    c, s = np.cos(phi), _sin_exact(phi)
    h = 0.5 * g.adjacency * np.outer(s, s)
    np.fill_diagonal(h, -0.5 * c * (g.adjacency @ c))
    return h


def round_to_discrete(g: Graph, phi) -> np.ndarray:
    """Coordinate-wise rounding onto {0, pi}^d that never increases mu.

    Coordinates are processed in index order; each is replaced by whichever
    of {0, pi} minimizes mu with the other current coordinates fixed.  Exact
    ties go to 0.
    """
    phi = _check_phases(g, phi).copy()
    c = np.cos(phi)
    for i in range(g.d):
        # mu depends on phi_i as cos(phi_i) * s_i / 2 + const
        s_i = g.adjacency[i] @ c
        phi[i] = np.pi if s_i > 0 else 0.0
        c[i] = -1.0 if s_i > 0 else 1.0
    return phi


def discrete_signs(phi) -> np.ndarray:
    """Map angles within DISCRETE_TOL of {0, pi} (mod 2*pi) to cosine signs +/-1."""
    red = reduce_phases(phi)
    signs = np.empty(red.shape, dtype=int)
    near_zero = (red <= DISCRETE_TOL) | (red >= 2 * np.pi - DISCRETE_TOL)
    near_pi = np.abs(red - np.pi) <= DISCRETE_TOL
    if not np.all(near_zero | near_pi):
        raise ValueError("phase vector is not discrete (entries must be 0 or pi)")
    signs[near_zero] = 1
    signs[near_pi] = -1
    return signs


def is_discrete_local_min(g: Graph, phi) -> bool:
    """True iff no single 0 <-> pi swap strictly decreases mu.

    Flipping coordinate i changes mu by -c_i * (A c)_i, so the point is a
    local minimum iff c_i * (A c)_i <= 0 for all i.
    """
    c = discrete_signs(_check_phases(g, phi))
    return bool(np.all(c * (g.adjacency @ c) <= 0))


def phases_from_assignment(assignment) -> np.ndarray:
    """Bipartition signs +/-1 -> angles in {0, pi} (cos(phi_i) = v_i)."""
    v = np.asarray(assignment, dtype=int)
    return np.where(v == 1, 0.0, np.pi)

