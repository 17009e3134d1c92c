"""Instance constructors for every hardness-reduction family.

Each constructor pairs the built operators with the closed-form expectation
they are supposed to reproduce, so dense simulation can be cross-checked
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .landscape import _check_phases, _mu, mu, reduce_phases
from .sim import (
    DENSE_MAX_QUBITS,
    Blocks,
    Diagonal,
    SiteRotation,
    VqaInstance,
    _as_operator,
    apply_circuit,
    assert_state,
    check_state_size,
    expectation,
)

# Two-level generators of the multilayer QAOA transfer blocks, with
# eigenvalues {0,1}, {-1,1}, {-2,0} and {0,2} respectively.
_H0 = 0.5 * np.array([[1, -1j], [1j, 1]])
_H1 = np.array([[0, -1j], [1j, 0]])
_H2 = np.array([[-1, -1], [-1, -1]], dtype=complex)
_H3 = np.array([[1, 1], [1, 1]], dtype=complex)


# ---------------------------------------------------------------------------
# Oracular family (full qubit space, sigma_y rotations)

def ising_diagonal(g: Graph) -> np.ndarray:
    """Diagonal of the Ising cut encoding O = (1/4) sum A_ij (Z_i Z_j - 1).

    The entry for a basis state (qubit 0 most significant) equals minus the
    number of edges it cuts.
    """
    d = g.d
    check_state_size(d)
    codes = np.arange(1 << d)
    cut = np.zeros(1 << d, dtype=np.int64)
    for u, v in g.edges():
        cut += ((codes >> (d - 1 - u)) ^ (codes >> (d - 1 - v))) & 1
    # negate in integers so that an uncut state reads +0.0, not -0.0
    return (-cut).astype(float)


def ising_observable(g: Graph) -> np.ndarray:
    """The Ising cut encoding as a dense 2^d matrix."""
    if g.d > DENSE_MAX_QUBITS:
        raise ValueError(f"d={g.d} too large for a dense 2^d representation")
    return np.diag(ising_diagonal(g)).astype(complex)


def oracular_vqa_instance(g: Graph) -> VqaInstance:
    """Full-space instance with generators sigma_y^(i)/2 and the Ising observable."""
    d = g.d
    observable = Diagonal(ising_diagonal(g))
    psi0 = np.zeros(1 << d, dtype=complex)
    psi0[0] = 1.0
    return VqaInstance(
        initial=psi0,
        generators=tuple(SiteRotation(i, d) for i in range(d)),
        observable=observable,
        closed_form=lambda phi: mu(g, phi),
        family="oracular",
        graph=g,
    )


def boosted_expectation(g: Graph, k: int, phi) -> float:
    """Closed form -|mu|^k of the k-fold tensor-power observable."""
    if k < 1:
        raise ValueError("boosting power k must be >= 1")
    return -abs(mu(g, phi)) ** k


def boosted_vqa_instance(g: Graph, k: int) -> VqaInstance:
    """Tensor-power instance on k*d qubits with observable (-1)^(k-1) O^(x k).

    The k copies share the angle vector: generator i sums sigma_y^(i)/2 over
    all copies, so U(phi)^(x k) = exp(-i phi_i H_i).
    """
    if k < 1:
        raise ValueError("boosting power k must be >= 1")
    d = g.d
    n = k * d
    check_state_size(n)
    single = ising_diagonal(g)
    diag = np.ones(1)
    for _ in range(k):
        diag = np.kron(diag, single)
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    gens = tuple(SiteRotation(tuple(c * d + i for c in range(k)), n) for i in range(d))
    return VqaInstance(
        initial=psi0,
        generators=gens,
        observable=Diagonal((-1) ** (k - 1) * diag, dense=lambda: _boosted_dense_observable(g, k)),
        closed_form=lambda phi: boosted_expectation(g, k, phi),
        family="boosted",
        graph=g,
    )


def _boosted_dense_observable(g: Graph, k: int) -> np.ndarray:
    obs = np.array([[1.0 + 0j]])
    for _ in range(k):
        obs = np.kron(obs, ising_observable(g))
    return (-1) ** (k - 1) * obs


# ---------------------------------------------------------------------------
# Log-dimension family (2d-dimensional space)

def logdim_observable(g: Graph) -> np.ndarray:
    """Observable on C^(2d): off-diagonal (d/8) A x [[1,1],[1,1]], diagonal
    fixed to minus the column sums so all row sums vanish."""
    d = g.d
    o_prime = (d / 8) * np.kron(g.adjacency, np.ones((2, 2)))
    obs = o_prime.copy()
    np.fill_diagonal(obs, -o_prime.sum(axis=0))
    return obs.astype(complex)


def _logdim_generators(d: int) -> tuple:
    """Generator i is |2i-1><2i-1| - |2i><2i| on C^(2d) (1-indexed pairs)."""
    diags = np.zeros((d, 2 * d))
    for i in range(d):
        diags[i, 2 * i] = 1.0
        diags[i, 2 * i + 1] = -1.0
    return tuple(Diagonal(v) for v in diags)


def logdim_vqa_instance(g: Graph) -> VqaInstance:
    d = g.d
    psi0 = np.full(2 * d, 1 / math.sqrt(2 * d), dtype=complex)
    return VqaInstance(
        initial=psi0,
        generators=_logdim_generators(d),
        observable=logdim_observable(g),
        closed_form=lambda phi: mu(g, phi),
        family="logdim",
        graph=g,
    )


# ---------------------------------------------------------------------------
# Ergodic spectra and the single-layer family

@dataclass(frozen=True, eq=False)
class ErgodicSpectrum:
    """Energies E_i = 2*pi/m^i forming a (4*pi/m)-approximate ergodic spectrum."""

    m: int
    energies: np.ndarray
    epsilon: float

    @property
    def n(self) -> int:
        return self.energies.shape[0]


def ergodic_energies(n: int, m: int) -> ErgodicSpectrum:
    if m < 2:
        raise ValueError("base m must be >= 2")
    if n < 1:
        raise ValueError("need at least one energy")
    overflow = ValueError(f"base m is too large: m^{n} overflows a float")
    try:
        base = float(m)
    except OverflowError:
        raise overflow from None
    with np.errstate(over="ignore"):
        powers = base ** np.arange(1, n + 1)
    if not np.isfinite(powers[-1]):
        raise overflow
    energies = 2 * np.pi / powers
    energies.setflags(write=False)
    return ErgodicSpectrum(m=m, energies=energies, epsilon=4 * np.pi / m)


def modnorm(x: float) -> float:
    """Distance to the nearest multiple of 2*pi, in [0, pi]."""
    y = math.fmod(x, 2 * math.pi)
    if y < 0:
        y += 2 * math.pi
    return min(y, 2 * math.pi - y)


def ergodic_time(phi, spec: ErgodicSpectrum) -> int:
    """Constructive time t with ||phi_i - E_i t||_mod <= 4*pi/m for all i.

    Uses the digit construction s_i = floor(phi_i m / 2 pi),
    t = sum_j s_j m^(j-1); returned exactly as an integer.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (spec.n,):
        raise ValueError("phase vector length does not match spectrum size")
    if np.any(phi < 0) or np.any(phi >= 2 * np.pi):
        raise ValueError("phases must lie in [0, 2*pi)")
    m = spec.m
    digits = np.floor(phi * m / (2 * np.pi)).astype(int)
    digits = np.clip(digits, 0, m - 1)
    return int(sum(int(s) * m**j for j, s in enumerate(digits)))


def ergodic_phase_errors(phi, spec: ErgodicSpectrum, t: int) -> np.ndarray:
    """||phi_i - E_i t||_mod per coordinate, computed with exact modular reduction."""
    phi = np.asarray(phi, dtype=float)
    m = spec.m
    errs = np.empty(spec.n)
    for i in range(spec.n):
        period = m ** (i + 1)
        # E_i t mod 2*pi = 2*pi * (t mod m^(i+1)) / m^(i+1), exactly
        angle = 2 * math.pi * (t % period) / period
        errs[i] = modnorm(float(phi[i]) - angle)
    return errs


def _mu_rows(g: Graph, c: np.ndarray) -> np.ndarray:
    """landscape._mu of each row of phases, given the rows' cosines c."""
    return (np.einsum("ij,ij->i", c @ g.float_adjacency, c) - g.adjacency_sum) / 4


def _single_layer_value(g: Graph, energies: np.ndarray, t: float) -> float:
    # unchecked: energies * t must be finite
    return _mu(g, energies * t)


def _single_layer_values(g: Graph, energies: np.ndarray, ts: np.ndarray) -> np.ndarray:
    # unchecked: _single_layer_value at each time in ts, up to rounding
    return _mu_rows(g, np.cos(np.multiply.outer(ts, energies)))


def single_layer_instance(g: Graph, m: int) -> VqaInstance:
    """L=1 instance: the log-dimension observable with one generator carrying
    the ergodic spectrum, so a single time parameter scans all phases."""
    d = g.d
    spec = ergodic_energies(d, m)
    h = np.zeros(2 * d)
    h[0::2] = spec.energies
    h[1::2] = -spec.energies
    psi0 = np.full(2 * d, 1 / math.sqrt(2 * d), dtype=complex)
    energies = spec.energies

    def closed_form(phi):
        t = float(np.atleast_1d(np.asarray(phi, dtype=float))[0])
        _check_phases(g, energies * t)
        return _single_layer_value(g, energies, t)

    return VqaInstance(
        initial=psi0,
        generators=(Diagonal(h),),
        observable=logdim_observable(g),
        closed_form=closed_form,
        family="single-layer",
        graph=g,
    )


# ---------------------------------------------------------------------------
# QAOA instances

def _qaoa_instance(mixer, cost, layers: int, initial, closed_form, family: str, g: Graph) -> VqaInstance:
    """QAOA as a VqaInstance: generators (cost, mixer) * layers, observable
    the cost, initial state the mixer ground state.

    ``mixer`` and ``cost`` are Operators or Hermitian matrices, wrapped as
    Dense. The operators are shared by every layer, so each is diagonalised
    once: the mixer here, for the ground-state check, and the cost on first
    use.
    """
    mixer = _as_operator(mixer)
    cost = _as_operator(cost)
    psi = assert_state(initial)
    if not (mixer.dim == cost.dim == psi.shape[0]):
        raise ValueError("mixer, cost and initial state must have one dimension")
    if layers < 1:
        raise ValueError("need at least one layer")
    lam_min = mixer.extremes()[0]
    residual = np.linalg.norm(mixer.apply(psi) - lam_min * psi)
    if residual > 1e-9:
        raise ValueError(f"initial state is not the mixer ground state (residual {residual:.3e})")
    return VqaInstance(
        initial=psi,
        generators=(cost, mixer) * layers,
        observable=cost,
        closed_form=closed_form,
        family=family,
        graph=g,
        kind="qaoa",
    )


def qaoa_apply(inst: VqaInstance, beta, gamma) -> tuple[np.ndarray, float]:
    """Alternating evolution U_b(beta_L) U_c(gamma_L) ... U_b(beta_1) U_c(gamma_1)
    applied to the initial state; expectation taken with the cost Hamiltonian."""
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    layers = len(inst.generators) // 2
    if beta.shape != (layers,) or gamma.shape != (layers,):
        raise ValueError(f"expected {layers} betas and gammas")
    psi = apply_circuit(inst, np.column_stack((gamma, beta)).reshape(-1))
    return psi, expectation(psi, inst.observable)


def _qaoa1_value(g: Graph, energies: np.ndarray, tau: float, beta: float, gamma: float) -> float:
    # unchecked: energies * beta must be finite. f is landscape._mu's formula
    # on the cosines, so it is bit for bit mu(g, energies * beta).
    c = np.cos(energies * beta)
    f = float((c @ g.float_adjacency @ c - g.adjacency_sum) / 4)
    gfun = -math.sin(beta) / g.d * float(c.sum())
    return (
        math.sin(tau * gamma) ** 2 * f
        + 2 * tau * math.cos(tau * gamma) * math.sin(tau * gamma) * gfun
    )


def _qaoa1_values(g: Graph, energies: np.ndarray, tau: float, betas: np.ndarray, gamma: float) -> np.ndarray:
    # unchecked: _qaoa1_value at each beta in betas and one gamma, up to rounding
    c = np.cos(np.multiply.outer(betas, energies))
    gfun = -np.sin(betas) / g.d * c.sum(axis=1)
    s, co = math.sin(tau * gamma), math.cos(tau * gamma)
    return s**2 * _mu_rows(g, c) + 2 * tau * co * s * gfun


def qaoa_single_layer_instance(g: Graph, tau: float, m: int) -> VqaInstance:
    """Single-layer QAOA on C^(2d+1) hiding the ergodic-spectrum landscape.

    The mixer is diagonal with pairs (E_i, -E_i) and a -1 ground level; the
    cost couples that ground level to the uniform state with strength tau.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError("coupling tau must be finite and positive")
    # gamma's period 2*pi/tau bounds the verify sampler; pi/(2*tau), its
    # quarter, is the grid reference point, so one check covers both
    if not math.isfinite(2 * math.pi / tau):
        raise ValueError(f"coupling tau={tau!r} too small: 2*pi/tau and pi/(2*tau) must be finite")
    d = g.d
    spec = ergodic_energies(d, m)
    if np.any(np.abs(spec.energies) >= 1):
        raise ValueError(f"m={m} too small: need |E_i| < 1 (any m >= 7 works)")
    dim = 2 * d + 1
    hb = np.zeros(dim)
    hb[0 : 2 * d : 2] = spec.energies
    hb[1 : 2 * d : 2] = -spec.energies
    hb[2 * d] = -1.0
    hc = np.zeros((dim, dim), dtype=complex)
    hc[: 2 * d, : 2 * d] = logdim_observable(g)
    plus = np.full(2 * d, 1 / math.sqrt(2 * d))
    hc[: 2 * d, 2 * d] = tau * plus
    hc[2 * d, : 2 * d] = tau * plus
    psi0 = np.zeros(dim, dtype=complex)
    psi0[2 * d] = 1.0
    energies = spec.energies

    def closed_form(beta: float, gamma: float) -> float:
        _check_phases(g, energies * beta)
        return _qaoa1_value(g, energies, tau, beta, gamma)

    return _qaoa_instance(Diagonal(hb), hc, 1, psi0, closed_form, "qaoa1", g)


# ---------------------------------------------------------------------------
# Multilayer QAOA (ladder construction on (2d+1) * 4d^2 dimensions)

def _gs_vector(g: Graph) -> np.ndarray:
    """Edge-superposition ground state of the mixer, in K: uniform over the
    states (i, j, a, b) with A_ij = 1."""
    edges = np.repeat(g.adjacency.reshape(-1) != 0, 4)
    return edges / (2 * math.sqrt(g.adjacency.sum()))


def _rung_pairs(lower: np.ndarray, dim_k: int) -> np.ndarray:
    """(n, 2) indices pairing state x of K on each rung in ``lower`` with x on the rung above."""
    lo = (lower[:, None] * dim_k + np.arange(dim_k)).reshape(-1)
    return np.column_stack((lo, lo + dim_k))


def qaoa_multilayer_instance(g: Graph) -> VqaInstance:
    """Bounded-norm multilayer QAOA whose optimum encodes the maximum cut.

    The Hilbert space is a ladder of 2d+1 copies of K = C^d x C^d x C^2 x C^2;
    the cost Hamiltonian moves amplitude up on odd rungs, the mixer on even
    rungs while imprinting cut-dependent phases, and a penalty block on the
    last rung reads out 1 - 2*MaxCut/|E| at the optimal parameters.

    Both are Blocks. The mixer is -3|gs><gs| on rung 0 and, for layer kappa,
    a 2x2 transfer block between state x of rungs 2kappa-1 and 2kappa; the
    case clauses choosing it are resolved first-match, top to bottom. The
    cost is an H0 transfer block between rungs 2p and 2p+1, and on rung 2d
    the penalty H_p = (1/2) sum over a != a~ and all b, b~ per vertex pair.
    """
    d = g.d
    dim_k = 4 * d * d
    dim = (2 * d + 1) * dim_k
    gs = _gs_vector(g)
    # (i, j, a, b) of each state of K, in its index order ((i*d + j)*2 + a)*2 + b
    i, j, a, b = (x.reshape(-1) for x in np.indices((d, d, 2, 2)))
    kappa = np.arange(1, d + 1)[:, None]
    case = np.select(
        [(i == j) | (a == 0), (i == kappa - 1) | ((j == kappa - 1) & (b == 0)), (j == kappa - 1) & (b == 1)],
        [0, 1, 2],
        default=0,
    )
    hb = Blocks(
        dim,
        [
            (np.arange(dim_k)[None], (-3 * np.outer(gs, gs))[None]),
            (_rung_pairs(2 * np.arange(d) + 1, dim_k), np.stack((_H1, _H2, _H3))[case.reshape(-1)]),
        ],
    )
    penalty = np.kron(np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones((2, 2)))
    hc = Blocks(
        dim,
        [
            (_rung_pairs(2 * np.arange(d), dim_k), np.broadcast_to(_H0, (d * dim_k, 2, 2))),
            (2 * d * dim_k + np.arange(dim_k).reshape(-1, 4), np.broadcast_to(penalty, (d * d, 4, 4))),
        ],
    )
    psi0 = np.zeros(dim, dtype=complex)
    psi0[:dim_k] = gs
    return _qaoa_instance(hb, hc, d, psi0, None, "qaoa-multi", g)


def multilayer_optimal_value(g: Graph, maxcut: int) -> float:
    """Closed-form optimum 1 - 2*MaxCut/|E| of the multilayer cost expectation."""
    return 1.0 - 2.0 * maxcut / g.edge_count


def multilayer_encoding(g: Graph, assignment) -> tuple[np.ndarray, np.ndarray]:
    """Parameters (beta, gamma) encoding a bipartition: gamma = pi, and
    beta_i in {pi/2, 3pi/2} with sin(beta_i) matching the vertex sign."""
    v = np.asarray(assignment, dtype=int)
    if v.shape != (g.d,):
        raise ValueError("assignment length does not match d")
    beta = np.where(v == 1, np.pi / 2, 3 * np.pi / 2)
    gamma = np.full(g.d, np.pi)
    return beta, gamma


def multilayer_lower_bound(g: Graph, beta, gamma) -> float:
    """Analytic lower bound g(beta,gamma) * f(beta) / sum(A) on the expectation."""
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    f = 4 * mu(g, reduce_phases(beta - np.pi / 2)) + 2 * g.edge_count
    gf = float(np.prod(np.sin(beta) ** 2 * np.sin(gamma / 2) ** 2))
    return gf * f / g.adjacency.sum()
