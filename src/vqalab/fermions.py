"""Free-fermion engine: coefficient-matrix evolution, Gaussian covariances,
and a full Fock-space brute-force oracle.

Quadratic operators sum h_ij c_i^dag c_j are represented by their n x n
Hermitian coefficient matrices; all simulation happens at that level except
for the independent 2^n Fock-space oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import Graph
from .landscape import mu
from .sim import IMAG_TOL, assert_hermitian

FOCK_MAX_MODES = 8
COVARIANCE_TOL = 1e-9


def thermal_covariance(h, beta: float) -> np.ndarray:
    """Covariance Gamma_ij = <c_j^dag c_i> of the thermal state of h.

    Per-eigenvalue occupation is the Fermi-Dirac filling 1/(exp(beta*lam)+1),
    so negative-energy modes are occupied in the zero-temperature limit.
    """
    h = assert_hermitian(h)
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError("inverse temperature must be finite and nonnegative")
    vals, vecs = np.linalg.eigh(h)
    with np.errstate(over="ignore"):
        occ = 1.0 / (np.exp(beta * vals) + 1.0)
    return (vecs * occ) @ vecs.conj().T


def ground_covariance(h, zero_tol: float = 1e-12) -> np.ndarray:
    """Zero-temperature covariance: projector onto the negative-energy
    eigenspace, with weight 1/2 on zero modes (degenerate limit)."""
    h = assert_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    occ = np.where(vals < -zero_tol, 1.0, np.where(vals > zero_tol, 0.0, 0.5))
    return (vecs * occ) @ vecs.conj().T


def evolve_coefficient(o, generators, phi) -> np.ndarray:
    """Heisenberg evolution of the observable's coefficient matrix:
    o(phi) = e^{i h_L phi_L} ... e^{i h_1 phi_1} o e^{-i h_1 phi_1} ... e^{-i h_L phi_L}.
    """
    o = assert_hermitian(o)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (len(generators),):
        raise ValueError("angle count does not match generator count")
    w = np.eye(o.shape[0], dtype=complex)
    for h, angle in zip(generators, phi):
        h = assert_hermitian(h)
        vals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(1j * vals * angle)) @ vecs.conj().T
        w = u @ w
    return w @ o @ w.conj().T


def fermion_expectation(o, gamma) -> float:
    """Expectation sum_ij o_ij Gamma_ji = Tr[o Gamma] of a quadratic observable
    in the Gaussian state with covariance Gamma."""
    o = np.asarray(o, dtype=complex)
    gamma = np.asarray(gamma, dtype=complex)
    if o.shape != gamma.shape:
        raise ValueError("mode counts do not match")
    val = np.trace(o @ gamma)
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"imaginary residue {val.imag:.3e} in fermionic expectation")
    return float(val.real)


@dataclass(frozen=True, eq=False)
class FermionInstance:
    """Initial-state Hamiltonian, generators and observable, all as
    coefficient matrices over the same modes."""

    h0: np.ndarray
    generators: tuple
    o: np.ndarray
    closed_form: Optional[Callable] = None
    family: str = "fermion"
    graph: Optional[Graph] = None

    def __post_init__(self):
        h0 = assert_hermitian(self.h0)
        o = assert_hermitian(self.o)
        gens = tuple(assert_hermitian(h) for h in self.generators)
        dims = {h0.shape[0], o.shape[0], *(h.shape[0] for h in gens)}
        if len(dims) != 1:
            raise ValueError("all mode counts must be equal")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "generators", gens)

    @property
    def n_modes(self) -> int:
        return self.h0.shape[0]

    @property
    def layers(self) -> int:
        return len(self.generators)


def gaussian_expectation(inst: FermionInstance, phi) -> float:
    """Covariance-pipeline expectation: evolve o, contract with the ground
    covariance of h0."""
    o_phi = evolve_coefficient(inst.o, inst.generators, phi)
    return fermion_expectation(o_phi, ground_covariance(inst.h0))


def fermionic_vqa_instance(g: Graph) -> FermionInstance:
    """Free-fermion encoding of the continuous MaxCut landscape on 2d modes.

    Reuses the log-dimension observable as the coefficient matrix, pairs each
    vertex with two opposite-sign modes, and picks h0 = 1 - 2*J/n so the
    uniform mode is the unique negative-energy mode (covariance J/n).
    """
    from .reductions import logdim_generators, logdim_observable

    d = g.d
    n = 2 * d
    h0 = np.eye(n, dtype=complex) - 2 * np.ones((n, n), dtype=complex) / n
    return FermionInstance(
        h0=h0,
        generators=logdim_generators(d),
        o=logdim_observable(g),
        closed_form=lambda phi: mu(g, phi),
        graph=g,
    )


# ---------------------------------------------------------------------------
# Fock-space brute-force oracle

def annihilation_operators(n: int) -> list[np.ndarray]:
    """Dense 2^n annihilation operators with Jordan-Wigner sign bookkeeping."""
    if n > FOCK_MAX_MODES:
        raise ValueError(f"{n} modes exceed the Fock oracle limit {FOCK_MAX_MODES}")
    z = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1> -> |0>
    eye = np.eye(2)
    ops = []
    for j in range(n):
        op = np.array([[1.0 + 0j]])
        for k in range(n):
            if k < j:
                op = np.kron(op, z)
            elif k == j:
                op = np.kron(op, lower)
            else:
                op = np.kron(op, eye)
        ops.append(op)
    return ops


def second_quantized(h, cs: list[np.ndarray]) -> np.ndarray:
    """2^n matrix of the quadratic operator sum h_ij c_i^dag c_j."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    dim = cs[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            if h[i, j] != 0:
                out += h[i, j] * (cs[i].conj().T @ cs[j])
    return out


def fock_ground_state(h_full: np.ndarray, degeneracy_tol: float = 1e-10) -> np.ndarray:
    """Density matrix of the zero-temperature state: uniform mixture over the
    lowest eigenspace (the beta -> infinity limit of the Gibbs state)."""
    vals, vecs = np.linalg.eigh(h_full)
    mask = vals <= vals[0] + degeneracy_tol
    p = vecs[:, mask]
    return (p @ p.conj().T) / int(mask.sum())


def fock_thermal_state(h_full: np.ndarray, beta: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h_full)
    w = np.exp(-beta * (vals - vals[0]))
    return (vecs * (w / w.sum())) @ vecs.conj().T


def fock_covariance(rho: np.ndarray, cs: list[np.ndarray]) -> np.ndarray:
    """Correlation matrix Gamma_ij = Tr[c_j^dag c_i rho] from a Fock density matrix."""
    n = len(cs)
    gamma = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            gamma[i, j] = np.trace(cs[j].conj().T @ cs[i] @ rho)
    return gamma


def fock_bruteforce_expectation(inst: FermionInstance, phi) -> float:
    """Independent oracle: exact 2^n simulation of the circuit on the Fock space.

    The circuit is applied so that Tr[O rho(phi)] matches the Heisenberg
    coefficient evolution order of :func:`evolve_coefficient`.
    """
    n = inst.n_modes
    if n > FOCK_MAX_MODES:
        raise ValueError(f"{n} modes exceed the Fock oracle limit {FOCK_MAX_MODES}")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (inst.layers,):
        raise ValueError("angle count does not match generator count")
    cs = annihilation_operators(n)
    rho = fock_ground_state(second_quantized(inst.h0, cs))
    obs = second_quantized(inst.o, cs)
    # U = U_1(phi_1) ... U_L(phi_L): U_L hits the state first, which is the
    # adjoint of the coefficient-level product used by evolve_coefficient.
    u = np.eye(1 << n, dtype=complex)
    for h, angle in zip(inst.generators, phi):
        h_full = second_quantized(h, cs)
        vals, vecs = np.linalg.eigh(h_full)
        u = u @ ((vecs * np.exp(-1j * vals * angle)) @ vecs.conj().T)
    rho = u @ rho @ u.conj().T
    val = np.trace(obs @ rho)
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"imaginary residue {val.imag:.3e} in Fock expectation")
    return float(val.real)
