"""Free-fermion engine: coefficient-matrix evolution, Gaussian covariances,
and a full Fock-space brute-force oracle.

Quadratic operators sum h_ij c_i^dag c_j are represented by their n x n
Hermitian coefficient matrices, held as Operators; all simulation happens at
that level except for the independent 2^n Fock-space oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph
from .sim import IMAG_TOL, Blocks, Diagonal, Operator, VqaInstance, _as_operator, assert_hermitian

FOCK_MAX_MODES = 8
ZERO_MODE_TOL = 1e-12


def ground_covariance(h) -> np.ndarray:
    """Zero-temperature covariance: projector onto the negative-energy
    eigenspace, with weight 1/2 on zero modes (degenerate limit)."""
    h = assert_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    occ = np.where(vals < -ZERO_MODE_TOL, 1.0, np.where(vals > ZERO_MODE_TOL, 0.0, 0.5))
    return (vecs * occ) @ vecs.conj().T


def evolve_coefficient(o, generators, phi) -> np.ndarray:
    """Heisenberg evolution of the observable's coefficient matrix:
    o(phi) = w o w^dag with w = e^{i h_L phi_L} ... e^{i h_1 phi_1}.

    Generators are Operators (matrices are wrapped as one-block Blocks); w
    is the identity, its columns passed through every ``apply_exp(., -phi)``.
    """
    o = assert_hermitian(o)
    gens = [_as_operator(h) for h in generators]
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (len(gens),):
        raise ValueError("angle count does not match generator count")
    w = np.eye(o.shape[0], dtype=complex)
    for h, angle in zip(gens, phi):
        w = h.apply_exp(w, -angle)
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
class FermionInstance(VqaInstance):
    """A VqaInstance over modes: ``initial`` is the Hermitian coefficient
    matrix h0 whose ground state the circuit starts from, and generators and
    observable act on the coefficient space; ``dim`` is the mode count."""

    family: str = "fermion"
    kind: str = "fermion"

    _check_initial = staticmethod(assert_hermitian)

    @cached_property
    def covariance(self) -> np.ndarray:
        """Ground covariance of h0, computed on first use."""
        return ground_covariance(self.initial)


def gaussian_expectation(inst: FermionInstance, phi) -> float:
    """Covariance-pipeline expectation: evolve o, contract with the ground
    covariance of h0."""
    o_phi = evolve_coefficient(inst.observable.to_dense(), inst.generators, phi)
    return fermion_expectation(o_phi, inst.covariance)


def fermionic_vqa_instance(g: Graph) -> FermionInstance:
    """Free-fermion encoding of the continuous MaxCut landscape on 2d modes.

    Reuses the log-dimension generators and observable as coefficient
    matrices, pairing each vertex with two opposite-sign modes, and picks
    h0 = 1 - 2*J/n so the uniform mode is the unique negative-energy mode
    (covariance J/n).
    """
    from .reductions import _logdim_generators, logdim_observable

    n = 2 * g.d
    h0 = np.eye(n, dtype=complex) - 2 * np.ones((n, n), dtype=complex) / n
    return FermionInstance(
        initial=h0,
        generators=_logdim_generators(g.d),
        observable=logdim_observable(g),
        graph=g,
    )


# ---------------------------------------------------------------------------
# Fock-space brute-force oracle

def second_quantized_all(hs, n: int) -> list[np.ndarray]:
    """2^n matrices of the quadratic operators sum h_ij c_i^dag c_j on n modes,
    one per coefficient matrix h in ``hs``, read off the occupation bits of
    the basis states; mode k is bit n-1-k, so the first mode is the most
    significant.

    c_i^dag c_j takes each state s with mode j occupied, and mode i empty once
    j is emptied, to s ^ bit(j) | bit(i), with the Jordan-Wigner sign
    (-1)^(occupied modes before j in s + occupied modes before i in
    s ^ bit(j)). One ``nonzero`` over the (n^2, 2^n) mask of moved states,
    laid out (i, j)-major, lists every move; each matrix is then one
    ``np.add.at`` scatter of its nonzero h_ij * sign. ``add.at`` adds in index
    order, so every entry is the sum the dense products c_i^dag @ c_j would
    give in (i, j) order, bit for bit.
    """
    if n > FOCK_MAX_MODES:
        raise ValueError(f"{n} modes exceed the Fock oracle limit {FOCK_MAX_MODES}")
    hs = [np.asarray(h, dtype=complex) for h in hs]
    states = np.arange(1 << n)
    bit = 1 << np.arange(n - 1, -1, -1)
    occupied = (states[:, None] & bit) != 0
    before = np.cumsum(occupied, axis=1) - occupied
    pair_i, pair_j = np.divmod(np.arange(n * n), n)
    moved = occupied.T[pair_j] & ((pair_i == pair_j)[:, None] | ~occupied.T[pair_i])
    pair, src = np.nonzero(moved)
    i, j = pair_i[pair], pair_j[pair]
    dst = (src ^ bit[j]) | bit[i]
    sign = 1.0 - 2.0 * ((before[src, j] + before[src, i] - (j < i)) & 1)
    outs = []
    for h in hs:
        coeff = h[i, j]
        keep = coeff != 0
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        np.add.at(out, (dst[keep], src[keep]), coeff[keep] * sign[keep])
        outs.append(out)
    return outs


def _sector_operator(mat: np.ndarray, n: int) -> Operator:
    """The 2^n matrix ``mat`` of a quadratic operator as a sim Operator.

    With no off-diagonal entry it is a ``Diagonal``, its own eigenbasis.
    Otherwise it is a ``Blocks`` on the particle-number sectors, the states
    of each popcount in ascending order, sectors of equal size (popcounts k
    and n - k) batched into one group. Raises ValueError if an entry couples
    two sectors, so that nothing of the matrix is dropped.
    """
    diag = mat.diagonal().real
    herm = mat.copy()
    np.fill_diagonal(herm, 0)
    if not herm.any():
        return Diagonal(diag)
    states = np.arange(1 << n)
    count = ((states[:, None] >> np.arange(n)) & 1).sum(axis=1)
    if herm[count[:, None] != count].any():
        raise ValueError("Fock matrix couples particle-number sectors")
    # each diagonal entry sums up to n coefficient diagonals, whose imaginary
    # residues can add up past Blocks' Hermitian check; eigh reads only the
    # real part of a diagonal
    np.fill_diagonal(herm, diag)
    groups = []
    for size in sorted({math.comb(n, k) for k in range(n + 1)}):
        index = np.stack([states[count == k] for k in range(n + 1) if math.comb(n, k) == size])
        groups.append((index, herm[index[:, :, None], index[:, None, :]]))
    return Blocks(1 << n, groups)


def _ground_columns(h0: Operator) -> np.ndarray:
    """Every eigenvector of a ``_sector_operator`` whose eigenvalue lies
    within 1e-10 of the lowest over all sectors, as 2^n columns, sector by
    sector."""
    if isinstance(h0, Diagonal):
        return np.eye(h0.dim, dtype=complex)[:, h0.vec <= h0.vec.min() + 1e-10]
    spectra = h0.eigh()
    lowest = min(vals.min() for vals, _, _ in spectra)
    columns = []
    for (index, _), (vals, vecs, _) in zip(h0.groups, spectra):
        for b, c in zip(*np.nonzero(vals <= lowest + 1e-10)):
            column = np.zeros(h0.dim, dtype=complex)
            column[index[b]] = vecs[b, :, c]
            columns.append(column)
    return np.column_stack(columns)


def _fock_system(mats, n: int) -> tuple:
    """:func:`fock_system` from the 2^n matrices of h0, the observable and
    the generators, in that order."""
    h0, obs, *gens = mats
    return _ground_columns(_sector_operator(h0, n)), obs, tuple(_sector_operator(h, n) for h in gens)


def fock_system(inst: FermionInstance) -> tuple:
    """The instance on the 2^n Fock space, built once for the oracle:
    (ground, observable, generators).

    Each quadratic operator conserves particle number, so its Fock matrix
    splits into sectors of at most C(n, n/2) states. A generator with a
    diagonal Fock matrix (a sum of number operators) becomes a ``Diagonal``;
    any other becomes a ``Blocks`` over the sectors, diagonalised sector by
    sector on first use. ``ground`` holds, as columns, every sector
    eigenvector of h0 within 1e-10 of its lowest eigenvalue over all
    sectors, whose uniform mixture is the zero-temperature state; a zero
    mode gives two columns, in two sectors. The observable stays a dense
    matrix.

    Independent of the coefficient pipeline: it reads the operators only
    through ``to_dense()``.
    """
    mats = [inst.initial, inst.observable.to_dense(), *(h.to_dense() for h in inst.generators)]
    return _fock_system(second_quantized_all(mats, inst.dim), inst.dim)


def fock_bruteforce_expectation(fock: tuple, phi) -> float:
    """Independent oracle: exact 2^n simulation of the circuit on the Fock
    space of ``fock = fock_system(inst)``.

    Schroedinger picture: every ground column is evolved by
    U = U_1(phi_1) ... U_L(phi_L), U_L first, each U_k = e^{-i H_k phi_k}
    applied by the generator's ``apply_exp``, so that the value matches the
    Heisenberg coefficient evolution of :func:`evolve_coefficient`. The mean
    of <psi|O|psi> over the k columns is Tr[O U rho U^dag] for rho their
    uniform mixture; no 2^n x 2^n unitary is formed.
    """
    ground, obs, gens = fock
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (len(gens),):
        raise ValueError("angle count does not match generator count")
    psi = ground
    for op, angle in zip(reversed(gens), phi[::-1]):
        psi = op.apply_exp(psi, angle)
    val = np.vdot(psi, obs @ psi) / ground.shape[1]
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"imaginary residue {val.imag:.3e} in Fock expectation")
    return float(val.real)
