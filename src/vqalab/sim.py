"""Hermitian operators and exact state-vector simulation.

Operators come in four forms: Diagonal (a real diagonal), SiteRotation
(sigma_y/2 on chosen qubits, applied as 2x2 rotations), Blocks (a
block-diagonal matrix whose blocks are diagonalised once, in batches) and
Dense (a matrix diagonalised once and cached). Dense matrices of the
structured forms are made only by ``to_dense()``, for export and as the test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import Graph

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-10
IMAG_TOL = 1e-10


def assert_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("operator entries must be finite")
    if np.abs(a - a.conj().T).max() > tol:
        raise ValueError("operator is not Hermitian")
    return a


def assert_state(psi, tol: float = NORM_TOL) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError("state must be a vector")
    if not np.isfinite(psi).all():
        raise ValueError("state entries must be finite")
    if abs(np.linalg.norm(psi) - 1.0) > tol:
        raise ValueError("state is not normalized")
    return psi


DENSE_MAX_QUBITS = 12
STATE_MAX_QUBITS = 20  # a 2^20 complex state vector takes 16 MiB

_SY = np.array([[0, -1j], [1j, 0]])
_I2 = np.eye(2)


def _check_dense_size(dim: int) -> None:
    if dim > 1 << DENSE_MAX_QUBITS:
        raise ValueError(
            f"dense form of a {dim}-dimensional operator is too large "
            f"(limit 2^{DENSE_MAX_QUBITS})"
        )


def check_state_size(n_qubits: int) -> None:
    if n_qubits > STATE_MAX_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits is too large: the state-vector limit is {STATE_MAX_QUBITS} qubits"
        )


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Dense 2^n matrix acting with ``op`` on one qubit (big-endian site order)."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else _I2)
    return out


class Operator:
    """Hermitian operator H on a state space of dimension ``dim``.

    Every form provides ``apply_exp(psi, theta)`` = exp(-i H theta) psi,
    ``apply(psi)`` = H psi, ``extremes()`` = (lambda_min, lambda_max, width)
    and ``to_dense()``, the matrix, made only for export and for tests.
    ``apply_exp`` also takes a matrix whose columns are states.
    """

    dim: int


class Diagonal(Operator):
    """diag(vec) for a real vector.

    ``dense``, if given, builds the exact matrix the reduction defines (the
    signed zeros of a Kronecker product included) in place of diag(vec).
    """

    def __init__(self, vec, dense: Optional[Callable[[], np.ndarray]] = None):
        self.vec = np.asarray(vec, dtype=float)
        self.dim = self.vec.shape[0]
        self._dense = dense

    def apply_exp(self, psi, theta):
        # .T puts the state axis last, for a state and a matrix of them alike
        return (np.exp(-1j * self.vec * theta) * psi.T).T

    def apply(self, psi):
        return self.vec * psi

    def extremes(self):
        lo, hi = float(self.vec.min()), float(self.vec.max())
        return lo, hi, hi - lo

    def to_dense(self):
        _check_dense_size(self.dim)
        return self._dense() if self._dense is not None else np.diag(self.vec).astype(complex)


class SiteRotation(Operator):
    """sum_s sigma_y^(s)/2 over qubits of an n-qubit register (qubit 0 most significant).

    ``sites`` is one qubit index, or a tuple of them for a sum over copies;
    the dense form of a tuple is that Python ``sum``, which starts from 0.
    exp(-i theta sigma_y/2) is the real rotation [[c, -s], [s, c]] with
    c = cos(theta/2), s = sin(theta/2), applied per site on a reshaped state.
    """

    def __init__(self, sites, n: int):
        self.sites = sites
        self.qubits = (sites,) if isinstance(sites, int) else tuple(sites)
        self.dim = 1 << n
        self.n = n

    def apply_exp(self, psi, theta):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        shape = psi.shape
        for q in self.qubits:
            x = psi.reshape(1 << q, 2, -1)
            out = np.empty_like(x)
            out[:, 0] = c * x[:, 0] - s * x[:, 1]
            out[:, 1] = s * x[:, 0] + c * x[:, 1]
            psi = out.reshape(shape)
        return psi

    def apply(self, psi):
        out = np.zeros_like(psi)
        for q in self.qubits:
            x = psi.reshape(1 << q, 2, -1)
            o = out.reshape(1 << q, 2, -1)
            o[:, 0] -= 0.5j * x[:, 1]
            o[:, 1] += 0.5j * x[:, 0]
        return out

    def extremes(self):
        half = len(self.qubits) / 2
        return -half, half, 2 * half

    def to_dense(self):
        _check_dense_size(self.dim)
        if isinstance(self.sites, int):
            return _site_operator(_SY / 2, self.sites, self.n)
        return sum(_site_operator(_SY / 2, q, self.n) for q in self.qubits)


class Dense(Operator):
    """A Hermitian matrix whose eigendecomposition is computed once, on first use."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=complex)
        self.dim = self.mat.shape[0]
        self._eigh = None

    def eigh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors, their conjugate transpose), cached."""
        if self._eigh is None:
            vals, vecs = np.linalg.eigh(self.mat)
            self._eigh = (vals, vecs, vecs.conj().T)
        return self._eigh

    def apply_exp(self, psi, theta):
        vals, vecs, vecs_h = self.eigh()
        return vecs @ (np.exp(-1j * vals * theta) * (vecs_h @ psi).T).T

    def apply(self, psi):
        return self.mat @ psi

    def extremes(self):
        vals = self.eigh()[0]
        lo, hi = float(vals[0]), float(vals[-1])
        return lo, hi, hi - lo

    def to_dense(self):
        return self.mat


class Blocks(Operator):
    """A block-diagonal Hermitian matrix on ``dim`` states.

    ``groups`` is a sequence of (index, blocks) pairs: an (n, k) integer
    array of state indices and an (n, k, k) stack of Hermitian blocks, block
    b acting on the states index[b]. The groups' indices partition the
    space. Each group is diagonalised by one batched eigh on first use and
    cached, so no matrix larger than a block is ever decomposed.
    """

    def __init__(self, dim: int, groups):
        self.dim = dim
        self.groups = []
        for index, blocks in groups:
            index = np.asarray(index, dtype=np.intp)
            blocks = np.asarray(blocks, dtype=complex)
            n, k = index.shape
            if blocks.shape != (n, k, k):
                raise ValueError(f"expected {n} blocks of size {k}x{k}, got shape {blocks.shape}")
            if not np.isfinite(blocks).all():
                raise ValueError("operator entries must be finite")
            if np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max() > HERMITIAN_TOL:
                raise ValueError("operator is not Hermitian")
            self.groups.append((index, blocks))
        covered = np.sort(np.concatenate([index.ravel() for index, _ in self.groups]))
        if not np.array_equal(covered, np.arange(dim)):
            raise ValueError(f"block indices must partition the {dim} states")
        self._eigh = None

    def eigh(self) -> list:
        """(eigenvalues, eigenvectors, their conjugate transpose) per group, cached."""
        if self._eigh is None:
            self._eigh = []
            for _, blocks in self.groups:
                vals, vecs = np.linalg.eigh(blocks)
                self._eigh.append((vals, vecs, vecs.conj().transpose(0, 2, 1)))
        return self._eigh

    def _map(self, psi, per_group):
        # psi[index] is (n, k, m) for m column states; per_group maps it to
        # the same shape for each group
        cols = psi.reshape(self.dim, -1)
        out = np.empty(cols.shape, dtype=complex)
        for g, (index, blocks) in enumerate(self.groups):
            out[index] = per_group(g, blocks, cols[index])
        return out.reshape(psi.shape)

    def apply_exp(self, psi, theta):
        spectra = self.eigh()

        def per_group(g, blocks, x):
            vals, vecs, vecs_h = spectra[g]
            return vecs @ (np.exp(-1j * vals[..., None] * theta) * (vecs_h @ x))

        return self._map(psi, per_group)

    def apply(self, psi):
        return self._map(psi, lambda g, blocks, x: blocks @ x)

    def extremes(self):
        spectra = self.eigh()
        lo = min(float(vals.min()) for vals, _, _ in spectra)
        hi = max(float(vals.max()) for vals, _, _ in spectra)
        return lo, hi, hi - lo

    def to_dense(self):
        _check_dense_size(self.dim)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for index, blocks in self.groups:
            out[index[:, :, None], index[:, None, :]] = blocks
        return out


def _as_operator(h) -> Operator:
    """``h`` itself if it is an Operator, else a Dense wrapper of the Hermitian array."""
    return h if isinstance(h, Operator) else Dense(assert_hermitian(h))


@dataclass(frozen=True, eq=False)
class VqaInstance:
    """Initial state, ordered generator list, and observable on one space.

    Generators and observable are Operators; plain arrays are wrapped as
    Dense. ``closed_form`` maps a phase vector to the analytically known
    expectation value, where the construction provides one. ``kind`` is
    "vqa", "qaoa" (generators alternate cost and mixer) or "fermion".
    """

    initial: np.ndarray
    generators: tuple
    observable: Operator
    closed_form: Optional[Callable] = None
    family: str = ""
    graph: Optional[Graph] = None
    kind: str = "vqa"

    # the check ``initial`` passes, and what it returns
    _check_initial = staticmethod(assert_state)

    def __post_init__(self):
        psi = self._check_initial(self.initial)
        obs = _as_operator(self.observable)
        gens = tuple(_as_operator(h) for h in self.generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        dims = {psi.shape[0], obs.dim, *(h.dim for h in gens)}
        if len(dims) != 1:
            raise ValueError("all dimensions must be equal")
        object.__setattr__(self, "initial", psi)
        object.__setattr__(self, "observable", obs)
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.initial.shape[0]

    @property
    def layers(self) -> int:
        return len(self.generators)


def apply_circuit(inst: VqaInstance, phi) -> np.ndarray:
    """State U_L(phi_L) ... U_1(phi_1) |initial> with U_i = exp(-i H_i phi_i)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (inst.layers,):
        raise ValueError(f"expected {inst.layers} angles, got {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("circuit angles must be finite")
    psi = inst.initial
    for h, angle in zip(inst.generators, phi):
        psi = h.apply_exp(psi, angle)
    norm_error = abs(np.linalg.norm(psi) - 1.0)
    if not norm_error <= NORM_TOL:
        raise ValueError(f"circuit changed the state norm by {norm_error:.3e}")
    return psi


def expectation(psi: np.ndarray, obs) -> float:
    """Real expectation <psi|obs|psi> of an Operator or a matrix; asserts a
    negligible imaginary part."""
    psi = np.asarray(psi, dtype=complex)
    op = obs if isinstance(obs, Operator) else Dense(obs)
    if psi.shape[0] != op.dim:
        raise ValueError("state and observable dimensions do not match")
    val = np.vdot(psi, op.apply(psi))
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"imaginary residue {val.imag:.3e} signals a non-Hermitian observable")
    return float(val.real)


def simulate_expectation(inst: VqaInstance, phi) -> float:
    return expectation(apply_circuit(inst, phi), inst.observable)


def spectral_extremes(obs) -> tuple[float, float, float]:
    """(lambda_min, lambda_max, spectral width) of a Hermitian observable.

    An Operator reports its own extremes; a matrix goes through eigvalsh.
    """
    if isinstance(obs, Operator):
        return obs.extremes()
    vals = np.linalg.eigvalsh(assert_hermitian(obs))
    lo, hi = float(vals[0]), float(vals[-1])
    return lo, hi, hi - lo
