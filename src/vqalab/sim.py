"""Hermitian operators and exact state-vector simulation.

Operators come in three forms: Diagonal (a real diagonal), SiteRotation
(sigma_y/2 on chosen qubits, applied as 2x2 rotations) and Blocks (a
block-diagonal matrix in groups of (index, blocks, kinds), each distinct
block diagonalised once, in batches, and cached). A Hermitian matrix is a
one-block Blocks. The structured forms make their dense matrices only in
``to_dense()``, for export and as the test oracle.
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


def assert_hermitian(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("operator must be a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("operator entries must be finite")
    if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
        raise ValueError("operator is not Hermitian")
    return a


def assert_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError("state must be a vector")
    if not np.isfinite(psi).all():
        raise ValueError("state entries must be finite")
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
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
    """The 2^n matrix acting with ``op`` on one qubit (big-endian site order).

    The chain of Kronecker products I (x) ... (x) op (x) ... (x) I, each
    written as the one broadcast multiply ``np.kron`` makes per entry, so the
    bits are ``np.kron``'s, signed zeros included, without its per-call
    axis bookkeeping."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        f = op if k == site else _I2
        m = 2 * len(out)
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(m, m)
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


class Blocks(Operator):
    """A block-diagonal Hermitian matrix on ``dim`` states.

    ``groups`` is a sequence of (index, blocks, kinds) groups: an (n, k)
    integer array of state indices, an (m, k, k) stack of distinct Hermitian
    blocks and an (n,) integer array of kinds, block blocks[kinds[b]] acting
    on the states index[b]. A pair (index, blocks) gives each row its own
    block: m = n and kinds = 0..n-1. The groups' indices partition the
    space. The distinct blocks of each group are checked and diagonalised by
    one batched eigh on first use, and their spectra are gathered by kind
    and cached, so no block is decomposed twice and no matrix larger than a
    block is ever decomposed. ``groups`` holds the (index, blocks[kinds])
    pairs.
    """

    def __init__(self, dim: int, groups):
        self.dim = dim
        self.groups = []
        self._distinct = []
        for group in groups:
            index, blocks, kinds = group if len(group) == 3 else (*group, None)
            index = np.asarray(index, dtype=np.intp)
            blocks = np.asarray(blocks, dtype=complex)
            n, k = index.shape
            m = blocks.shape[0] if kinds is not None and blocks.ndim else n
            if blocks.shape != (m, k, k):
                raise ValueError(f"expected {m} blocks of size {k}x{k}, got shape {blocks.shape}")
            if not np.isfinite(blocks).all():
                raise ValueError("operator entries must be finite")
            if np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max() > HERMITIAN_TOL:
                raise ValueError("operator is not Hermitian")
            if kinds is not None:
                kinds = np.asarray(kinds)
                # a negative kind would index from the end of the stack, not raise
                if kinds.shape != (n,) or kinds.dtype.kind not in "iu" or not np.all((0 <= kinds) & (kinds < m)):
                    raise ValueError(f"kinds must be {n} integers in 0..{m - 1}")
            self.groups.append((index, blocks if kinds is None else blocks[kinds]))
            self._distinct.append((blocks, kinds))
        covered = np.sort(np.concatenate([index.ravel() for index, _ in self.groups]))
        if not np.array_equal(covered, np.arange(dim)):
            raise ValueError(f"block indices must partition the {dim} states")
        self._eigh = None

    def eigh(self) -> list:
        """(eigenvalues, eigenvectors, their conjugate transpose) per group,
        one entry per index row, cached. Each distinct block is decomposed
        once; numpy's batched eigh decomposes every matrix of a stack on its
        own, so a gathered spectrum has the bits of the expanded stack's."""
        if self._eigh is None:
            self._eigh = []
            for blocks, kinds in self._distinct:
                vals, vecs = np.linalg.eigh(blocks)
                if kinds is not None:
                    vals, vecs = vals[kinds], vecs[kinds]
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
        """exp(-i H theta) psi. For a (dim, n) matrix of column states, theta
        may also be a vector of n per-column angles: vals[..., None] * theta
        broadcasts over the column axis."""
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
    """``h`` itself if it is an Operator, else the square Hermitian array as
    a one-block Blocks, diagonalised once, as a whole, on first use."""
    if isinstance(h, Operator):
        return h
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("operator must be a square matrix")
    return Blocks(len(h), [(np.arange(len(h))[None], h[None])])


@dataclass(frozen=True, eq=False)
class VqaInstance:
    """Initial state, ordered generator list, and observable on one space.

    Generators and observable are Operators; plain arrays are wrapped as
    one-block Blocks. ``kind`` is "vqa", "qaoa" (generators alternate cost and
    mixer) or "fermion". The closed form an instance reproduces is not part of
    it: its family's landscape (``families.FAMILIES``) evaluates that.
    """

    initial: np.ndarray
    generators: tuple
    observable: Operator
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
    negligible imaginary part. A matrix is multiplied as it is, unchecked,
    so a non-Hermitian one shows as an imaginary residue."""
    psi = np.asarray(psi, dtype=complex)
    mat = None if isinstance(obs, Operator) else np.asarray(obs, dtype=complex)
    if psi.shape[0] != (obs.dim if mat is None else len(mat)):
        raise ValueError("state and observable dimensions do not match")
    val = np.vdot(psi, obs.apply(psi) if mat is None else mat @ psi)
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
