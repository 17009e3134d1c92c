import math

import numpy as np
import pytest

from vqalab import Graph, ergodic_energies, parse_graph, qaoa_apply
from vqalab.families import FAMILIES
from vqalab.landscape import _mu_rows, _mu_value_and_gradient_rows, _sin_exact
from vqalab.optimize import Landscape, descend, optimize

# qaoa-multi's stacked kernels against its one-row kernel: trajectories and
# params of a descent, and the value-and-gradient kernel's values
QAOA_MULTI_TOL = 1e-9


@pytest.fixture
def single_edge():
    return parse_graph("2\n1 2")


@pytest.fixture
def k3():
    return parse_graph("3\n1 2\n2 3\n1 3")


@pytest.fixture
def c5():
    return parse_graph("5\n1 2\n2 3\n3 4\n4 5\n1 5")


# d=6 graph with a strictly suboptimal single-flip local optimum
# (double star: center path 0-3, leaves on both centers; maxcut 5, but the
# all-equal-leaves split cutting 4 edges is a strict local minimum).
@pytest.fixture
def trap_graph():
    return parse_graph("6\n1 2\n1 3\n1 4\n4 5\n4 6")


def central_difference_gradient(f, x, h=1e-5):
    """Independent finite-difference oracle for first derivatives."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def central_difference_hessian(f, x, h=1e-4):
    """Independent finite-difference oracle for second derivatives."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h * h)
    return hess


# The scalar closed forms, the oracles of the row kernels in src: each is
# written out on one point, mu and its gradient with the integer adjacency,
# where the kernels read Graph's float copy, and must match bit for bit.
def int_adjacency_mu(g, phi):
    c = np.cos(phi)
    a = g.adjacency
    return float((c @ a @ c - a.sum()) / 4)


def int_adjacency_gradient(g, phi):
    return -0.5 * _sin_exact(phi) * (g.adjacency @ np.cos(phi))


def single_layer_value(g, energies, t):
    """mu at the phases energies * t."""
    return int_adjacency_mu(g, energies * t)


def qaoa1_value(g, energies, tau, beta, gamma):
    """The qaoa1 closed form sin^2(tau gamma) f(beta) + 2 tau cos(tau gamma)
    sin(tau gamma) g(beta), with f = mu at energies * beta and g = -sin(beta)
    / d times the sum of those phases' cosines; math.sin and math.cos on
    scalars, and ** 2 as C pow."""
    f = int_adjacency_mu(g, energies * beta)
    gfun = -math.sin(beta) / g.d * float(np.cos(energies * beta).sum())
    return math.sin(tau * gamma) ** 2 * f + 2 * tau * math.cos(tau * gamma) * math.sin(tau * gamma) * gfun


def scalar_landscape(family, g, args, inst):
    """The oracle of the row kernels: the family's (objective, gradient or
    None, n_params) on single points, as ``Family.landscape`` gave them
    before it returned row kernels; for boosted, the chain-rule landscape's
    (chain_rule_landscape)."""
    if family == "boosted":
        k = args.k
        return (
            (lambda x: -((-int_adjacency_mu(g, x)) ** k)),
            (lambda x: k * (-int_adjacency_mu(g, x)) ** (k - 1) * int_adjacency_gradient(g, x)),
            g.d,
        )
    if family == "single-layer":
        energies = ergodic_energies(g.d, args.m).energies
        return (lambda x: single_layer_value(g, energies, x[0])), None, 1
    if family == "qaoa1":
        energies = ergodic_energies(g.d, args.m).energies
        return (lambda x: qaoa1_value(g, energies, args.tau, x[0], x[1])), None, 2
    if family == "qaoa-multi":
        L = len(inst.generators) // 2
        return (lambda x: qaoa_apply(inst, x[:L], x[L:])[1]), None, 2 * L
    return (lambda x: int_adjacency_mu(g, x)), (lambda x: int_adjacency_gradient(g, x)), g.d


def reference_mu_gradient_rows(g, X):
    """The reference of the mu gradient kernels: int_adjacency_gradient of
    each row of X, bit for bit, as the mu families' gradient kernel computed
    it before it could share np.cos(X) with the value."""
    return -0.5 * _sin_exact(X) * (g.float_adjacency @ np.cos(X)[:, :, None])[:, :, 0]


def reference_row_kernels(family, g, args):
    """(objective, gradient) of a mu family or boosted's chain-rule landscape
    as separate row kernels that each evaluate mu's pieces themselves, as
    ``Family.landscape`` returned them before it gave a value-and-gradient
    kernel too."""
    if family == "boosted":
        k = args.k
        return (
            (lambda X: -np.float_power(-_mu_rows(g, X), k)),
            (lambda X: (k * np.float_power(-_mu_rows(g, X), k - 1))[:, None] * reference_mu_gradient_rows(g, X)),
        )
    return (lambda X: _mu_rows(g, X)), (lambda X: reference_mu_gradient_rows(g, X))


def chain_rule_landscape(g, k):
    """The boosted landscape -|mu|^k itself, with the chain-rule gradient
    k |mu|^(k-1) grad mu, as the boosted family descended on it before it
    descended on mu: one mu evaluation for both, raised to powers with
    np.float_power. Its gradient scale of about k MaxCut^(k-1) makes
    descend's line search backtrack, so the descent tests keep it as an
    input."""

    def value_and_gradient(X):
        values, gradients = _mu_value_and_gradient_rows(g, X)
        cut = -values
        return -np.float_power(cut, k), (k * np.float_power(cut, k - 1))[:, None] * gradients

    return kernels(lambda X: -np.float_power(-_mu_rows(g, X), k), g.d, value_and_gradient=value_and_gradient)


def descent_landscape(family, g, args, inst=None):
    """The Landscape a descent test runs on: the family's, but for "boosted"
    the chain-rule landscape, whose scalar kernels are scalar_landscape's and
    whose two-call kernels are reference_row_kernels'."""
    if family == "boosted":
        return chain_rule_landscape(g, args.k)
    return FAMILIES[family].landscape(g, args, inst)


def row_wise(f):
    """The row kernel of a scalar function: f of each row of a stack, in row
    order."""
    return lambda X: np.array([f(x) for x in X], dtype=float)


def kernels(objective, n_params, gradient=None, value_and_gradient=None):
    """The Landscape of row kernels where a test gives one gradient kernel or
    none: the other is made from the one given (``value_and_gradient(X)[1]``,
    or ``(objective(X), gradient(X))``), and without either, central
    differences stand in."""
    if gradient is None and value_and_gradient is None:
        return Landscape.central_differences(objective, n_params)
    if gradient is None:
        gradient = lambda X: value_and_gradient(X)[1]
    elif value_and_gradient is None:
        value_and_gradient = lambda X: (objective(X), gradient(X))
    return Landscape(objective, gradient, value_and_gradient, n_params)


def gradient_descent(objective, init, cfg, gradient=None):
    """``optimize.descend`` from the one start ``init``, on a scalar objective
    and gradient; without a gradient, central differences stand in."""
    start = np.asarray(init, dtype=float)[None]
    land = kernels(row_wise(objective), start.shape[1], None if gradient is None else row_wise(gradient))
    return descend(land, start, cfg)[0]


def multistart(objective, n_params, cfg, gradient=None):
    """``optimize.optimize`` on a scalar objective and gradient."""
    return optimize(kernels(row_wise(objective), n_params, None if gradient is None else row_wise(gradient)), cfg)
