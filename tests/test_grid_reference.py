"""The grid reference of single-layer and qaoa1 against the scalar loop over
the whole grid, and their unchecked kernels against the written-out closed
forms.

The oracle is the scalar loop ``min(objective(point(t)) for t in linspace)``
over conftest's ``single_layer_value`` and ``qaoa1_value``, each closed form
written out on one point; the reference, which evaluates the same grid
through the family's row objective, must give the same float, bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qaoa1_value, row_wise, scalar_landscape, single_layer_value
from vqalab import ergodic_energies, maxcut_bruteforce, mu, random_graph
from vqalab import optimize
from vqalab.families import FAMILIES, _grid_span
from vqalab.optimize import reference_minimum

GRID_FAMILIES = ("single-layer", "qaoa1")
ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grid_cases(draw):
    """A grid family on a random graph with d in 2..6, m, tau and a grid size."""
    family = draw(st.sampled_from(GRID_FAMILIES))
    d = draw(st.integers(2, 6))
    g = random_graph(d, draw(st.floats(0.2, 1.0)), draw(st.integers(0, 2**16)))
    args = SimpleNamespace(
        m=draw(st.sampled_from([7, 8, 16, 64])),
        tau=draw(st.floats(1e-3, 10.0)),
        grid_samples=draw(st.sampled_from([1, 2, 11, 2000])),
    )
    return family, g, args


def scalar_oracle(family, g, args):
    """The family's written-out closed form along the grid parameter."""
    energies = ergodic_energies(g.d, args.m).energies
    if family == "single-layer":
        return lambda t: single_layer_value(g, energies, t)
    return lambda b: qaoa1_value(g, energies, args.tau, b, np.pi / (2 * args.tau))


class TestScreenedReference:
    """The reference of each grid family, on random cases."""

    @ORACLE_SETTINGS
    @given(case=grid_cases(), best=st.floats(-20.0, 20.0))
    def test_equals_scalar_loop(self, case, best):
        family, g, args = case
        fam = FAMILIES[family]
        objective = fam.landscape(g, args, fam.build(g, args)).objective
        scalar = scalar_oracle(family, g, args)
        ts = np.linspace(0.0, _grid_span(g, args), args.grid_samples)
        expected = min(min(scalar(t) for t in ts), best)
        assert fam.reference(g, 0, args, objective, best) == expected

    @ORACLE_SETTINGS
    @given(case=grid_cases(), x=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e6, 1e6)))
    def test_unchecked_landscape_equals_closed_form(self, case, x):
        family, g, args = case
        fam = FAMILIES[family]
        land = fam.landscape(g, args, fam.build(g, args))
        x = np.array(x[: land.n_params])
        value = land.objective(x[None])[0]
        energies = ergodic_energies(g.d, args.m).energies
        if family == "single-layer":
            assert value == single_layer_value(g, energies, x[0]) == mu(g, energies * x[0])
        else:
            beta, gamma, tau = x[0], x[1], args.tau
            # the closed form as it was written before the kernels, with the
            # public mu
            written_out = (
                math.sin(tau * gamma) ** 2 * mu(g, energies * beta)
                + 2 * tau * math.cos(tau * gamma) * math.sin(tau * gamma)
                * (-math.sin(beta) / g.d * float(np.cos(energies * beta).sum()))
            )
            assert value == qaoa1_value(g, energies, tau, beta, gamma) == written_out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reference_from_row_objective_matches_the_scalar_path(family):
    # the single-layer and qaoa1 references evaluate their grid through the
    # row objective; the rest ignore the objective
    g = random_graph(4, 0.7, 3)
    args = SimpleNamespace(k=2, m=8, tau=0.5, grid_samples=500)
    fam = FAMILIES[family]
    inst = fam.build(g, args)
    objective = fam.landscape(g, args, inst).objective
    scalar, _, _ = scalar_landscape(family, g, args, inst)
    maxcut = maxcut_bruteforce(g)[0]
    for best in (-100.0, 100.0):
        expected = fam.reference(g, maxcut, args, row_wise(scalar), best)
        assert fam.reference(g, maxcut, args, objective, best) == expected
        if family in GRID_FAMILIES and best > 0:
            ts = np.linspace(0.0, _grid_span(g, args), args.grid_samples)
            gamma = [] if family == "single-layer" else [np.pi / (2 * args.tau)]
            assert expected == min(scalar(np.array([t, *gamma])) for t in ts)


def wavy(X):
    return np.cos(3.0 * X[:, 0]) + 0.1 * X[:, 0]


def column(ts):
    return ts[:, None]


def wavy_loop(ts):
    """The scalar loop's minimum of wavy over the grid ts."""
    return min(float(wavy(np.array([[t]]))[0]) for t in ts)


class TestScreening:
    """reference_minimum on a row objective of one's own."""

    def test_blocks_bound_the_batch_and_keep_the_result(self, monkeypatch):
        sizes = []

        def objective(X):
            sizes.append(len(X))
            return wavy(X)

        monkeypatch.setattr(optimize, "GRID_BLOCK", 7)
        ref = reference_minimum(objective, column, (-4.0, 9.0), 2000)
        assert max(sizes) == 7 and sum(sizes) == 2000
        assert ref == wavy_loop(np.linspace(-4.0, 9.0, 2000))

    @pytest.mark.parametrize("block", [2, 4096])
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_tied_minima_keep_the_first(self, monkeypatch, block, first):
        # 0.0 and -0.0 tie; the scalar loop keeps the first, within a block
        # and across blocks alike
        values = np.array([1.0, first, -first, 1.0])
        monkeypatch.setattr(optimize, "GRID_BLOCK", block)
        ref = reference_minimum(lambda X: values[X[:, 0].astype(int)], column, (0.0, 3.0), 4)
        assert math.copysign(1.0, ref) == math.copysign(1.0, first)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_value_raises(self, bad):
        def objective(X):
            out = wavy(X)
            out[-1] = bad
            return out

        with pytest.raises(ValueError, match="non-finite"):
            reference_minimum(objective, column, (-4.0, 9.0), 11)
