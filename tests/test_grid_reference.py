"""The screened grid reference of single-layer and qaoa1 against the scalar
loop it replaces, and their unchecked kernels against the checked closed forms.

The oracle is the scalar loop ``min(objective(point(t)) for t in linspace)``
over the checked ``closed_form``; the screened reference must give the same
float, bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_landscape
from vqalab import ergodic_energies, maxcut_bruteforce, mu, random_graph
from vqalab import optimize
from vqalab.families import FAMILIES, _grid_span
from vqalab.optimize import GRID_SCREEN_RTOL, RowWise, reference_minimum
from vqalab.reductions import _qaoa1_values, _single_layer_values

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
    """The family's checked closed form along the grid parameter."""
    inst = FAMILIES[family].build(g, args)
    if family == "single-layer":
        return lambda t: inst.closed_form(t)
    return lambda b: inst.closed_form(b, np.pi / (2 * args.tau))


def batch_kernel(family, g, args):
    energies = ergodic_energies(g.d, args.m).energies
    if family == "single-layer":
        return lambda ts: _single_layer_values(g, energies, ts)
    return lambda bs: _qaoa1_values(g, energies, args.tau, bs, np.pi / (2 * args.tau))


def margin(values):
    low = float(np.min(values))
    return GRID_SCREEN_RTOL * (1 + abs(low))


class TestScreenedReference:
    @ORACLE_SETTINGS
    @given(case=grid_cases(), best=st.floats(-20.0, 20.0))
    def test_equals_scalar_loop(self, case, best):
        family, g, args = case
        fam = FAMILIES[family]
        objective, _, _ = fam.landscape(g, args, fam.build(g, args))
        scalar = scalar_oracle(family, g, args)
        ts = np.linspace(0.0, _grid_span(g, args), args.grid_samples)
        expected = min(min(scalar(t) for t in ts), best)
        assert fam.reference(g, 0, args, objective, best) == expected

    @ORACLE_SETTINGS
    @given(case=grid_cases())
    def test_batch_within_a_thousandth_of_the_margin(self, case):
        family, g, args = case
        scalar = scalar_oracle(family, g, args)
        ts = np.linspace(0.0, _grid_span(g, args), args.grid_samples)
        values = batch_kernel(family, g, args)(ts)
        worst = max(abs(v - scalar(t)) for t, v in zip(ts, values))
        assert worst < margin(values) / 1000

    @ORACLE_SETTINGS
    @given(case=grid_cases(), x=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e6, 1e6)))
    def test_unchecked_landscape_equals_closed_form(self, case, x):
        family, g, args = case
        fam = FAMILIES[family]
        inst = fam.build(g, args)
        objective, _, n_params = fam.landscape(g, args, inst)
        x = np.array(x[:n_params])
        value = objective(x[None])[0]
        energies = ergodic_energies(g.d, args.m).energies
        if family == "single-layer":
            assert value == inst.closed_form(x[0]) == mu(g, energies * x[0])
        else:
            beta, gamma, tau = x[0], x[1], args.tau
            # the closed form as it was written before the kernels
            written_out = (
                math.sin(tau * gamma) ** 2 * mu(g, energies * beta)
                + 2 * tau * math.cos(tau * gamma) * math.sin(tau * gamma)
                * (-math.sin(beta) / g.d * float(np.cos(energies * beta).sum()))
            )
            assert value == inst.closed_form(beta, gamma) == written_out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reference_from_row_objective_matches_the_scalar_path(family):
    # the single-layer and qaoa1 references confirm their near-minimum grid
    # points through the row objective; the rest ignore the objective
    g = random_graph(4, 0.7, 3)
    args = SimpleNamespace(k=2, m=8, tau=0.5, grid_samples=500)
    fam = FAMILIES[family]
    inst = fam.build(g, args)
    objective, _, _ = fam.landscape(g, args, inst)
    scalar, _, _ = scalar_landscape(family, g, args, inst)
    maxcut = maxcut_bruteforce(g)[0]
    for best in (-100.0, 100.0):
        expected = fam.reference(g, maxcut, args, RowWise(scalar), best)
        assert fam.reference(g, maxcut, args, objective, best) == expected
        if family in GRID_FAMILIES and best > 0:
            ts = np.linspace(0.0, _grid_span(g, args), args.grid_samples)
            gamma = [] if family == "single-layer" else [np.pi / (2 * args.tau)]
            assert expected == min(scalar(np.array([t, *gamma])) for t in ts)


def wavy(t):
    return math.cos(3.0 * t) + 0.1 * t


def wavy_batch(ts):
    return np.cos(3.0 * ts) + 0.1 * ts


class TestScreening:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.sampled_from([1, 2, 11, 2000]))
    def test_batch_perturbed_below_half_the_margin(self, seed, samples):
        # any two points then keep their batched order within the margin
        ts = np.linspace(-4.0, 9.0, samples)
        noise = np.random.default_rng(seed).uniform(-0.499, 0.499, samples) * margin(wavy_batch(ts))
        ref = reference_minimum(wavy, lambda x: wavy_batch(x) + noise, (-4.0, 9.0), samples)
        assert ref == min(wavy(t) for t in ts)

    def test_batch_overstating_the_minimum_by_less_than_the_margin(self):
        ts = np.linspace(-4.0, 9.0, 2000)
        lifted = wavy_batch(ts)
        i = int(np.argmin(lifted))
        second = np.partition(lifted, 1)[1]
        lifted[i] = second + 0.99 * margin(lifted)  # the true minimum, ranked above the runner-up
        ref = reference_minimum(wavy, lambda x: lifted, (-4.0, 9.0), 2000)
        assert ref == min(wavy(t) for t in ts) == wavy(ts[i])

    @pytest.mark.parametrize(
        "scalar_low, batch_low",
        [(-1.0 - 1e-15, -1.0), (-1.0 - 1e-15, -1.0 - 2e-16), (-1.0, -1.0)],
        ids=["batch-tie", "batch-reversed", "both-tie"],
    )
    def test_two_tied_minima(self, scalar_low, batch_low):
        # t = 0.5 and t = 1.5 read -1.0 in the scalar objective and in the
        # batch, except that the scalar puts scalar_low at t = 1.5 and the
        # batch puts batch_low at t = 0.5
        ts = np.linspace(0.0, 2.0, 5)
        scalar = dict(zip(ts, [1.0, -1.0, 0.0, scalar_low, 1.0]))
        batched = np.array([1.0, batch_low, 0.0, -1.0, 1.0])
        ref = reference_minimum(scalar.__getitem__, lambda x: batched, (0.0, 2.0), 5)
        assert ref == min(scalar.values()) == scalar_low

    def test_blocks_bound_the_batch_and_keep_the_result(self, monkeypatch):
        sizes = []

        def batch(x):
            sizes.append(x.size)
            return wavy_batch(x)

        monkeypatch.setattr(optimize, "GRID_BLOCK", 7)
        ref = reference_minimum(wavy, batch, (-4.0, 9.0), 2000)
        assert max(sizes) == 7 and sum(sizes) == 2000
        assert ref == min(wavy(t) for t in np.linspace(-4.0, 9.0, 2000))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_value_raises(self, bad):
        def batch(x):
            out = wavy_batch(x)
            out[-1] = bad
            return out

        with pytest.raises(ValueError, match="non-finite"):
            reference_minimum(wavy, batch, (-4.0, 9.0), 11)
