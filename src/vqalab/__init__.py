"""Verification lab for MaxCut-encoded variational-circuit landscapes."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    GraphParseError,
    cut_value,
    maxcut_bruteforce,
    maxcut_greedy,
    parse_graph,
    random_graph,
)
from .landscape import (
    is_discrete_local_min,
    mu,
    mu_gradient,
    mu_hessian,
    reduce_phases,
    round_to_discrete,
)
from .sim import (
    Dense,
    Diagonal,
    SiteRotation,
    VqaInstance,
    apply_circuit,
    expectation,
    simulate_expectation,
    spectral_extremes,
)
from .reductions import (
    ErgodicSpectrum,
    boosted_expectation,
    boosted_vqa_instance,
    ergodic_energies,
    ergodic_time,
    ising_observable,
    logdim_vqa_instance,
    oracular_vqa_instance,
    qaoa_apply,
    qaoa_multilayer_instance,
    qaoa_single_layer_instance,
    single_layer_instance,
)
from .fermions import (
    FermionInstance,
    evolve_coefficient,
    fermion_expectation,
    fermionic_vqa_instance,
    fock_bruteforce_expectation,
    fock_system,
    gaussian_expectation,
    ground_covariance,
)
from .optimize import (
    OptimizerConfig,
    error_metrics,
    gradient_descent,
    multistart,
    reference_minimum,
)
