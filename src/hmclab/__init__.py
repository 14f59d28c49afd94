"""Metropolized HMC with leapfrog integration: sampler, theory-driven
tuning, proposal-overlap analysis and moment-bound verification."""

from .errors import (
    BudgetExhausted,
    ConvergenceError,
    DivergedTrajectory,
    HmclabError,
    SingularJacobian,
    UnsupportedCapability,
)
from .kernel import HmcConfig, hmc_transition, run_chain
from .leapfrog import (
    PhaseState,
    Trajectory,
    continuous_reference,
    forward_map,
    leapfrog_step,
    momentum_jacobian,
)
from .targets import (
    GaussianTarget,
    LogisticPosteriorTarget,
    RidgeSeparableTarget,
    TargetDensity,
    TwoLayerNetTarget,
)
from .tensors import (
    TensorNormReport,
    estimate_gamma,
    norm_12_3,
    norm_frobenius_123,
    norm_injective_lower,
)
from .tuning import TheoryParams, TunedParams, best_hmc_params, check_theorem_constraints, ell_for, mala_step_size
from .overlap import inverse_map, kl_between_proposals, proposal_log_density

__version__ = "0.1.0"
