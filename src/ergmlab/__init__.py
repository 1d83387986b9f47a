"""Exponential random graph models: variational free energy, phase
diagnostics, step-graphon algebra, and exactly solvable MCMC estimator
analysis."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    ErgmLabError,
    EstimatorCollapseError,
    FormatError,
    InstanceTooLargeError,
    OverflowGuardError,
)
from .graphs import (
    Graph,
    Motif,
    chromatic_number,
    count_homomorphisms,
    hom_density_graph,
)
from .graphons import (
    CutDistanceResult,
    CutNormResult,
    StepGraphon,
    cut_distance_upper,
    cut_norm_diff,
    delta_h,
    edge_entropy,
    hom_density_graphon,
    rate_entropy,
    rate_relative,
    relative_edge_entropy,
    to_step_graphon,
)
from .mcmc import (
    ChainConfig,
    EstimatorResult,
    SpectralComponent,
    chi_square_distance,
    enumerate_psi_n,
    er_eigen,
    er_log_partition,
    er_mcmle_variance_constants,
    estimate_acceptance_ratio,
    estimate_importance,
    estimate_mcmle,
    fourier_coeff_exp_edges,
    mixing_cutoff,
    run_chain,
    variance_mcmc_mean,
)
from .variational import (
    DegeneracyReport,
    MaximizerReport,
    ModelSpec,
    PhaseScanResult,
    applicability_check,
    degeneracy_constants,
    euler_lagrange_solve,
    extremal_limit,
    graphon_search,
    maximize_scalar,
    phase_scan,
    psi_limit_scalar,
    scalar_objective,
    symmetry_breaking_check,
    top_statistic,
    transitivity_limit,
)
