"""Bayesian model comparison for count and normal-mean testbeds.

Closed-form Bayes factors with an independent quadrature oracle,
mixture-weight posterior inference (Gibbs, marginalized MH, grid),
predictive calibration of decision statistics, and a seed-pinned
replication harness with CSV/SVG output.
"""

from .calibration import (
    BootstrapCutoff,
    CalibrationReport,
    bootstrap_alpha_cutoff,
    posterior_predictive_pvalue,
    predictive_bf_tails,
)
from .distributions import CountDataset, log_pmf_geometric_mean, log_pmf_poisson
from .errors import AccuracyError, DegeneracyError, ImproperEvidenceError
from .evidence import (
    LogBayesFactor,
    LogEvidence,
    NormalSummary,
    QuadratureConfig,
    log_bf01_lindley,
    log_bf10_normal,
    log_bf10_normal_quadrature,
    log_bf12_printed,
    log_bf12_shared_improper,
    log_marginal_geometric_improper,
    log_marginal_poisson_improper,
    log_marginal_quadrature,
    posterior_prob_from_log_bf,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    desk_scale_config,
    run_experiment,
    run_fig1,
    run_fig2,
    run_fig3,
    run_lindley,
)
from .mixture import (
    DiscretizedPosterior,
    McmcConfig,
    MixtureChain,
    MixtureSpec,
    SummaryTable,
    allocation_probability,
    conditional_alpha,
    grid_posterior_alpha,
    log_lambda_conditional,
    posterior_summary,
    run_gibbs,
    run_gibbs_chains,
    run_marginal_mh,
)
from .rng import Rng, RngSeed

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BootstrapCutoff",
    "CalibrationReport",
    "CountDataset",
    "DegeneracyError",
    "DiscretizedPosterior",
    "ExperimentConfig",
    "ExperimentResult",
    "ImproperEvidenceError",
    "LogBayesFactor",
    "LogEvidence",
    "McmcConfig",
    "MixtureChain",
    "MixtureSpec",
    "NormalSummary",
    "QuadratureConfig",
    "Rng",
    "RngSeed",
    "SummaryTable",
    "allocation_probability",
    "bootstrap_alpha_cutoff",
    "conditional_alpha",
    "desk_scale_config",
    "grid_posterior_alpha",
    "log_bf01_lindley",
    "log_bf10_normal",
    "log_bf10_normal_quadrature",
    "log_bf12_printed",
    "log_bf12_shared_improper",
    "log_lambda_conditional",
    "log_marginal_geometric_improper",
    "log_marginal_poisson_improper",
    "log_marginal_quadrature",
    "log_pmf_geometric_mean",
    "log_pmf_poisson",
    "posterior_predictive_pvalue",
    "posterior_prob_from_log_bf",
    "posterior_summary",
    "predictive_bf_tails",
    "run_experiment",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_gibbs",
    "run_gibbs_chains",
    "run_lindley",
    "run_marginal_mh",
    "__version__",
]
