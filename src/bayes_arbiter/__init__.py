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
from .distributions import CountDataset
from .errors import AccuracyError, DegeneracyError, ImproperEvidenceError
from .evidence import (
    LogBayesFactor,
    LogEvidence,
    NormalSummary,
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
    run_experiment,
)
from .mixture import (
    DiscretizedPosterior,
    McmcConfig,
    MixtureChain,
    MixtureSpec,
    SummaryTable,
    grid_posterior_alpha,
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
    "Rng",
    "RngSeed",
    "SummaryTable",
    "bootstrap_alpha_cutoff",
    "grid_posterior_alpha",
    "log_bf01_lindley",
    "log_bf10_normal",
    "log_bf10_normal_quadrature",
    "log_bf12_printed",
    "log_bf12_shared_improper",
    "log_marginal_geometric_improper",
    "log_marginal_poisson_improper",
    "log_marginal_quadrature",
    "posterior_predictive_pvalue",
    "posterior_prob_from_log_bf",
    "posterior_summary",
    "predictive_bf_tails",
    "run_experiment",
    "run_gibbs",
    "run_gibbs_chains",
    "run_marginal_mh",
    "__version__",
]
