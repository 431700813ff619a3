"""Budget-constrained online Gaussian process regression.

Exact GP regression with an SE-ARD kernel, five data-reduction criteria
with their paired acceptance criteria, a budgeted online update loop, the
benchmark generators the criteria are evaluated on, and a CLI harness for
running the experiments.
"""

from .gp import (
    Dataset,
    FactorizationError,
    Hyperparameters,
    NumericalError,
    OptimizationError,
    PosteriorCache,
    StaleCacheError,
    fit_cache,
    gaussian_entropy,
    kernel_matrix,
    log_marginal_likelihood,
    lml_gradient,
    optimize_hyperparameters,
    predict,
)
from .criteria import (
    AcceptanceKind,
    CriterionKind,
    PartitionView,
    acceptance_kind_for,
    acceptance_score,
    acceptance_scores,
    argmin_with_ties,
    loo_predict,
    reduction_score,
    reduction_scores,
)
from .online import (
    Decision,
    OnlineGp,
    RunSummary,
    StepOutcome,
    accept_decision,
    insert_decision,
    load_snapshot,
    run_stream,
    save_snapshot,
    select_removal,
    step,
)

__version__ = "0.1.0"
