"""Covariance-structure classification for adaptive radar snapshots.

The package fits four nested interference covariance models to secondary
snapshot data (general Hermitian, real symmetric, centrohermitian, and real
centrosymmetric), scores each with information-theoretic model-order rules,
and measures probability of correct classification over Monte Carlo trials.
"""

from .criteria import (
    DEFAULT_CRITERIA,
    Criterion,
    CriterionKind,
    HypothesisScore,
    Scorecard,
    TrialScores,
    classify,
    classify_stack,
    parse_criterion,
)
from .datafmt import DataFormatError, dumps_dataset, loads_dataset, read_dataset, write_dataset
from .estimators import (
    Approach,
    Dataset,
    DatasetStack,
    DegenerateSteeringError,
    estimate_covariance,
)
from .likelihood import information_terms
from .linalg import NotPositiveDefiniteError
from .montecarlo import (
    CampaignConfig,
    CellStats,
    PccReport,
    confusion_histogram,
    run_campaign,
)
from .scenario import (
    ScenarioConfig,
    SourceParams,
    TruthInstance,
    draw_stack,
    sample_dataset,
    steering_vector,
    table_case,
    truth_instance,
)
from .structures import (
    Hypothesis,
    StructureModel,
    StructureViolationError,
    param_count,
    project,
    satisfies_structure,
    structure_model,
    structure_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Approach",
    "CampaignConfig",
    "CellStats",
    "Criterion",
    "CriterionKind",
    "DEFAULT_CRITERIA",
    "DataFormatError",
    "Dataset",
    "DatasetStack",
    "DegenerateSteeringError",
    "Hypothesis",
    "HypothesisScore",
    "NotPositiveDefiniteError",
    "PccReport",
    "ScenarioConfig",
    "Scorecard",
    "SourceParams",
    "StructureModel",
    "StructureViolationError",
    "TrialScores",
    "TruthInstance",
    "classify",
    "classify_stack",
    "confusion_histogram",
    "draw_stack",
    "dumps_dataset",
    "estimate_covariance",
    "information_terms",
    "loads_dataset",
    "param_count",
    "parse_criterion",
    "project",
    "read_dataset",
    "run_campaign",
    "sample_dataset",
    "satisfies_structure",
    "steering_vector",
    "structure_model",
    "structure_residual",
    "table_case",
    "truth_instance",
    "write_dataset",
    "__version__",
]
