"""Order-aware Shapley feature attribution.

Feature credit is assigned by averaging marginal contributions over feature
orderings; declaring precedence constraints (causal ancestors first, or any
ordered grouping) reweights that average to the orderings consistent with
them. The package provides exact and Monte Carlo estimators, off- and
on-manifold value functions, small self-contained models, synthetic
generative scenarios, and a CLI around all of it.
"""

from .attribution import (
    AttributionResult,
    CoalitionChains,
    GlobalAttribution,
    RunPlan,
    exact_asv,
    global_asv,
    marginal_contributions,
    mc_asv,
    partition_sum_check,
)
from .coalitions import (
    DEFAULT_ENUMERATION_CAP,
    OrderingSpec,
    enumerate_consistent,
    sample_consistent_batch,
)
from .data import (
    CONTINUOUS,
    DISCRETE,
    Dataset,
    FeatureSpec,
    Schema,
    Standardizer,
    load_csv,
    one_hot_design,
    save_csv,
    train_test_split,
)
from .errors import (
    AsymshapError,
    EstimatorError,
    SchemaError,
    ValidationError,
)
from .models import (
    BayesPredictor,
    TrainConfig,
    TrainedModel,
    max_class_accuracy,
    sampled_label_accuracy,
    train_logistic,
    train_mlp,
)
from .scenarios import (
    AdmissionsProcess,
    FairnessReport,
    FeatureSelectionStudy,
    MarkovSeriesProcess,
    TwoFeatureGraphProcess,
    fairness_spec,
    run_fairness_audit,
    run_feature_selection_study,
)
from .values import (
    BackgroundSet,
    CachedValueFunction,
    ExactMatchSampler,
    GenerativeSampler,
    KNNSampler,
)

__version__ = "0.1.0"
