"""The package's public surface, pinned so that a change to it is deliberate."""

import types

import asymshap

EXPORTS = [
    "AdmissionsProcess", "AsymshapError", "AttributionResult", "BackgroundSet", "BayesPredictor",
    "CONTINUOUS", "CachedValueFunction", "CoalitionChains", "DEFAULT_ENUMERATION_CAP", "DISCRETE",
    "Dataset", "EstimatorError", "ExactMatchSampler", "FairnessReport", "FeatureSelectionStudy",
    "FeatureSpec", "GenerativeSampler", "GlobalAttribution", "KNNSampler", "MarkovSeriesProcess",
    "OrderingSpec", "RunPlan", "Schema", "SchemaError", "Standardizer", "TrainConfig", "TrainedModel",
    "TwoFeatureGraphProcess", "ValidationError", "enumerate_consistent", "exact_asv", "fairness_spec",
    "global_asv", "load_csv", "marginal_contributions", "max_class_accuracy", "mc_asv",
    "one_hot_design", "partition_sum_check", "run_fairness_audit", "run_feature_selection_study",
    "sample_consistent_batch", "sampled_label_accuracy", "save_csv", "train_logistic", "train_mlp",
    "train_test_split",
]


def test_exported_names_are_pinned():
    public = sorted(
        name for name, obj in vars(asymshap).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert len(EXPORTS) == 47
    assert public == EXPORTS


def test_one_exception_class_per_exit_code():
    # ValidationError maps to exit 2 and EstimatorError to exit 3; SchemaError is the ValidationError
    # that TrainedModel.load passes through unwrapped.
    errors = {name for name in EXPORTS if name.endswith("Error")}
    assert errors == {"AsymshapError", "ValidationError", "SchemaError", "EstimatorError"}
    assert issubclass(asymshap.SchemaError, asymshap.ValidationError)
    assert not issubclass(asymshap.EstimatorError, asymshap.ValidationError)
