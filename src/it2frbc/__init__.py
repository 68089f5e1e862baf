"""Interval type-2 fuzzy rule-based classifier with cluster-based class
representation: per-class subtractive clustering proposes rule antecedents,
dual fuzzifiers open an interval footprint of uncertainty, and an interval
fuzzy reasoning method classifies patterns.
"""
from .dataset import (
    Dataset,
    NormalizationParams,
    SplitSpec,
    fit_normalizer,
    gen_circular,
    gen_irregular,
    load_csv,
    load_features_csv,
    normalize_dataset,
    save_csv,
    split,
)
from .errors import ConfigError, DataError
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    RunResult,
    accuracy,
    confusion_matrix,
    emit_report,
    run_experiment,
    train_and_score,
)
from .inference import (
    ClassificationResult,
    SoundnessInterval,
    classify,
    classify_batch,
)
from .rulebase import (
    Fuzzifiers,
    RuleBase,
    build_rulebase,
    certainty_degrees,
    export_rules_text,
    load_rulebase,
    save_rulebase,
)
from .subclust import SubclustParams, initial_potentials, subtractive_cluster

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "ConfigError",
    "DataError",
    "Dataset",
    "ExperimentConfig",
    "ExperimentReport",
    "Fuzzifiers",
    "NormalizationParams",
    "RuleBase",
    "RunResult",
    "SoundnessInterval",
    "SplitSpec",
    "SubclustParams",
    "accuracy",
    "build_rulebase",
    "certainty_degrees",
    "classify",
    "classify_batch",
    "confusion_matrix",
    "emit_report",
    "export_rules_text",
    "fit_normalizer",
    "gen_circular",
    "gen_irregular",
    "initial_potentials",
    "load_csv",
    "load_features_csv",
    "load_rulebase",
    "normalize_dataset",
    "run_experiment",
    "save_csv",
    "save_rulebase",
    "split",
    "subtractive_cluster",
    "train_and_score",
]
