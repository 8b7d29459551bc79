"""Multilingual tweet sentiment classification toolkit.

Pipeline: load labeled tweets, normalize the noisy surface text, embed
tokens per language, optionally map every language into one shared
vector space with least-squares translation matrices, then train and
cross-validate classifiers (convolutional and recurrent networks that
share parameters across languages, plus n-gram Naive Bayes and SVM
baselines). All randomness flows from named, seeded streams so any
result reproduces bit for bit.
"""

from .align import (
    DistanceReport,
    PivotPairSet,
    TranslationMatrix,
    alignment_report,
    fit_translation_matrix,
    load_dictionary,
    load_translation_matrix,
    resolve_pairs,
    save_translation_matrix,
    select_pivot_pairs,
)
from .baselines import (
    FeatureSpace,
    NBModel,
    SVMModel,
    build_feature_space,
    intern_ngrams,
    predict_nb,
    predict_svm,
    train_nb,
    train_svm_ovo,
    vectorize,
)
from .corpus import (
    FoldPlan,
    Polarity,
    TweetRecord,
    load_corpus,
    make_folds,
    parse_label,
    save_corpus,
    split_dev,
)
from .embeddings import (
    EmbeddingTable,
    load_embedding_table,
    save_embedding_table,
)
from .errors import (
    ArgumentError,
    ConfigurationError,
    CoverageError,
    LeakageError,
    MultisentError,
    ParseError,
    RecordDropError,
    SchemaError,
)
from .experiment import (
    CVReport,
    ExperimentConfig,
    compare_runs,
    parse_config,
    run_experiment,
)
from .nn import TrainConfig, TrainedModel, predict_batch, train
from .pipeline import EmbeddingContext
from .preprocess import (
    NormalizationRuleSet,
    TokenizedTweet,
    default_rules,
    normalize,
    preprocess_corpus,
    preprocess_record,
)
from .rng import SplitMix64, derive_stream
from .synth import SynthSpec, generate_fixture, write_fixture

__version__ = "1.0.0"

__all__ = [
    "ArgumentError",
    "ConfigurationError",
    "CoverageError",
    "CVReport",
    "DistanceReport",
    "EmbeddingContext",
    "EmbeddingTable",
    "ExperimentConfig",
    "FeatureSpace",
    "FoldPlan",
    "LeakageError",
    "MultisentError",
    "NBModel",
    "NormalizationRuleSet",
    "ParseError",
    "PivotPairSet",
    "Polarity",
    "RecordDropError",
    "SchemaError",
    "SplitMix64",
    "SVMModel",
    "SynthSpec",
    "TokenizedTweet",
    "TrainConfig",
    "TrainedModel",
    "TranslationMatrix",
    "TweetRecord",
    "alignment_report",
    "build_feature_space",
    "compare_runs",
    "default_rules",
    "derive_stream",
    "fit_translation_matrix",
    "generate_fixture",
    "intern_ngrams",
    "load_corpus",
    "load_dictionary",
    "load_embedding_table",
    "load_translation_matrix",
    "make_folds",
    "normalize",
    "parse_config",
    "parse_label",
    "predict_batch",
    "predict_nb",
    "predict_svm",
    "preprocess_corpus",
    "preprocess_record",
    "run_experiment",
    "save_corpus",
    "save_embedding_table",
    "save_translation_matrix",
    "select_pivot_pairs",
    "split_dev",
    "train",
    "train_nb",
    "train_svm_ovo",
    "vectorize",
    "write_fixture",
]
