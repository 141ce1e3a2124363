"""Exemplar-free continual learning for answer classification.

A student classifier is trained over a sequence of tasks under three
supervision signals: hard labels, distillation from the frozen previous
model, and distillation from a pluggable general-knowledge teacher.
The signal weights are set once per task from measured teacher
accuracies and the cumulative class-imbalance ratio.
"""

__version__ = "0.1.0"

from .bridge import (
    Vocabulary,
    build_vocabulary,
    scores_to_logits,
    tokenize_labels,
)
from .engine import (
    StudentModel,
    TrainSettings,
    evaluate,
    run_continual,
    train_task,
)
from .errors import (
    ConfigError,
    DataError,
    MtclError,
    NumericError,
    TeacherQueryError,
)
from .losses import combine_losses, cross_entropy, grad_check, kd_loss, softened_softmax
from .taskstream import (
    GeneratorConfig,
    ImbalanceLedger,
    StreamManifest,
    generate_synthetic_stream,
    load_manifest,
    load_task,
)
from .teachers import (
    FixtureTeacher,
    NoisyOracleTeacher,
    ServiceTeacher,
    teacher_from_config,
)
from .weights import WeightConfig, WeightTriple, assemble_weights, di_shares, ds_shares

__all__ = [
    "__version__",
    "Vocabulary",
    "build_vocabulary",
    "scores_to_logits",
    "tokenize_labels",
    "StudentModel",
    "TrainSettings",
    "evaluate",
    "run_continual",
    "train_task",
    "ConfigError",
    "DataError",
    "MtclError",
    "NumericError",
    "TeacherQueryError",
    "combine_losses",
    "cross_entropy",
    "grad_check",
    "kd_loss",
    "softened_softmax",
    "GeneratorConfig",
    "ImbalanceLedger",
    "StreamManifest",
    "generate_synthetic_stream",
    "load_manifest",
    "load_task",
    "FixtureTeacher",
    "NoisyOracleTeacher",
    "ServiceTeacher",
    "teacher_from_config",
    "WeightConfig",
    "WeightTriple",
    "assemble_weights",
    "di_shares",
    "ds_shares",
]
