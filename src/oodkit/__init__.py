"""Out-of-distribution detection toolkit.

Small fully connected classifiers trained under three interchangeable
heads (softmax, isomax, isomaxplus) and evaluated for OOD detection with
maximum-probability, entropic, and minimum-distance scores under the
standard AUROC / TNR@TPR95 / DTACC metrics.
"""

from .numerics import (
    ContractViolation,
    pairwise_euclidean,
    row_normalize,
    shannon_entropy_rows,
    stable_softmax_rows,
)
from .heads import (
    IsoMaxHead,
    IsoMaxPlusHead,
    SoftMaxHead,
    backward,
    head_outputs,
    inference_probabilities,
    predict,
    training_loss,
)
from .scores import (
    ScoreKind,
    compute_score,
    entropic_score,
    max_probability_score,
    min_distance_score,
)
from .metrics import (
    DetectionScoreSet,
    auroc,
    classification_accuracy,
    dtacc,
    tnr_at_tpr95,
)
from .model import (
    MlpBackbone,
    SgdConfig,
    TrainState,
    TrainingDiverged,
    backbone_backward,
    backbone_forward,
    fit,
    forward_trace,
    loss_and_gradients,
    make_backbone,
    make_train_state,
    sgd_step,
)
from .data import (
    BatchStream,
    Dataset,
    IdxParseError,
    gaussian_blobs,
    load_csv,
    load_idx,
    ood_ring,
    ood_uniform,
    write_csv,
    write_idx,
)
from .experiment import (
    CheckpointError,
    ComparisonReport,
    ExperimentConfig,
    Report,
    compare_heads,
    evaluate_checkpoint,
    histogram_report,
    load_checkpoint,
    load_config,
    ood_sets,
    run_experiment,
    save_checkpoint,
    seed_data,
    validate_report,
)

__version__ = "0.1.0"
