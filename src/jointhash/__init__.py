"""Joint hash-code and classifier learning for Hamming-distance retrieval."""

from .data import (
    Dataset,
    StreamedDataset,
    load_dataset,
    read_feature_file,
    read_label_file,
    save_dataset,
    synth_dataset,
    train_test_split,
    write_feature_file,
    write_label_file,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    JointHashError,
    NumericError,
    TrainingDivergedError,
)
from .index import (
    CodeTable,
    Ranking,
    hamming_distance,
    load_code_table,
    radius_search,
    rank_all,
    save_code_table,
    top_k,
)
from .metrics import (
    EvalReport,
    RelevanceList,
    average_precision,
    evaluate,
    mean_average_precision,
    overall_accuracy,
    precision_at_k,
    precision_recall_curve,
    recall_at_k,
)
from .model import (
    ModelParams,
    affine_hash,
    binarize,
    class_scores,
    pack_codes,
    predict_labels,
    unpack_codes,
)
from .objective import (
    Hyperparams,
    grad_params,
    gradient_check,
    gradient_check_suite,
    label_loss,
    loss_parts,
    similarity_loss,
    total_loss,
)
from .train import (
    Checkpoint,
    EpochStats,
    TrainConfig,
    encode,
    encode_database,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)

__version__ = "0.1.0"
