"""driftlab: embedding networks, prototype classifiers, and drift-aware
class-incremental training on a small numpy autodiff core."""

__version__ = "0.1.0"

from .data import LabeledDataset, gen_gaussian_clusters, read_csv_dataset, read_idx
from .harness import (
    METHODS,
    MethodConfig,
    RunRecord,
    TaskSequence,
    avg_forgetting,
    avg_incremental_accuracy,
    run_sequence,
    split_tasks,
)
from .models import EmbeddingNet, GrowingSoftmaxNet, snapshot
from .prototypes import (
    PrototypeBook,
    collect_drift,
    compensate,
    compute_prototypes,
    interpolate_drift,
    ncm_classify,
)
from .tensor import Tensor
