"""Convert dense conv/fc networks into diversely sized group convolutions.

The workflow: score each filter's input channels (importance), cluster
filters by those scores (grouping), prune the weakest centroid-ranked
connection bundles in steps with optional fine-tuning (pruning,
pipeline), then materialize the surviving masks as explicit per-group
dense blocks with a verified forward-equivalence check (deploy).
"""

from .data import Dataset, load_dataset, make_blob_dataset, save_dataset
from .deploy import (EquivalenceError, GranularityError, batch_size_for, convert_layer,
                     convert_model, count_flops, count_params, infer_input_shape,
                     max_forward_deviation, verify_equivalence)
from .grouping import Grouping, grouping_objective, kmeans_cluster
from .importance import importance_conv, layer_importance
from .io import (ModelFormatError, OverlappingRangesError, TruncatedBlobError,
                 VersionMismatchError, load_model, save_model, sgm_paths)
from .model import (AffineLayer, ConvLayer, FcLayer, GroupBlock, GroupConvLayer,
                    Model, apply_mask, build_toy_cnn)
from .pipeline import (PruneSchedule, TrainConfig, evaluate, run_algorithm1,
                       sgd_finetune)
from .pruning import (compression_ratio_layer, compression_ratio_network,
                      mask_dead_fraction, model_dead_fraction, prune_to_ratio,
                      pruned_elements)

__version__ = "0.1.0"
