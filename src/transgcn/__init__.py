"""Knowledge-graph embeddings from translation/rotation-homogenized graph convolutions."""

__version__ = "0.1.0"

from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import Assumption, ModelState, encode, encode_arrays
from .errors import (
    CheckpointError,
    ConfigError,
    NumericError,
    ParseError,
    ShapeError,
    TransGCNError,
)
from .evaluator import RankingReport, degree_bucket_report, evaluate
from .kg import KnowledgeGraph, Triple, build_graph, build_index, known_triple_set, load_dataset
from .kinship import generate_kinship
from .trainer import (Checkpoint, TrainConfig, TrainingAborted, layer_sweep,
                      param_count_report, train)

__all__ = [
    "Assumption",
    "Checkpoint",
    "CheckpointError",
    "ConfigError",
    "KnowledgeGraph",
    "ModelState",
    "NumericError",
    "ParseError",
    "RankingReport",
    "ShapeError",
    "TrainConfig",
    "TransGCNError",
    "TrainingAborted",
    "Triple",
    "build_graph",
    "build_index",
    "degree_bucket_report",
    "encode",
    "encode_arrays",
    "evaluate",
    "generate_kinship",
    "known_triple_set",
    "layer_sweep",
    "load_checkpoint",
    "load_dataset",
    "param_count_report",
    "save_checkpoint",
    "train",
    "__version__",
]
