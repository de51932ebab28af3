"""§2 — Knowledge-graph embedding pipeline (training + inference)."""

from repro.embeddings.dataset import TripleDataset, build_dataset
from repro.embeddings.disk_trainer import DiskTrainer, DiskTrainStats
from repro.embeddings.evaluation import (
    ClassificationReport,
    LinkPredictionReport,
    corrupt_uniform,
    link_prediction,
    triple_classification,
)
from repro.embeddings.inference import BatchInference, ScoredTriple
from repro.embeddings.models import (
    ComplEx,
    DistMult,
    KGEmbeddingModel,
    ModelConfig,
    TransE,
    create_model,
)
from repro.embeddings.negative_sampling import NegativeSampler
from repro.embeddings.partition import (
    Partitioning,
    count_swaps,
    partition_dataset,
    schedule_pairs,
)
from repro.embeddings.pipeline import (
    EmbeddingPipelineConfig,
    EmbeddingPipelineResult,
    run_embedding_pipeline,
)
from repro.embeddings.registry import ModelRecord, ModelRegistry
from repro.embeddings.trainer import (
    TrainConfig,
    TrainedEmbeddings,
    Trainer,
    train_embeddings,
)

__all__ = [
    "BatchInference",
    "ClassificationReport",
    "ComplEx",
    "DiskTrainStats",
    "DiskTrainer",
    "DistMult",
    "EmbeddingPipelineConfig",
    "EmbeddingPipelineResult",
    "KGEmbeddingModel",
    "LinkPredictionReport",
    "ModelConfig",
    "ModelRecord",
    "ModelRegistry",
    "NegativeSampler",
    "Partitioning",
    "ScoredTriple",
    "TrainConfig",
    "TrainedEmbeddings",
    "Trainer",
    "TransE",
    "TripleDataset",
    "build_dataset",
    "corrupt_uniform",
    "count_swaps",
    "create_model",
    "link_prediction",
    "partition_dataset",
    "run_embedding_pipeline",
    "schedule_pairs",
    "train_embeddings",
    "triple_classification",
]
