"""Vector index + embedding service (Figure 1's Embedding Service)."""

from repro.vector.index import ExactIndex, IVFIndex, SearchHit, VectorIndex, recall_at_k
from repro.vector.service import EmbeddingService
from repro.vector.similarity import cosine, dot, euclidean, normalize_rows

__all__ = [
    "EmbeddingService",
    "ExactIndex",
    "IVFIndex",
    "SearchHit",
    "VectorIndex",
    "cosine",
    "dot",
    "euclidean",
    "normalize_rows",
    "recall_at_k",
]
