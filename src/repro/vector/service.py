"""Embedding service: vectors, similarity and k-NN behind one facade.

Figure 1's *Embedding Service* — "provides access to learned vectorized
representations of entities, and allows similarity calculations as well as
efficient k-nearest-neighbour retrieval."  Vectors come from the model
registry's latest (or a pinned) version; a key-value cache keeps hot entity
vectors resident the way §3.2 caches reranker embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import EmbeddingError, IndexError_
from repro.common.kvstore import MemoryKVStore
from repro.common.metrics import MetricsRegistry
from repro.embeddings.trainer import TrainedEmbeddings
from repro.vector.index import ExactIndex, SearchHit, VectorIndex
from repro.vector.similarity import normalize_rows


class EmbeddingService:
    """Serving layer over a trained embedding model + vector index."""

    def __init__(
        self,
        trained: TrainedEmbeddings,
        index: VectorIndex | None = None,
        cache_capacity: int | None = 10_000,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.trained = trained
        self.metrics = metrics or MetricsRegistry("embedding-service")
        self._cache = MemoryKVStore(capacity=cache_capacity)
        if index is None:
            index = ExactIndex(metric="cosine")
            keys, matrix = trained.all_entity_vectors()
            index.add(keys, matrix)
        elif len(index) == 0:
            keys, matrix = trained.all_entity_vectors()
            index.add(keys, matrix)
        self.index = index

    def has_entity(self, entity: str) -> bool:
        """True when the service can produce a vector for ``entity``."""
        return self.trained.has_entity(entity)

    def vector(self, entity: str) -> np.ndarray:
        """Embedding of ``entity``, via the cache."""
        cached = self._cache.get(entity)
        if cached is not None:
            self.metrics.incr("vector.cache_hit")
            return cached
        self.metrics.incr("vector.cache_miss")
        vector = self.trained.entity_vector(entity)
        self._cache.put(entity, vector)
        return vector

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity between two entities' embeddings."""
        with self.metrics.timed("similarity"):
            a = normalize_rows(self.vector(left)[None, :])[0]
            b = normalize_rows(self.vector(right)[None, :])[0]
            return float(a @ b)

    def knn(self, entity: str, k: int = 10, exclude_self: bool = True) -> list[SearchHit]:
        """k nearest entities to ``entity`` in embedding space."""
        with self.metrics.timed("knn"):
            query = self.vector(entity)
            hits = self.index.search(query, k + (1 if exclude_self else 0))
        if exclude_self:
            hits = [hit for hit in hits if hit.key != entity][:k]
        return hits

    def knn_many(
        self, entities: list[str], k: int = 10, exclude_self: bool = True
    ) -> list[list[SearchHit]]:
        """Per-entity k-NN for many entities in one batched index pass.

        The serving layer's multi-entity ``KnnRequest`` path: all query
        vectors gather in one fancy-index instead of a per-entity cache
        probe + copy, and the index sees one ``search_many`` call.
        Per-entity hits are identical to :meth:`knn` (the index scores
        each query with the same arithmetic), and unknown entities raise
        exactly like the scalar path.
        """
        if not entities:
            return []
        with self.metrics.timed("knn"):
            index_map = self.trained.dataset.entity_index
            rows = []
            for entity in entities:
                try:
                    rows.append(index_map[entity])
                except KeyError:
                    raise EmbeddingError(
                        f"entity not in embedding vocabulary: {entity}"
                    ) from None
            queries = self.trained.model.entity_emb[rows]
            per_entity = self.index.search_many(
                queries, k + (1 if exclude_self else 0)
            )
        if not exclude_self:
            return per_entity
        return [
            [hit for hit in hits if hit.key != entity][:k]
            for entity, hits in zip(entities, per_entity)
        ]

    def batch_similarity(
        self, pairs: list[tuple[str, str]]
    ) -> list[float]:
        """Cosine similarities for entity pairs (0.0 for unknown entities).

        The serving layer's ``SimilarityRequest`` path: both sides of
        every known pair gather into one matrix each, normalise in one
        pass and reduce row-wise — no per-pair cache probes or metric
        timers.  Unknown entities keep the scalar path's 0.0 contract.
        """
        if not pairs:
            return []
        known = [
            i
            for i, (left, right) in enumerate(pairs)
            if self.has_entity(left) and self.has_entity(right)
        ]
        out = [0.0] * len(pairs)
        if not known:
            return out
        with self.metrics.timed("similarity"):
            index = self.trained.dataset.entity_index
            emb = self.trained.model.entity_emb
            lefts = normalize_rows(emb[[index[pairs[i][0]] for i in known]])
            rights = normalize_rows(emb[[index[pairs[i][1]] for i in known]])
            for slot, i in enumerate(known):
                out[i] = float(lefts[slot] @ rights[slot])
        return out

    def require_entity(self, entity: str) -> None:
        """Raise a service-level error for unknown entities."""
        if not self.has_entity(entity):
            raise IndexError_(f"entity not served by embedding service: {entity}")
