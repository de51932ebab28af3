"""Contextual reranking: choose the right entity among name-sharing ones.

§3: "Michael Jordan stats" must link the basketball player while "Michael
Jordan students" links the professor — "lexical similarity-based features
alone cannot disambiguate".  The reranker scores candidates with:

* ``prior``              — popularity-derived alias prior,
* ``name_similarity``    — surface vs. canonical name,
* ``context_similarity`` — hashed query-context vs. cached entity-context
  embedding (§3's "similarity with the query embedding"),
* ``coherence``          — optional: graph-embedding similarity to the
  other entities linked in the same document (the §2 claim that graph
  embeddings "support entity linking").

Tiers: the ``full`` configuration uses all features; ``lite`` drops the
context/coherence features for throughput — the price/performance knob of
§3.2, ablated in the entity-linking benchmark.

The pipeline scores through :meth:`ContextualReranker.rerank_batch`: every
(mention, candidate) pair of a document is scored at once — context
similarity is one ``queries @ context_rows.T`` matmul against the columnar
context index, coherence one matmul against the embedding-service vectors,
and the linear combination is vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.annotation.context_encoder import EntityContextIndex
from repro.annotation.mention import Candidate
from repro.vector.service import EmbeddingService
from repro.vector.similarity import normalize_rows


def _score_order(candidate: Candidate) -> tuple[float, str]:
    """Sort key: best score first, entity id as the deterministic tiebreak."""
    return (-candidate.score, candidate.entity)


@dataclass
class RerankerConfig:
    """Feature weights (a simple linear model, as deployable rerankers are)."""

    weight_prior: float = 1.0
    weight_name: float = 0.5
    weight_context: float = 2.0
    weight_coherence: float = 1.0
    use_context: bool = True
    use_coherence: bool = False
    nil_threshold: float = 0.05


class ContextualReranker:
    """Linear reranker over candidate features."""

    def __init__(
        self,
        context_index: EntityContextIndex | None = None,
        embedding_service: EmbeddingService | None = None,
        config: RerankerConfig | None = None,
    ) -> None:
        self.config = config or RerankerConfig()
        self.context_index = context_index
        self.embedding_service = embedding_service
        if self.config.use_context and context_index is None:
            raise ValueError("use_context requires a context index")

    def rerank_batch(
        self,
        candidate_lists: list[list[Candidate]],
        query_matrix: np.ndarray | None = None,
        document_entities: list[str] | None = None,
    ) -> list[list[Candidate]]:
        """Score every (mention, candidate) pair of a document at once.

        ``candidate_lists[i]`` holds the candidates of mention *i* and
        ``query_matrix`` (one row per mention) its hashed context windows;
        each list is score-sorted in place, exactly as the seed's
        per-mention scoring did.  Context similarity is one
        ``queries @ context_rows.T`` matmul over the document's unique
        candidate entities, coherence one matmul against the embedding
        service (see :meth:`_coherence_means`); the linear combination
        stays in plain floats, so it is the same IEEE arithmetic the
        seed's scalar path performed.  Feature terms that are inactive for
        this configuration keep whatever values the candidates already
        carry, as the scalar path did.
        """
        cfg = self.config
        use_context = cfg.use_context and query_matrix is not None
        use_coherence = (
            cfg.use_coherence
            and self.embedding_service is not None
            and bool(document_entities)
        )
        weight_prior = cfg.weight_prior
        weight_name = cfg.weight_name
        weight_context = cfg.weight_context
        weight_coherence = cfg.weight_coherence

        similarity_rows: list[list[float]] = []
        column_of: dict[str, int] = {}
        if use_context:
            for candidates in candidate_lists:
                for candidate in candidates:
                    entity = candidate.entity
                    if entity not in column_of:
                        column_of[entity] = len(column_of)
            rows = self.context_index.rows(list(column_of))
            similarity_rows = (query_matrix @ rows.T).tolist()
        coherence_of: dict[str, float] = {}
        if use_coherence:
            coherence_of = self._coherence_means(candidate_lists, document_entities)

        for row_id, candidates in enumerate(candidate_lists):
            similarity_row = similarity_rows[row_id] if use_context else None
            for candidate in candidates:
                if similarity_row is not None:
                    context = similarity_row[column_of[candidate.entity]]
                    candidate.context_similarity = context
                else:
                    context = candidate.context_similarity
                if use_coherence:
                    coherence = coherence_of.get(candidate.entity, 0.0)
                    candidate.coherence = coherence
                else:
                    coherence = candidate.coherence
                candidate.score = (
                    weight_prior * candidate.prior
                    + weight_name * candidate.name_similarity
                    + weight_context * context
                    + weight_coherence * coherence
                )
            if len(candidates) > 1:
                candidates.sort(key=_score_order)
        return candidate_lists

    def _coherence_means(
        self, candidate_lists: list[list[Candidate]], document_entities: list[str]
    ) -> dict[str, float]:
        """Coherence per unique candidate entity vs the document's entities.

        One matmul between the (unit-normalised) embedding-service vectors
        of the unique candidate entities and of the unique document
        entities; the per-candidate mean then excludes self matches and
        respects document-entity multiplicity, as the seed's per-candidate
        mean did.  Entities unknown to the service are
        absent from the returned map (their coherence is 0.0).
        """
        service = self.embedding_service
        assert service is not None
        known_docs = [
            entity for entity in document_entities if service.has_entity(entity)
        ]
        unique_candidates = list(
            dict.fromkeys(
                candidate.entity
                for candidates in candidate_lists
                for candidate in candidates
                if service.has_entity(candidate.entity)
            )
        )
        if not known_docs or not unique_candidates:
            return {}
        unique_docs = list(dict.fromkeys(known_docs))
        doc_column_of = {entity: col for col, entity in enumerate(unique_docs)}
        candidate_rows = normalize_rows(
            np.stack([service.vector(entity) for entity in unique_candidates])
        )
        doc_rows = normalize_rows(
            np.stack([service.vector(entity) for entity in unique_docs])
        )
        similarities = candidate_rows @ doc_rows.T
        means: dict[str, float] = {}
        for row, entity in enumerate(unique_candidates):
            columns = [doc_column_of[other] for other in known_docs if other != entity]
            means[entity] = (
                float(np.mean(similarities[row, columns])) if columns else 0.0
            )
        return means

    def accepts(self, best: Candidate) -> bool:
        """NIL gate: link only when the best score clears the threshold."""
        return best.score >= self.config.nil_threshold
