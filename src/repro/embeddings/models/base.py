"""Shallow KG embedding models: the common interface.

§2 distinguishes *shallow* embedding models (entity/relation matrices
trained with a contrastive objective over existing and non-existing edges)
from reasoning-based models.  This package implements the shallow family —
TransE, DistMult and ComplEx — on NumPy with a uniform interface:

* ``score(h, r, t)``   — plausibility of index triples (vectorized),
* ``grads(h, r, t, dscore)`` — per-row gradients given upstream ∂loss/∂score,
* parameter access for the sparse AdaGrad optimiser in the trainer.

Index triples refer to rows of ``entity_emb`` / ``relation_emb``; the
mapping from KG identifiers to indices lives in the training dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import EmbeddingError


@dataclass
class ModelConfig:
    """Hyper-parameters shared by all shallow models."""

    dim: int = 32
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise EmbeddingError(f"dim must be positive, got {self.dim}")


class KGEmbeddingModel:
    """Base class holding entity and relation parameter matrices.

    Subclasses define the scoring function and its gradients.  The storage
    dimension (``storage_dim``) may differ from the nominal embedding
    dimension (ComplEx stores real and imaginary halves side by side).
    """

    name = "base"

    def __init__(self, num_entities: int, num_relations: int, config: ModelConfig) -> None:
        if num_entities <= 0 or num_relations <= 0:
            raise EmbeddingError(
                f"need positive vocab sizes, got {num_entities} entities, "
                f"{num_relations} relations"
            )
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.config = config
        rng = np.random.default_rng(config.seed)
        shape_e = (num_entities, self.storage_dim)
        shape_r = (num_relations, self.storage_dim)
        self.entity_emb = rng.uniform(-config.init_scale, config.init_scale, shape_e)
        self.relation_emb = rng.uniform(-config.init_scale, config.init_scale, shape_r)

    @property
    def storage_dim(self) -> int:
        """Width of the parameter matrices (== ``config.dim`` by default)."""
        return self.config.dim

    @classmethod
    def adopt(
        cls, entity_emb: np.ndarray, relation_emb: np.ndarray, config: ModelConfig
    ) -> "KGEmbeddingModel":
        """Wrap existing parameter matrices without the random init.

        The persisted-snapshot path: matrices are aliased (typically
        memory-mapped read-only), never copied, and the rng draw of
        ``__init__`` is skipped entirely — adopting is O(1) regardless of
        vocabulary size.  Scoring only reads the matrices, so an adopted
        model answers bit-for-bit like the one that trained them.
        """
        entity_emb = np.atleast_2d(entity_emb)
        relation_emb = np.atleast_2d(relation_emb)
        model = object.__new__(cls)
        model.num_entities = len(entity_emb)
        model.num_relations = len(relation_emb)
        model.config = config
        expected = model.storage_dim
        if entity_emb.shape[1] != expected or relation_emb.shape[1] != expected:
            raise EmbeddingError(
                f"adopted matrices are {entity_emb.shape[1]}/"
                f"{relation_emb.shape[1]} wide; {cls.name} at dim "
                f"{config.dim} stores {expected}"
            )
        model.entity_emb = entity_emb
        model.relation_emb = relation_emb
        return model

    # -- scoring -----------------------------------------------------------

    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Plausibility scores of index triples (higher = more plausible)."""
        return self.score_rows(self.entity_emb[h], self.relation_emb[r], self.entity_emb[t])

    def grads(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, dscore: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of ``dscore @ score`` w.r.t. the h/r/t embedding rows.

        Returns arrays of shape ``(batch, storage_dim)`` aligned with the
        input index arrays.
        """
        eh, et = self.entity_emb[h], self.entity_emb[t]
        return self.grad_rows(eh, self.relation_emb[r], et, dscore)

    def score_rows(self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray) -> np.ndarray:
        """:meth:`score` of gathered rows: the trainer gathers a step's rows once."""
        raise NotImplementedError

    def grad_rows(
        self, eh: np.ndarray, wr: np.ndarray, et: np.ndarray, dscore: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`grads` of already gathered rows."""
        raise NotImplementedError

    # -- convenience -----------------------------------------------------------

    def score_triples(self, triples: np.ndarray) -> np.ndarray:
        """Scores for an ``(n, 3)`` array of (h, r, t) index triples."""
        triples = np.asarray(triples)
        return self.score(triples[:, 0], triples[:, 1], triples[:, 2])

    def normalize_entities(self) -> None:
        """Project entity embeddings onto the unit ball (TransE-style).

        No-op by default; distance-based models override.
        """
