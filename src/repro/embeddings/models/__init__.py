"""Shallow KG embedding models (TransE, DistMult, ComplEx)."""

from repro.common.errors import EmbeddingError
from repro.embeddings.models.base import KGEmbeddingModel, ModelConfig
from repro.embeddings.models.complex import ComplEx
from repro.embeddings.models.distmult import DistMult
from repro.embeddings.models.rotate import RotatE
from repro.embeddings.models.transe import TransE

_MODELS: dict[str, type[KGEmbeddingModel]] = {
    TransE.name: TransE,
    RotatE.name: RotatE,
    DistMult.name: DistMult,
    ComplEx.name: ComplEx,
}


def create_model(
    name: str, num_entities: int, num_relations: int, config: ModelConfig | None = None
) -> KGEmbeddingModel:
    """Instantiate a model by name (``transe`` / ``distmult`` / ``complex``)."""
    try:
        cls = _MODELS[name]
    except KeyError:
        raise EmbeddingError(
            f"unknown model {name!r}; available: {sorted(_MODELS)}"
        ) from None
    return cls(num_entities, num_relations, config or ModelConfig())


def adopt_model(
    name: str,
    entity_emb,
    relation_emb,
    config: ModelConfig,
) -> KGEmbeddingModel:
    """Adopt persisted parameter matrices into a model by name.

    The zero-copy counterpart of :func:`create_model`: no rng init, the
    (typically memory-mapped) matrices are aliased as-is.
    """
    try:
        cls = _MODELS[name]
    except KeyError:
        raise EmbeddingError(
            f"unknown model {name!r}; available: {sorted(_MODELS)}"
        ) from None
    return cls.adopt(entity_emb, relation_emb, config)


__all__ = [
    "ComplEx",
    "RotatE",
    "DistMult",
    "KGEmbeddingModel",
    "ModelConfig",
    "TransE",
    "adopt_model",
    "create_model",
]
