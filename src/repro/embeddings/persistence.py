"""Persisted embedding bundle layer: train once, mmap everywhere.

The embedding-family backends (fact ranking / verification / similarity /
k-NN) are pure functions of flat arrays: the model's entity/relation
matrices, the dataset vocabulary, the calibrated verification threshold
and the trained IVF quantizer.  This module persists exactly that state
as an ``embeddings/`` snapshot layer (same versioned ``.npy`` + manifest
scheme as ``adjacency/``) and rebuilds a ready-to-serve
:class:`~repro.embeddings.suite.EmbeddingSuite` zero-copy over the
memory-mapped files — cold start maps pages instead of re-running SGD,
and N worker processes share one page-cache copy.

Layer contents:

* ``entity_emb`` / ``relation_emb`` — float64 model matrices (the exact
  trained parameters, so adopted scores are byte-identical);
* ``entity_blob``/``entity_offsets``, ``relation_blob``/``relation_offsets``
  — the vocabularies (:func:`pack_strings`);
* ``train_triples`` — the training split's index triples (``known_set``
  parity for filtered evaluation);
* ``knn_rows`` (float32 unit rows), ``knn_centroids``, CSR-style
  ``knn_postings_indices``/``knn_postings_offsets`` and — under int8
  quantization — ``knn_codes``/``knn_scales``: the
  :meth:`IVFIndex.state_arrays` export;
* manifest ``extra``: the build recipe (adopt-match fields of
  :class:`EmbeddingSuiteConfig`) and the calibration report, threshold
  included, so no replica recalibrates.

Adopt-or-rebuild contract (same as every other layer): a stale
``store_version`` or a recipe mismatch silently retrains; corruption
raises :class:`StoreError`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.common.errors import StoreError
from repro.common.snapshot_io import (
    LayerPayload,
    load_payload,
    pack_strings,
    unpack_strings,
    write_arrays,
)
from repro.embeddings.dataset import TripleDataset
from repro.embeddings.evaluation import ClassificationReport
from repro.embeddings.inference import BatchInference
from repro.embeddings.models import ModelConfig, adopt_model
from repro.embeddings.suite import ADOPTED, EmbeddingSuite, EmbeddingSuiteConfig
from repro.embeddings.trainer import TrainedEmbeddings
from repro.kg.store import TripleStore
from repro.services.fact_ranking import FactRanker
from repro.services.fact_verification import FactVerifier
from repro.vector.index import IVFIndex
from repro.vector.service import EmbeddingService

EMBEDDINGS_KIND = "embeddings"


def save_embeddings(
    suite: EmbeddingSuite,
    config: EmbeddingSuiteConfig,
    directory: str | Path,
    *,
    store_version: int,
) -> dict[str, Any]:
    """Write ``suite``'s trained state as an embeddings layer; returns the
    manifest.  ``suite`` must have been built with ``config`` (the recipe
    is stamped into the manifest for adopt-time matching)."""
    trained = suite.trained
    dataset = trained.dataset
    index = suite.embedding_service.index
    if not isinstance(index, IVFIndex):
        raise StoreError(
            "embedding layer requires an IVFIndex-backed suite "
            f"(got {type(index).__name__})"
        )
    entity_blob, entity_offsets = pack_strings(dataset.entities)
    relation_blob, relation_offsets = pack_strings(dataset.relations)
    arrays: dict[str, np.ndarray] = {
        "entity_emb": np.asarray(trained.model.entity_emb, dtype=np.float64),
        "relation_emb": np.asarray(trained.model.relation_emb, dtype=np.float64),
        "entity_blob": entity_blob,
        "entity_offsets": entity_offsets,
        "relation_blob": relation_blob,
        "relation_offsets": relation_offsets,
        "train_triples": np.asarray(dataset.triples, dtype=np.int64),
    }
    arrays.update(index.state_arrays())
    calibration = suite.verifier.calibration
    extra = {
        "recipe": config.recipe(),
        "calibration": {
            "auc": float(calibration.auc),
            "accuracy": float(calibration.accuracy),
            "threshold": float(calibration.threshold),
            "num_positive": int(calibration.num_positive),
            "num_negative": int(calibration.num_negative),
        },
    }
    return write_arrays(
        directory,
        arrays,
        kind=EMBEDDINGS_KIND,
        store_version=store_version,
        extra=extra,
    )


def load_embedding_layer(
    directory: str | Path,
    *,
    expected_store_version: int | None = None,
    mmap: bool = True,
    verify: bool = True,
) -> LayerPayload:
    """Load an embeddings layer written by :func:`save_embeddings`.

    Raises :class:`SnapshotStaleError` on a store-version mismatch
    (callers rebuild) and :class:`StoreError` on corruption.
    """
    return load_payload(
        directory,
        kind=EMBEDDINGS_KIND,
        expected_store_version=expected_store_version,
        mmap=mmap,
        verify=verify,
    )


def adopt_embedding_suite(
    store: TripleStore, layer: LayerPayload, config: EmbeddingSuiteConfig
) -> EmbeddingSuite | None:
    """Reconstruct a ready-to-serve suite from a loaded layer, zero-copy.

    Returns ``None`` when the layer was built under a different recipe
    than ``config`` asks for (the caller retrains — same silent fallback
    as a stale layer).  Nothing here touches the store's fact log and no
    array is copied: the model matrices, the dataset triples and the IVF
    state all alias the layer's (memory-mapped) arrays.
    """
    recipe = layer.extra.get("recipe")
    if recipe != config.recipe():
        return None
    arrays = layer.arrays
    entities = unpack_strings(arrays["entity_blob"], arrays["entity_offsets"])
    relations = unpack_strings(arrays["relation_blob"], arrays["relation_offsets"])
    model = adopt_model(
        config.model,
        arrays["entity_emb"],
        arrays["relation_emb"],
        ModelConfig(dim=config.dim, seed=config.seed),
    )
    dataset = TripleDataset(
        entities=entities,
        relations=relations,
        triples=np.asarray(arrays["train_triples"]),
    )
    trained = TrainedEmbeddings(model=model, dataset=dataset)
    verifier = FactVerifier(trained)
    saved = layer.extra["calibration"]
    verifier.adopt_calibration(
        ClassificationReport(
            auc=float(saved["auc"]),
            accuracy=float(saved["accuracy"]),
            threshold=float(saved["threshold"]),
            num_positive=int(saved["num_positive"]),
            num_negative=int(saved["num_negative"]),
        )
    )
    index = IVFIndex.adopt(
        dataset.entities,
        arrays,
        nlist=config.knn_nlist,
        nprobe=config.knn_nprobe,
        kmeans_iterations=config.knn_kmeans_iterations,
        seed=config.knn_seed,
        quantization=config.knn_quantization,
        rerank_factor=config.knn_rerank_factor,
        by_key=dataset.entity_index,
    )
    return EmbeddingSuite(
        trained=trained,
        ranker=FactRanker(store, BatchInference(trained)),
        verifier=verifier,
        embedding_service=EmbeddingService(trained, index=index),
        source=ADOPTED,
    )
