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

On a delta chain the layer grows instead of retraining
(:class:`EmbeddingDiff` writes one row-sparse payload per generation,
:func:`apply_embeddings` folds them over the mmapped base), so a chain's
embedding answers equal a replay of its base plus its deltas.
"""

from __future__ import annotations

import itertools
from collections import ChainMap
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.common.errors import StoreError
from repro.common.rng import substream
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
from repro.embeddings.negative_sampling import KnownTriples, NegativeSampler
from repro.embeddings.suite import ADOPTED, EmbeddingSuite, EmbeddingSuiteConfig
from repro.embeddings.trainer import (
    AdaGrad,
    TrainConfig,
    TrainedEmbeddings,
    contrastive_step,
)
from repro.kg.store import TripleStore
from repro.kg.triple import ObjectKind
from repro.services.fact_ranking import FactRanker
from repro.services.fact_verification import FactVerifier
from repro.vector.index import IVFIndex
from repro.vector.service import EmbeddingService
from repro.vector.similarity import normalize_rows

EMBEDDINGS_KIND = "embeddings"

#: Seeded ``contrastive_step`` passes one published generation runs over
#: its entity-valued facts.
DELTA_STEPS = 10


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


# -- delta chains ------------------------------------------------------------


def _cells(arrays: dict[str, np.ndarray], num_rows: int) -> np.ndarray:
    """Each row's IVF cell, read off the CSR postings; -1 for rows in none."""
    indices = np.asarray(arrays["knn_postings_indices"])
    offsets = np.asarray(arrays["knn_postings_offsets"])
    if indices.size and not 0 <= indices.min() <= indices.max() < num_rows:
        raise StoreError(f"corrupt embeddings layer: a kNN posting names no row of {num_rows}")
    cells = np.full(num_rows, -1, dtype=np.int64)
    cells[indices] = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return cells


def _postings(cells: np.ndarray, num_cells: int) -> dict[str, np.ndarray]:
    """CSR postings of ``cells``, rows ascending within a cell (the order
    :meth:`IVFIndex.train` files them in)."""
    order = np.argsort(cells, kind="stable")
    indices = order[cells[order] >= 0].astype(np.int64)
    offsets = np.zeros(num_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells[indices], minlength=num_cells), out=offsets[1:])
    return {"knn_postings_indices": indices, "knn_postings_offsets": offsets}


def apply_embeddings(base: LayerPayload, payloads: list[LayerPayload]) -> LayerPayload:
    """Fold embedding deltas over a loaded base; stamped at the last.

    Vocabulary appends in chain order (a delta re-adding an entity or
    relation its parent holds is corruption), each delta's changed rows
    scatter over copies of the base matrices in order, and the kNN
    postings are rebuilt from every row's cell.  The result is a layer
    :func:`adopt_embedding_suite` and :func:`save_embeddings` take as is.
    """
    if not payloads:
        return base
    arrays = base.arrays
    vocab = {
        kind: unpack_strings(arrays[f"{kind}_blob"], arrays[f"{kind}_offsets"])
        for kind in ("entity", "relation")
    }
    held = {kind: set(names) for kind, names in vocab.items()}
    sizes = [len(vocab["entity"])]
    for payload in payloads:
        for kind, names in vocab.items():
            delta = payload.arrays
            for name in unpack_strings(delta[f"{kind}_blob"], delta[f"{kind}_offsets"]):
                if name in held[kind]:
                    raise StoreError(
                        f"corrupt embeddings delta at store version "
                        f"{payload.store_version}: re-adds {kind} {name!r} "
                        "(vocabulary ids are append-only)"
                    )
                held[kind].add(name)
                names.append(name)
        sizes.append(len(vocab["entity"]))

    def grown(name: str) -> np.ndarray:
        matrix = np.asarray(arrays[name])
        out = np.empty((sizes[-1], *matrix.shape[1:]), dtype=matrix.dtype)
        out[: sizes[0]] = matrix
        return out

    quantized = "knn_codes" in arrays
    scattered = ("entity_emb", "knn_rows", *(("knn_codes", "knn_scales") if quantized else ()))
    merged = {name: grown(name) for name in scattered}
    cells = np.full(sizes[-1], -1, dtype=np.int64)
    cells[: sizes[0]] = _cells(arrays, sizes[0])
    for payload, before, after in zip(payloads, sizes, sizes[1:]):
        delta = payload.arrays
        rows = np.asarray(delta["rows"])
        if (rows.size and not 0 <= rows.min() <= rows.max() < after) or not np.isin(
            np.arange(before, after), rows
        ).all():
            raise StoreError(
                f"corrupt embeddings delta at store version {payload.store_version}: "
                f"rows do not cover its {after - before} appended entities"
            )
        for name in scattered:
            merged[name][rows] = delta[name]
        cells[rows] = delta["knn_cells"]
    for kind, names in vocab.items():
        merged[f"{kind}_blob"], merged[f"{kind}_offsets"] = pack_strings(names)
    for name in ("relation_emb", "train_triples"):
        merged[name] = np.concatenate([arrays[name], *(p.arrays[name] for p in payloads)])
    merged["knn_centroids"] = arrays["knn_centroids"]
    merged.update(_postings(cells, len(arrays["knn_centroids"])))
    return LayerPayload(payloads[-1].store_version, merged, dict(base.extra))


def _embedded(store: TripleStore, entity: str) -> bool:
    """Whether ``entity`` is in an entity-valued fact: ``build_dataset``'s
    vocabulary rule, and the kNN postings' membership rule on a chain."""
    facts = itertools.chain(store.scan(subject=entity), store.scan(obj=entity))
    return any(fact.obj_kind is ObjectKind.ENTITY for fact in facts)


class EmbeddingDiff:
    """Row-sparse embedding deltas of a live store over its published tip.

    The update style of DGL's ``NodeEmbedding``: a generation never
    retrains.  It appends rows for its new entities and relations (sorted,
    after the tip's vocabulary, so ids are append-only), then runs
    :data:`DELTA_STEPS` ``contrastive_step`` passes over its entity-valued
    facts in which only those facts' entity rows move; relation rows and
    the calibration stay frozen.  Each changed row is re-filed under its
    nearest frozen IVF centroid.  An entity left with no entity-valued
    fact keeps its row but drops out of the kNN postings.

    The update is a pure function of the tip, the store's end state for
    the recorded keys and ``store_version`` (which seeds it with the
    recipe seed), so a chain's vectors equal a replay of its base plus its
    deltas.  The folded tip stays in memory and compaction saves it
    verbatim (:meth:`built`).
    """

    def __init__(self, store: TripleStore, tip: LayerPayload) -> None:
        self.store = store
        self.config = EmbeddingSuiteConfig(**tip.extra["recipe"])
        self._adopt(tip)
        self.known = KnownTriples(np.asarray(tip.arrays["train_triples"]))

    def _adopt(self, tip: LayerPayload) -> None:
        self.tip = tip
        arrays = tip.arrays
        self.entities = unpack_strings(arrays["entity_blob"], arrays["entity_offsets"])
        self.entity_index = {entity: row for row, entity in enumerate(self.entities)}
        relations = unpack_strings(arrays["relation_blob"], arrays["relation_offsets"])
        self.relation_index = {relation: row for row, relation in enumerate(relations)}

    def built(self) -> dict[str, Any]:
        """The :func:`~repro.kg.persistence.save_snapshot` keywords that
        carry the folded tip into a compacted base unchanged."""
        return {
            "embedding_suite": adopt_embedding_suite(self.store, self.tip, self.config),
            "embedding_config": self.config,
        }

    def diff(
        self, keys: list[tuple[str, str, str]], entities: list[str]
    ) -> tuple[LayerPayload, Callable[[], None]]:
        """The changed rows, appended vocabulary and appended training
        triples of the store's end state for ``keys``."""
        store, tip = self.store, self.tip.arrays
        version = store.version
        facts = [store.get(*key) for key in keys]
        positives = sorted(
            fact.key for fact in facts if fact is not None and fact.obj_kind is ObjectKind.ENTITY
        )
        named = {e for s, _, o in positives for e in (s, o)}
        new_entities = sorted(named - self.entity_index.keys())
        new_relations = sorted({p for _, p, _ in positives} - self.relation_index.keys())
        entity_of = ChainMap(
            {e: row for row, e in enumerate(new_entities, len(self.entities))}, self.entity_index
        )
        relation_of = ChainMap(
            {r: row for row, r in enumerate(new_relations, len(self.relation_index))},
            self.relation_index,
        )
        rng = substream(self.config.seed, "embeddings-delta", version)
        scale = ModelConfig().init_scale
        width = tip["entity_emb"].shape[1]
        entity_emb = np.concatenate(
            [tip["entity_emb"], rng.uniform(-scale, scale, (len(new_entities), width))]
        )
        relation_emb = np.concatenate(
            [tip["relation_emb"], rng.uniform(-scale, scale, (len(new_relations), width))]
        )
        triples = np.array(
            [(entity_of[s], relation_of[p], entity_of[o]) for s, p, o in positives],
            dtype=np.int64,
        ).reshape(-1, 3)
        trained = np.unique(triples[:, [0, 2]])
        if len(triples):
            self._train(entity_emb, relation_emb, triples, trained, rng)

        # Rows whose kNN membership flips without training: entities of
        # removed facts that now have no entity-valued fact, or back.
        cells = np.full(len(entity_emb), -1, dtype=np.int64)
        cells[: len(self.entities)] = _cells(tip, len(self.entities))
        touched = {e for s, _, o in keys for e in (s, o) if e in self.entity_index}
        flipped = [
            self.entity_index[e]
            for e in touched
            if (cells[self.entity_index[e]] >= 0) != (e in named or _embedded(store, e))
        ]
        rows = np.union1d(trained, np.asarray(flipped, dtype=np.int64))
        live = np.isin(rows, trained) | (cells[rows] < 0)
        unit = normalize_rows(entity_emb[rows]).astype(np.float32)
        nearest = np.argmax(unit @ np.asarray(tip["knn_centroids"]).T, axis=1)
        appended = triples[~self.known.contains(triples)]
        delta = {
            "rows": rows,
            "entity_emb": entity_emb[rows],
            "knn_rows": unit,
            "knn_cells": np.where(live, nearest, -1).astype(np.int64),
            "relation_emb": relation_emb[len(self.relation_index) :],
            "train_triples": appended,
        }
        delta["entity_blob"], delta["entity_offsets"] = pack_strings(new_entities)
        delta["relation_blob"], delta["relation_offsets"] = pack_strings(new_relations)
        if "knn_codes" in tip:
            from repro.ondevice.compression import int8_codes  # see IVFIndex.train

            delta["knn_codes"], scales = int8_codes(unit)
            delta["knn_scales"] = scales.astype(np.float32).ravel()
        payload = LayerPayload(version, delta, {})

        def commit() -> None:
            self._adopt(apply_embeddings(self.tip, [payload]))
            self.known.add(appended)

        return payload, commit

    def _train(
        self,
        entity_emb: np.ndarray,
        relation_emb: np.ndarray,
        positives: np.ndarray,
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """The seeded passes, in place on ``entity_emb``'s ``rows`` only."""
        config = self.config
        train = TrainConfig(
            model=config.model, dim=config.dim, epochs=config.epochs, seed=config.seed
        )
        model = adopt_model(
            config.model, entity_emb, relation_emb, ModelConfig(dim=config.dim, seed=config.seed)
        )
        trainable = np.zeros(len(entity_emb), dtype=bool)
        trainable[rows] = True
        entity_opt = AdaGrad(entity_emb.shape, train.learning_rate, trainable=trainable)
        relation_opt = AdaGrad(
            relation_emb.shape,
            train.learning_rate,
            trainable=np.zeros(len(relation_emb), dtype=bool),
        )
        sampler = NegativeSampler(
            num_entities=len(entity_emb),
            negatives_per_positive=train.negatives_per_positive,
            filtered=train.filtered_negatives,
            known=self.known,
            seed=int(rng.integers(2**62)),
        )
        for _ in range(DELTA_STEPS):
            contrastive_step(
                model, sampler, entity_opt, relation_opt, positives, train.l2_penalty
            )
        moved = adopt_model(config.model, entity_emb[rows], relation_emb, model.config)
        moved.normalize_entities()
        entity_emb[rows] = moved.entity_emb
