"""Context embeddings via feature hashing.

§3: contextual disambiguation "can be achieved by computing embeddings on
the textual features of the KG entities (e.g., name, description,
popularity) and computing a similarity with the query embedding".

The encoder hashes content tokens into a fixed-dimension signed bag-of-
words vector (deterministic across processes — see
:func:`repro.common.rng.stable_hash`).  Token → (slot, sign) pairs are
memoised — the two SHA digests per token are paid once per distinct token,
not once per occurrence — and all mention windows of a document can be
encoded into one matrix with :meth:`HashingContextEncoder.encode_batch`.
Because each pre-normalisation vector is a sum of ±1 contributions (exact
in float64 regardless of accumulation order), batched encodings are
bitwise identical to one-at-a-time encodings.

Entity context vectors are built from the entity's description, type names
and neighbour names.  :class:`EntityContextIndex` keeps them in a growable
float64 row matrix keyed by a dense entity→row map — the columnar view the
batched reranker does its one-matmul scoring against — while the
low-latency KV store of §3.2 remains the persistence-facing view.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

import numpy as np

from repro.common.errors import StoreError
from repro.common.growable import GrowableMatrix
from repro.common.kvstore import KVStore, MemoryKVStore
from repro.common.rng import stable_hash
from repro.common.snapshot_io import (
    LayerPayload,
    load_arrays,
    pack_strings,
    unpack_strings,
    write_arrays,
)
from repro.common.text import content_tokens
from repro.kg.store import TripleStore
from repro.vector.similarity import normalize_rows


class HashingContextEncoder:
    """Signed feature-hashing text encoder (a fast linear 'model')."""

    def __init__(self, dim: int = 256) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._slot_sign: dict[str, tuple[int, float]] = {}

    # Open-ended web vocabularies must not grow encoder state without
    # bound; the memo is a pure function of the token, so a wholesale
    # drop only costs recomputation.
    _MEMO_LIMIT = 1_000_000

    def _feature(self, token: str) -> tuple[int, float]:
        """Memoised (slot, sign) of one token."""
        cached = self._slot_sign.get(token)
        if cached is None:
            slot = stable_hash(token, self.dim)
            sign = 1.0 if stable_hash("sign:" + token, 2) else -1.0
            cached = (slot, sign)
            if len(self._slot_sign) >= self._MEMO_LIMIT:
                self._slot_sign.clear()
            self._slot_sign[token] = cached
        return cached

    def encode_tokens(self, tokens: list[str]) -> np.ndarray:
        """Unit-norm hashed embedding of a token list (zeros when empty)."""
        vector = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            slot, sign = self._feature(token)
            vector[slot] += sign
        return normalize_rows(vector[None, :])[0]

    def encode_batch(self, token_lists: list[list[str]]) -> np.ndarray:
        """One unit-norm row per token list — bitwise equal to per-list
        :meth:`encode_tokens` (±1 accumulation is exact in float64)."""
        matrix = np.zeros((len(token_lists), self.dim), dtype=np.float64)
        for row, tokens in enumerate(token_lists):
            for token in tokens:
                slot, sign = self._feature(token)
                matrix[row, slot] += sign
        return normalize_rows(matrix)

    def encode_text(self, text: str) -> np.ndarray:
        """Hashed embedding of raw text (stopwords removed)."""
        return self.encode_tokens(content_tokens(text))


class EntityContextIndex:
    """Precomputed context embeddings of KG entities, stored columnar.

    The §3.2 price/performance optimisation: entity vectors are computed
    once per KG version and served from a dense row matrix; only the
    *query* side is embedded at annotation time.  The KV cache mirrors the
    matrix as the persistence-facing view (and absorbs vectors adopted
    from it on a row-map miss).  Rows are float64 on purpose: the batched
    reranker's scores are parity-checked against the scalar reference
    implementation, which never leaves float64.
    """

    def __init__(
        self,
        store: TripleStore,
        encoder: HashingContextEncoder | None = None,
        cache: KVStore | None = None,
        neighbor_limit: int = 16,
    ) -> None:
        self.store = store
        self.encoder = encoder or HashingContextEncoder()
        self.cache = cache or MemoryKVStore()
        self.neighbor_limit = neighbor_limit
        self._matrix = GrowableMatrix(dtype=np.float64)
        self._row_of: dict[str, int] = {}
        self._built_version = -1
        # Row adoption appends to the matrix and the row map as one unit;
        # concurrent misses from serving worker threads must not interleave
        # (two entities claiming the same row id corrupts the mapping).
        self._row_lock = threading.RLock()

    def build(self) -> int:
        """(Re)compute vectors for every entity; returns count built."""
        self._matrix.clear()
        self._row_of = {}
        count = 0
        for record in self.store.entities():
            vector = self._compute(record.entity)
            self._adopt(record.entity, vector)
            self.cache.put(record.entity, vector)
            count += 1
        self._built_version = self.store.version
        return count

    @property
    def is_stale(self) -> bool:
        """True when the store changed since the last build."""
        return self._built_version != self.store.version

    def adopt(
        self, matrix: np.ndarray, entities: list[str], built_version: int
    ) -> bool:
        """Adopt a persisted (matrix, row-order entities) pair; True on success.

        Adoption only succeeds when ``built_version`` equals the store's
        current version — the same adopt-or-rebuild contract as
        :meth:`AdjacencyIndex.adopt`.  The matrix is served zero-copy
        (it may be a read-only mmap); vectors appended afterwards —
        entities interned after the load — copy into a writable buffer
        on first growth, never into the mapped base.
        """
        if built_version != self.store.version:
            return False
        if matrix.ndim != 2 or matrix.shape[0] != len(entities):
            raise StoreError(
                f"context snapshot shape {matrix.shape} does not match "
                f"{len(entities)} row entities"
            )
        self._matrix = GrowableMatrix(dtype=matrix.dtype)
        if len(entities):
            self._matrix.adopt(matrix)
        self._row_of = {entity: row for row, entity in enumerate(entities)}
        if len(self._row_of) != len(entities):
            raise StoreError("corrupt context snapshot: duplicate row entities")
        self._built_version = built_version
        return True

    def row_entities(self) -> list[str]:
        """Entities in row order (the inverse of the entity→row map)."""
        ordered: list[str] = [""] * len(self._row_of)
        for entity, row in self._row_of.items():
            ordered[row] = entity
        return ordered

    def clear(self) -> None:
        """Forget all vectors (rows and KV mirror); the index reads cold."""
        self._matrix.clear()
        self._row_of = {}
        self.cache.clear()
        self._built_version = -1

    def __len__(self) -> int:
        return len(self._row_of)

    def _adopt(self, entity: str, vector: np.ndarray) -> int:
        """Append ``vector`` as ``entity``'s row; returns the row id.

        The row map entry is published *last*: :meth:`_row`'s lock-free
        fast path treats its presence as "the matrix row exists", so the
        append must complete first.
        """
        row = len(self._row_of)
        self._matrix.append(vector)
        self._row_of[entity] = row
        return row

    def _row(self, entity: str) -> int:
        """Row id of ``entity``, materialising a vector on miss.

        Miss order mirrors the historical KV lookup: a vector already in
        the cache (e.g. written before a rebuild) is adopted as-is;
        otherwise one is computed from the live store and persisted.
        """
        row = self._row_of.get(entity)
        if row is not None:
            return row
        with self._row_lock:
            row = self._row_of.get(entity)
            if row is not None:
                return row
            vector = self.cache.get(entity)
            if vector is None:
                vector = self._compute(entity)
                self.cache.put(entity, vector)
            return self._adopt(entity, np.asarray(vector, dtype=np.float64))

    def vector(self, entity: str) -> np.ndarray:
        """Context vector of ``entity`` (computed and adopted on miss)."""
        row = self._row(entity)
        return self._matrix.view()[row]

    def rows(self, entities: list[str]) -> np.ndarray:
        """Context vectors of ``entities`` as one (len, dim) matrix."""
        if not entities:
            return np.zeros((0, self.encoder.dim), dtype=np.float64)
        row_of = self._row_of
        for entity in entities:
            if entity not in row_of:
                self._row(entity)
        index = np.array([row_of[entity] for entity in entities], dtype=np.intp)
        return self._matrix.view()[index]

    def _compute(self, entity: str) -> np.ndarray:
        """Description + type names + neighbour names, hashed."""
        if not self.store.has_entity(entity):
            return np.zeros(self.encoder.dim)
        record = self.store.entity(entity)
        tokens = content_tokens(record.description)
        for type_id in record.types:
            tokens.extend(type_id.split(":")[-1].split("_"))
        neighbors = sorted(self.store.neighbors(entity))[: self.neighbor_limit]
        for neighbor in neighbors:
            if self.store.has_entity(neighbor):
                tokens.extend(content_tokens(self.store.entity(neighbor).name))
        return self.encoder.encode_tokens(tokens)

    def similarity(self, query_vector: np.ndarray, entity: str) -> float:
        """Cosine between a query vector and an entity's context vector."""
        entity_vector = self.vector(entity)
        return float(np.dot(query_vector, entity_vector))


def save_context_index(index: EntityContextIndex, directory: str | Path) -> dict:
    """Persist an index's row matrix + entity→row map; returns the manifest.

    The index must be fresh (``not index.is_stale``) — persisting a stale
    matrix would stamp the wrong ``store_version`` into the manifest.
    Layout: ``matrix`` (float64 rows), ``entity_blob``/``entity_offsets``
    (row-order entity ids); ``extra`` records the encoder dimension so a
    load can refuse a mismatched encoder.
    """
    if index.is_stale:
        raise StoreError("refusing to persist a stale context index")
    blob, offsets = pack_strings(index.row_entities())
    return write_arrays(
        directory,
        {
            "matrix": index._matrix.view()
            if len(index)
            else np.zeros((0, index.encoder.dim), dtype=np.float64),
            "entity_blob": blob,
            "entity_offsets": offsets,
        },
        kind="context",
        store_version=index._built_version,
        extra={"dim": index.encoder.dim, "neighbor_limit": index.neighbor_limit},
    )


def load_context_arrays(
    directory: str | Path,
    *,
    expected_store_version: int | None = None,
    mmap: bool = True,
    verify: bool = True,
) -> tuple[np.ndarray, list[str], int, dict]:
    """Load a context snapshot: (matrix, row entities, built_version, extra).

    The matrix stays memory-mapped read-only; feed the result to
    :meth:`EntityContextIndex.adopt`.  Raises :class:`StoreError` on
    corruption, :class:`SnapshotStaleError` on a version mismatch.
    """
    manifest, arrays = load_arrays(
        directory,
        kind="context",
        expected_store_version=expected_store_version,
        mmap=mmap,
        verify=verify,
    )
    entities = unpack_strings(arrays["entity_blob"], arrays["entity_offsets"])
    matrix = arrays["matrix"]
    if matrix.shape[0] != len(entities):
        raise StoreError(
            f"corrupt context snapshot {directory}: {matrix.shape[0]} rows "
            f"for {len(entities)} entities"
        )
    return matrix, entities, int(manifest["store_version"]), manifest["extra"]


def apply_context(base: tuple, payloads: list[LayerPayload]) -> tuple:
    """Merge delta context rows over a loaded base; stamped at the tip.

    ``base`` and the result are :func:`load_context_arrays` tuples.
    Existing entities' rows are overwritten; new entities append in chain
    order (matching the store's entity insertion order).
    """
    if not payloads:
        return base
    matrix, entities, _version, extra = base
    dim = matrix.shape[1] if matrix.size else int(extra.get("dim", 0))
    row_of = {entity: row for row, entity in enumerate(entities)}
    entities = list(entities)
    updates = []
    for payload in payloads:
        names = unpack_strings(payload.arrays["entity_blob"], payload.arrays["entity_offsets"])
        vectors = payload.arrays["matrix"]
        if vectors.shape[0] != len(names) or (vectors.size and vectors.shape[1] != dim):
            raise StoreError(
                f"corrupt context delta: rows {vectors.shape} for {len(names)} "
                f"entities of dim {dim}"
            )
        for name in names:
            if name not in row_of:
                row_of[name] = len(entities)
                entities.append(name)
        updates.append(([row_of[name] for name in names], vectors))
    merged = np.empty((len(entities), dim), dtype=np.float64)
    merged[: len(matrix)] = matrix
    for rows, vectors in updates:
        merged[rows] = vectors
    return merged, entities, payloads[-1].store_version, dict(extra)


class ContextDiff:
    """Computes a live store's context-row deltas with the tip's recipe."""

    def __init__(self, store: TripleStore, tip: tuple) -> None:
        extra = tip[3]
        self.index = EntityContextIndex(
            store,
            encoder=HashingContextEncoder(int(extra.get("dim", 256))),
            neighbor_limit=int(extra.get("neighbor_limit", 16)),
        )

    def diff(
        self, keys: list[tuple[str, str, str]], entities: list[str]
    ) -> tuple[LayerPayload, Callable[[], None]]:
        """Rows of every entity whose vector inputs may have moved."""
        store = self.index.store
        affected: dict[str, None] = {}
        for subject, _predicate, obj in keys:
            if store.has_entity(subject):
                affected[subject] = None
            if store.has_entity(obj):
                affected[obj] = None
        for entity in entities:
            if store.has_entity(entity):
                affected[entity] = None
                # A record change can alter neighbours' vectors (their
                # neighbour-name tokens); conservatively recompute all.
                for neighbor in store.neighbors(entity):
                    if store.has_entity(neighbor):
                        affected[neighbor] = None
        rows = list(affected)
        matrix = (
            np.stack([self.index._compute(entity) for entity in rows])
            if rows
            else np.zeros((0, self.index.encoder.dim), dtype=np.float64)
        )
        blob, offsets = pack_strings(rows)
        arrays = {"matrix": matrix, "entity_blob": blob, "entity_offsets": offsets}
        return LayerPayload(store.version, arrays, {}), lambda: None
