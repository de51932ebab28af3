"""Related entities: "people also searched for"-style recommendations.

Figure 2: querying LeBron James should surface Stephen Curry, Kobe Bryant
and Savannah James.  §2 describes two strategies, both implemented here:

* :class:`EmbeddingRelatedEntities` — generic KG embeddings + k-NN (the
  baseline: reuse the same vectors trained for ranking/verification);
* :class:`TraversalRelatedEntities` — *specialized* embeddings built from
  graph-engine pre-computed traversals: random walks → windowed
  co-occurrence counts → PPMI matrix → truncated SVD.  This is the
  "pre-compute graph traversals" approach the paper says it uses for the
  related-entities task specifically.

The traversal build never holds an n×n array.  After the walks, over n
entities whose walks co-occur in nnz distinct pairs:

* the window pairs of all walks are emitted with one array slice per
  offset and summed into COO counts by one sort of packed int64 keys;
* PPMI is computed on those nnz entries only (every other entry is 0);
* a seeded randomized range finder (Halko, Martinsson & Tropp 2011) keeps
  ``dim`` components; each sparse product is one ``np.bincount`` pass per
  column.

These steps take O(nnz·dim) time (plus O(n·dim²) for the QR steps and the
small exact SVD) and O(nnz + n·dim) memory.

The benchmark compares the two against generator ground truth — the paper's
claim is that the specialized pipeline wins on this task.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.common.rng import rng_from_seed
from repro.kg.graph_engine import GraphEngine
from repro.kg.store import TripleStore
from repro.vector.index import ExactIndex, SearchHit
from repro.vector.service import EmbeddingService
from repro.vector.similarity import normalize_rows


@dataclass
class RelatedEntity:
    """One related-entity suggestion."""

    entity: str
    score: float


class RelatedEntitiesBackend:
    """Interface: rank entities related to a seed entity."""

    def related(self, entity: str, k: int = 10) -> list[RelatedEntity]:
        raise NotImplementedError


class EmbeddingRelatedEntities(RelatedEntitiesBackend):
    """Baseline: k-NN over the general-purpose KG embeddings.

    Optionally restricts results to entities sharing a type with the seed
    (an assistant suggests people for people, not the city they were born
    in).
    """

    def __init__(
        self,
        service: EmbeddingService,
        store: TripleStore | None = None,
        same_type_only: bool = True,
    ) -> None:
        self.service = service
        self.store = store
        self.same_type_only = same_type_only and store is not None

    def related(self, entity: str, k: int = 10) -> list[RelatedEntity]:
        self.service.require_entity(entity)
        overfetch = k * 5 if self.same_type_only else k
        hits = self.service.knn(entity, k=overfetch)
        if self.same_type_only:
            hits = self._filter_by_type(entity, hits)
        return [RelatedEntity(entity=h.key, score=h.score) for h in hits[:k]]

    def _filter_by_type(self, entity: str, hits: list[SearchHit]) -> list[SearchHit]:
        assert self.store is not None
        if not self.store.has_entity(entity):
            return hits
        seed_types = set(self.store.entity(entity).types)
        if not seed_types:
            return hits
        kept = []
        for hit in hits:
            if not self.store.has_entity(hit.key):
                continue
            if seed_types & set(self.store.entity(hit.key).types):
                kept.append(hit)
        return kept


class TraversalRelatedEntities(RelatedEntitiesBackend):
    """Specialized related-entity embeddings from pre-computed traversals.

    Pipeline (all deterministic in ``seed``):

    1. the graph engine samples ``walks_per_entity`` random walks per seed
       entity (§2's pre-computed traversals);
    2. co-occurrences within a ``window`` of each walk are counted, as
       sparse COO arrays;
    3. the nonzero counts are reweighted with positive PMI;
    4. a randomized truncated SVD (seeded by ``seed``) yields
       ``dim``-dimensional vectors, indexed for k-NN.
    """

    def __init__(
        self,
        store: TripleStore,
        entities: list[str] | None = None,
        dim: int = 32,
        walk_length: int = 8,
        walks_per_entity: int = 6,
        window: int = 3,
        seed: int = 0,
        same_type_only: bool = True,
        engine: GraphEngine | None = None,
    ) -> None:
        self.store = store
        # A caller-supplied engine (e.g. a serving worker's, with an
        # mmap-adopted CSR snapshot) skips the adjacency rebuild the
        # default construction pays; walks are identical either way.
        self.engine = engine if engine is not None else GraphEngine(store)
        self.same_type_only = same_type_only
        self.entities = entities if entities is not None else sorted(store.entity_ids())
        self._index_of = {e: i for i, e in enumerate(self.entities)}
        self.dim = dim
        self._vectors = self._build(walk_length, walks_per_entity, window, seed, dim)
        self._knn = ExactIndex(metric="cosine")
        self._knn.add(self.entities, self._vectors)

    def _build(
        self, walk_length: int, walks_per_entity: int, window: int, seed: int, dim: int
    ) -> np.ndarray:
        rows, cols, values = self.ppmi(walk_length, walks_per_entity, window, seed)
        n = len(self.entities)
        if values.size == 0:
            return np.zeros((n, dim))
        # PPMI is symmetric (pairs are counted both ways), so the left
        # singular vectors suffice.
        u, s = randomized_svd(rows, cols, values, n, dim, seed)
        k = min(dim, len(s))
        vectors = u[:, :k] * np.sqrt(s[:k])
        if k < dim:
            vectors = np.pad(vectors, ((0, 0), (0, dim - k)))
        return normalize_rows(vectors)

    def ppmi(
        self, walk_length: int, walks_per_entity: int, window: int, seed: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positive PMI of the walks' windowed co-occurrences, as COO arrays.

        Returns ``(rows, cols, values)`` over local entity indices, one
        entry per co-occurring pair in row-major order; every other entry
        of the PPMI matrix is zero.
        """
        # Consume walks in encoded (dictionary-id) form straight from the
        # engine's CSR snapshot: snapshot ids translate to local row indices
        # through one flat table, with no string round-trip per step.
        walks, snapshot = self.engine.random_walks_ids(
            self.entities,
            walk_length=walk_length,
            walks_per_entity=walks_per_entity,
            seed=seed,
        )
        # The extra [-1] slot maps sentinel walks (seeds absent from the snapshot).
        local_of = np.full(len(snapshot.dictionary) + 1, -1, dtype=np.int64)
        for local, entity in enumerate(self.entities):
            node_id = snapshot.dictionary.get(entity)
            if node_id is not None:
                local_of[node_id] = local
        n = len(self.entities)
        rows, cols, counts = _cooccurrences(walks, local_of, n, window)
        total = counts.sum()
        row_sums = np.bincount(rows, weights=counts, minlength=n)
        col_sums = np.bincount(cols, weights=counts, minlength=n)
        expected = row_sums[rows] * col_sums[cols] / total
        return rows, cols, np.maximum(np.log(counts * total / np.maximum(expected, 1e-12)), 0.0)

    def vector(self, entity: str) -> np.ndarray:
        """Traversal-embedding of ``entity`` (zeros for unknown)."""
        index = self._index_of.get(entity)
        if index is None:
            return np.zeros(self.dim)
        return self._vectors[index].copy()

    def related(self, entity: str, k: int = 10) -> list[RelatedEntity]:
        if entity not in self._index_of:
            return []
        overfetch = k * 5 if self.same_type_only else k + 1
        hits = self._knn.search(self._vectors[self._index_of[entity]], overfetch)
        hits = [hit for hit in hits if hit.key != entity]
        if self.same_type_only and self.store.has_entity(entity):
            seed_types = set(self.store.entity(entity).types)
            hits = [
                hit
                for hit in hits
                if self.store.has_entity(hit.key)
                and seed_types & set(self.store.entity(hit.key).types)
            ]
        return [RelatedEntity(entity=h.key, score=h.score) for h in hits[:k]]


# Randomized range finder (Halko, Martinsson & Tropp 2011, Algorithms 4.4
# and 5.1): sketch with ``rank + OVERSAMPLE`` Gaussian columns, then refine
# with POWER_ITERATIONS rounds of A^T / A products, each re-orthonormalised
# by QR.  The PPMI spectrum is flat around rank 32 (s32/s33 ≈ 1.03 at scale
# 0.5), so few rounds leave the trailing components up to the sketch: over
# eight sketches, two rounds averaged below the exact SVD's p@10/r@10 at
# scales 0.5 and 1.  Five is the fewest that matched it both averaged over
# eight sketches at scales 0.5, 1 and 3 and over related seeds 0-3 at 0.5.
OVERSAMPLE = 10
POWER_ITERATIONS = 5


def _cooccurrences(
    walks: list[list[int]], local_of: np.ndarray, n: int, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windowed co-occurrence counts of the walks, as row-major COO arrays.

    Each walk keeps only its nodes with a local row (``local_of >= 0``);
    every pair of positions at most ``window`` apart in what is left counts
    once in each direction.
    """
    lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
    nodes = np.fromiter(
        itertools.chain.from_iterable(walks), dtype=np.int64, count=int(lengths.sum())
    )
    # All walks in one flat array, each node tagged with its walk: a pair
    # ``offset`` apart belongs to one walk iff both ends carry the same tag.
    local = local_of[nodes]
    kept = local >= 0
    local = local[kept]
    walk_of = np.repeat(np.arange(len(walks)), lengths)[kept]
    keys = [np.empty(0, dtype=np.int64)]
    for offset in range(1, window + 1):
        same = walk_of[:-offset] == walk_of[offset:]
        left, right = local[:-offset][same], local[offset:][same]
        keys += [left * n + right, right * n + left]
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    return pairs // n, pairs % n, counts.astype(np.float64)


def _spmm(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dense: np.ndarray
) -> np.ndarray:
    """``A @ dense`` for the square COO matrix ``A``; swap rows and cols for ``A.T``."""
    out = np.empty_like(dense)
    for j, column in enumerate(np.ascontiguousarray(dense.T)):  # contiguous gathers
        out[:, j] = np.bincount(rows, weights=values * column[cols], minlength=len(dense))
    return out


def randomized_svd(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int, rank: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leading left singular vectors and values of a sparse n×n COO matrix.

    Returns ``rank + OVERSAMPLE`` (at most ``n``) of each, largest first.
    Every product is O(nnz) per column, so the whole factorisation takes
    O(nnz·rank + n·rank²) time and O(nnz + n·rank) memory.  Deterministic
    in ``seed``.
    """
    width = min(rank + OVERSAMPLE, n)
    sketch = rng_from_seed(seed).standard_normal((n, width))
    basis, _ = np.linalg.qr(_spmm(rows, cols, values, sketch))
    for _ in range(POWER_ITERATIONS):
        basis, _ = np.linalg.qr(_spmm(cols, rows, values, basis))
        basis, _ = np.linalg.qr(_spmm(rows, cols, values, basis))
    # The small (width × n) projection basis^T A has an exact SVD whose
    # left factors, lifted back through the basis, are A's.
    small_u, s, _vt = np.linalg.svd(_spmm(cols, rows, values, basis).T, full_matrices=False)
    return basis @ small_u, s


@dataclass
class RelatednessReport:
    """Precision/recall of related-entity suggestions vs. ground truth."""

    precision_at_k: float
    recall_at_k: float
    k: int
    num_seeds: int


def evaluate_related(
    backend: RelatedEntitiesBackend,
    truth: dict[str, set[str]],
    k: int = 10,
    max_seeds: int | None = None,
) -> RelatednessReport:
    """Average precision/recall@k over seeds with non-empty truth sets."""
    precisions: list[float] = []
    recalls: list[float] = []
    seeds = sorted(entity for entity, related in truth.items() if related)
    if max_seeds is not None:
        seeds = seeds[:max_seeds]
    for entity in seeds:
        suggestions = backend.related(entity, k=k)
        if not suggestions:
            precisions.append(0.0)
            recalls.append(0.0)
            continue
        suggested = {item.entity for item in suggestions}
        relevant = truth[entity]
        overlap = len(suggested & relevant)
        precisions.append(overlap / len(suggested))
        recalls.append(overlap / len(relevant))
    return RelatednessReport(
        precision_at_k=float(np.mean(precisions)) if precisions else 0.0,
        recall_at_k=float(np.mean(recalls)) if recalls else 0.0,
        k=k,
        num_seeds=len(seeds),
    )
