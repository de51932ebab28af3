"""Graph Query Engine: traversals over a CSR snapshot of the store.

This is the computational layer the paper's embedding pipeline sits on
(Figure 3): it serves the neighbourhood reads and the *pre-computed graph
traversals* (random walks) that power the specialized related-entities
embeddings (§2: "we use the scalable graph processing capabilities of our
graph engine to pre-compute graph traversals").

Traversals run over a dictionary-encoded CSR snapshot of the store
(:mod:`repro.kg.adjacency`), rebuilt lazily when ``TripleStore.version``
moves.  A walk step is an O(1) row lookup plus one bounded RNG draw; results
are byte-identical to the historical set-based traversals (rows are
pre-sorted by neighbor string, and draws replay ``Generator.integers``
exactly via :mod:`repro.common.fastrand`).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from repro.common import fastrand
from repro.common.fastrand import MASK32, refill_halves
from repro.common.rng import substream
from repro.kg.adjacency import AdjacencyIndex, CSRAdjacency
from repro.kg.store import TripleStore


class GraphEngine:
    """Query/traversal operations over a :class:`TripleStore`."""

    def __init__(self, store: TripleStore, snapshot: CSRAdjacency | None = None) -> None:
        self.store = store
        self._adjacency = AdjacencyIndex(store)
        if snapshot is not None:
            self._adjacency.adopt(snapshot)

    def snapshot(self) -> CSRAdjacency:
        """The current CSR adjacency snapshot (rebuilt when the store moved)."""
        return self._adjacency.current()

    def adopt_snapshot(self, snapshot: CSRAdjacency) -> bool:
        """Adopt a pre-built (e.g. mmap-loaded) CSR snapshot; True on success.

        Only a snapshot built at the store's current version is adopted —
        anything else is ignored and traversals rebuild lazily, the
        standard adopt-or-rebuild contract.
        """
        return self._adjacency.adopt(snapshot)

    # -- traversals -------------------------------------------------------------

    def neighborhood(self, entity: str, hops: int = 1) -> set[str]:
        """Entities within ``hops`` undirected steps of ``entity``.

        The seed entity itself is excluded from the result.
        """
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        snapshot = self.snapshot()
        node_id = snapshot.dictionary.get(entity)
        if node_id is None:
            return set()
        # Frontier expansion via set.update over pre-sliced id rows: the
        # C-level union beats per-node Python neighbor rebuilds and, at
        # moderate frontier sizes, numpy's fixed per-hop costs too.
        id_rows = snapshot.neighbor_id_rows()
        visited = {node_id}
        frontier: tuple[int, ...] = (node_id,)
        for _ in range(hops):
            if not frontier:
                break
            expanded: set[int] = set()
            update = expanded.update
            for node in frontier:
                update(id_rows[node])
            expanded -= visited
            visited |= expanded
            frontier = tuple(expanded)
        visited.discard(node_id)
        strings = snapshot.dictionary._strings_view()
        return {strings[i] for i in visited}

    def random_walks_ids(
        self,
        entities: list[str],
        walk_length: int = 8,
        walks_per_entity: int = 4,
        seed: int = 0,
    ) -> tuple[list[list[int]], CSRAdjacency]:
        """Random walks in encoded (dictionary-id) form, plus their snapshot.

        A seed entity absent from the snapshot dictionary yields the
        sentinel walk ``[-1]`` (it has no edges by construction).  Walks are
        grouped ``walks_per_entity`` at a time in ``entities`` order —
        exactly the layout :meth:`random_walks` decodes.
        """
        snapshot = self.snapshot()
        rng = substream(seed, "random-walks")
        steps = walk_length - 1
        if fastrand.lemire_matches_numpy():
            walks = _walks_lemire(snapshot, entities, steps, walks_per_entity, rng)
        else:
            walks = _walks_generator(snapshot, entities, steps, walks_per_entity, rng)
        return walks, snapshot

    def random_walks(
        self,
        entities: list[str],
        walk_length: int = 8,
        walks_per_entity: int = 4,
        seed: int = 0,
    ) -> list[list[str]]:
        """Pre-computed random walks over the entity graph.

        Walks are the traversal samples the related-entities embedding
        consumes; dead ends truncate a walk early.  Deterministic per seed.
        """
        encoded, snapshot = self.random_walks_ids(
            entities, walk_length=walk_length, walks_per_entity=walks_per_entity, seed=seed
        )
        strings = snapshot.dictionary._strings_view()
        walks: list[list[str]] = []
        cursor = 0
        for entity in entities:
            for _ in range(walks_per_entity):
                walk = encoded[cursor]
                cursor += 1
                if walk[0] < 0:
                    walks.append([entity])
                else:
                    walks.append([strings[node] for node in walk])
        return walks

    def co_neighbor_counts(self, entity: str) -> dict[str, int]:
        """For each other entity, the number of shared neighbors with ``entity``.

        Used as ground truth for the related-entities evaluation: LeBron and
        Curry share awards/teams, LeBron and a random city share nothing.
        """
        snapshot = self._adjacency.current()
        # Pre-grouped second-hop rows make this a dict lookup plus one
        # C-level Counter pass over decoded strings (no per-query id->string
        # decode); the seed itself is popped afterwards, matching the
        # historical "skip self" filter.
        rows = snapshot.second_hop_string_rows().get(entity)
        if not rows:
            return {}
        counts: Counter[str] = Counter(chain.from_iterable(rows))
        counts.pop(entity, None)
        return counts


def _walks_lemire(
    snapshot: CSRAdjacency,
    entities: list[str],
    steps: int,
    walks_per_entity: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Walk sampler with inlined Lemire draws over the raw PCG64 stream.

    The inner loop replays ``rng.integers(degree)`` bit-for-bit — it is a
    hand-inlined copy of :meth:`fastrand.Lemire32.randbelow` (same buffer
    via :func:`fastrand.refill_halves`, same multiply-shift/threshold
    arithmetic) kept in lockstep because a method call per step would cost
    more than the step itself.  ``test_walks_byte_identical_to_reference``
    pins this copy against the real ``Generator.integers``.
    """
    rows = snapshot.neighbor_id_rows()
    id_of = snapshot.dictionary.get
    walks: list[list[int]] = []
    half: list[int] = []
    position = 0
    limit = 0
    for entity in entities:
        start = id_of(entity)
        for _ in range(walks_per_entity):
            if start is None:
                walks.append([-1])
                continue
            current = start
            walk = [current]
            append = walk.append
            for _ in range(steps):
                row = rows[current]
                degree = len(row)
                if degree == 0:
                    break
                if degree == 1:
                    # integers(1) consumes no bits and returns 0.
                    current = row[0]
                else:
                    if position >= limit:
                        half = refill_halves(rng)
                        position = 0
                        limit = len(half)
                    m = half[position] * degree
                    position += 1
                    leftover = m & MASK32
                    if leftover < degree:
                        threshold = (4294967296 - degree) % degree
                        while leftover < threshold:
                            if position >= limit:
                                half = refill_halves(rng)
                                position = 0
                                limit = len(half)
                            m = half[position] * degree
                            position += 1
                            leftover = m & MASK32
                    current = row[m >> 32]
                append(current)
            walks.append(walk)
    return walks


def _walks_generator(
    snapshot: CSRAdjacency,
    entities: list[str],
    steps: int,
    walks_per_entity: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Fallback walk sampler: one ``Generator.integers`` call per step.

    Used when this NumPy's bounded-integer algorithm differs from the
    Lemire replication — slower but still CSR-based and byte-identical.
    Unlike the Lemire loop, degree-1 nodes still call ``integers(1)``:
    whether that call consumes stream bits is exactly the implementation
    detail this fallback refuses to assume, and the historical code drew
    unconditionally.
    """
    rows = snapshot.neighbor_id_rows()
    id_of = snapshot.dictionary.get
    integers = rng.integers
    walks: list[list[int]] = []
    for entity in entities:
        start = id_of(entity)
        for _ in range(walks_per_entity):
            if start is None:
                walks.append([-1])
                continue
            current = start
            walk = [current]
            append = walk.append
            for _ in range(steps):
                row = rows[current]
                degree = len(row)
                if degree == 0:
                    break
                current = row[int(integers(degree))]
                append(current)
            walks.append(walk)
    return walks
