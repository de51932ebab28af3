"""Versioned CSR adjacency snapshots over a :class:`TripleStore`.

The graph engine's traversal hot paths (walks, k-hop neighborhoods,
co-neighbor counts) used to rebuild and re-sort Python neighbor sets at
every step.  A :class:`CSRAdjacency` snapshot pays that cost once: node
strings are dictionary-encoded (:mod:`repro.kg.encoding`) and the undirected
neighbor lists are laid out in two flat arrays —

* ``indptr`` (int64, length ``num_nodes + 1``): row offsets;
* ``indices`` (int32): neighbor ids, each row pre-sorted by neighbor
  *string* so ``indices[indptr[v]:indptr[v+1]]`` is exactly
  ``sorted(store.neighbors(v))`` in encoded form.

Sorting by decoded string (not by id) is what keeps random walks
byte-identical to the set-based implementation: the walk picks
``sorted(neighbors)[draw]`` and CSR rows preserve that order.

Neighbor semantics replicate :meth:`TripleStore.neighbors` for *every* node
string: a fact ``(s, p, o)`` contributes ``s -> o`` only when the object is
an entity, but ``o -> s`` always (the OSP index answers "who points at me"
regardless of object kind), with self-loops dropped and duplicates merged.

Snapshots are immutable; :class:`AdjacencyIndex` caches the latest one and
rebuilds when ``TripleStore.version`` moves — the same invalidation contract
``AliasTable.refresh`` uses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.common.errors import StoreError
from repro.common.snapshot_io import (
    LayerPayload,
    load_arrays,
    pack_strings,
    unpack_strings,
    write_arrays,
)
from repro.kg.encoding import Dictionary
from repro.kg.store import TripleStore
from repro.kg.triple import ObjectKind


@dataclass
class CSRAdjacency:
    """One immutable adjacency snapshot of a store version."""

    dictionary: Dictionary
    indptr: np.ndarray  # int64, shape (num_nodes + 1,)
    indices: np.ndarray  # int32, row-sorted by neighbor string
    built_version: int
    # Python-list mirrors of the rows, materialised lazily for the walk and
    # neighbourhood loops, where list indexing beats numpy scalar indexing
    # ~3x.  One id mirror per snapshot: walks read ``rows[v]``, ``len(row)``
    # and ``row[draw]`` from the same lists neighbourhoods expand, and a
    # tenant overlay view shares every row its tenant did not touch.  First
    # materialisation is guarded by ``_derive_lock``: snapshots are shared
    # read-only across serving worker threads.  Reads stay lock-free — each
    # cache is published with a single reference assignment only after it
    # is fully built.
    _neighbor_strings: list[list[str]] | None = field(default=None, repr=False)
    _neighbor_ids: list[list[int]] | None = field(default=None, repr=False)
    _second_hop_rows: dict[str, list[list[str]]] | None = field(default=None, repr=False)
    _derive_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Directed (deduplicated) adjacency entries."""
        return len(self.indices)

    def neighbors_of(self, node_id: int) -> np.ndarray:
        """Encoded neighbors of ``node_id``, sorted by decoded string."""
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def neighbors(self, node: str) -> set[str]:
        """Decoded neighbor set of ``node`` (empty for unknown nodes)."""
        node_id = self.dictionary.get(node)
        if node_id is None:
            return set()
        strings = self.dictionary._strings_view()
        return {strings[i] for i in self.neighbors_of(node_id).tolist()}

    def neighbor_string_rows(self) -> list[list[str]]:
        """Per-node decoded neighbor lists (row order), built once per snapshot.

        Lets co-neighbor counting emit string keys with no per-query decode
        pass; rows alias the dictionary's string objects, so hashing them is
        cached-hash cheap.
        """
        if self._neighbor_strings is None:
            with self._derive_lock:
                if self._neighbor_strings is None:
                    id_rows = self.neighbor_id_rows()
                    strings = self.dictionary._strings_view()
                    self._neighbor_strings = [
                        [strings[i] for i in row] for row in id_rows
                    ]
        return self._neighbor_strings

    def neighbor_id_rows(self) -> list[list[int]]:
        """Per-node encoded neighbor lists (row order), built once per snapshot."""
        if self._neighbor_ids is None:
            with self._derive_lock:
                if self._neighbor_ids is None:
                    indices = self.indices.tolist()
                    bounds = self.indptr.tolist()
                    self._neighbor_ids = [
                        indices[start:stop] for start, stop in zip(bounds, bounds[1:])
                    ]
        return self._neighbor_ids

    def second_hop_string_rows(self) -> dict[str, list[list[str]]]:
        """node string -> its neighbors' decoded neighbor rows, one per neighbor.

        The co-neighbor hot path reduces to one dict lookup plus a C-level
        count over these pre-grouped rows.  Rows are shared references into
        :meth:`neighbor_string_rows`, so the grouping costs O(edges) pointers.
        """
        if self._second_hop_rows is None:
            with self._derive_lock:
                if self._second_hop_rows is None:
                    string_rows = self.neighbor_string_rows()
                    id_rows = self.neighbor_id_rows()
                    rows_at = string_rows.__getitem__
                    self._second_hop_rows = {
                        node: [rows_at(v) for v in row]
                        for node, row in zip(self.dictionary._strings_view(), id_rows)
                    }
        return self._second_hop_rows



def save_adjacency(snapshot: CSRAdjacency, directory: str | Path) -> dict:
    """Persist a CSR snapshot as flat arrays + manifest; returns the manifest.

    Layout (all ``.npy``): ``indptr``, ``indices``, plus the embedded
    dictionary as ``dict_blob``/``dict_offsets``; ``store_version`` records
    :attr:`CSRAdjacency.built_version` — the invalidation token adoption
    checks against.
    """
    blob, offsets = snapshot.dictionary.to_arrays()
    return write_arrays(
        directory,
        {
            "indptr": snapshot.indptr,
            "indices": snapshot.indices,
            "dict_blob": blob,
            "dict_offsets": offsets,
        },
        kind="adjacency",
        store_version=snapshot.built_version,
    )


def load_adjacency(
    directory: str | Path,
    *,
    expected_store_version: int | None = None,
    mmap: bool = True,
    verify: bool = True,
) -> CSRAdjacency:
    """Load a snapshot written by :func:`save_adjacency` (mmap by default).

    ``indptr``/``indices`` stay memory-mapped and read-only; only the
    dictionary materialises Python-side state.  A layer that lists more
    arrays (older layers carried a per-node degree column) still loads:
    the manifest checksums every listed array and only these are read.  Raises
    :class:`StoreError` on corruption and :class:`SnapshotStaleError` when
    ``expected_store_version`` doesn't match the manifest.
    """
    manifest, arrays = load_arrays(
        directory,
        kind="adjacency",
        expected_store_version=expected_store_version,
        mmap=mmap,
        verify=verify,
    )
    dictionary = Dictionary.from_arrays(arrays["dict_blob"], arrays["dict_offsets"])
    indptr = arrays["indptr"]
    if len(indptr) != len(dictionary) + 1:
        raise StoreError(
            f"corrupt adjacency snapshot {directory}: indptr rows "
            f"{len(indptr) - 1} != dictionary size {len(dictionary)}"
        )
    return CSRAdjacency(
        dictionary=dictionary,
        indptr=indptr,
        indices=arrays["indices"],
        built_version=int(manifest["store_version"]),
    )


@dataclass
class AdjacencyDelta:
    """One generation's adjacency diff over a parent CSR.

    ``rows`` holds ``(node id, replacement row)`` in the *merged*
    dictionary space of this generation — the parent's ids plus
    ``new_strings`` appended in order.  Append-only ids make those
    references stable at every later generation.  Arrays and ``extra``
    keys beyond these (older deltas carried per-row degrees and predicate
    counts) are checksummed on load and otherwise ignored.
    """

    store_version: int
    parent_version: int
    new_strings: list[str]
    rows: list[tuple[int, np.ndarray]]

    def to_payload(self) -> LayerPayload:
        new_blob, new_offsets = pack_strings(self.new_strings)
        row_offsets = np.zeros(len(self.rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for _, row in self.rows], out=row_offsets[1:])
        arrays = {
            "new_blob": new_blob,
            "new_offsets": new_offsets,
            "changed_nodes": np.asarray([n for n, _ in self.rows], dtype=np.int64),
            "row_offsets": row_offsets,
            "row_indices": np.concatenate(
                [np.empty(0, dtype=np.int32)] + [row for _, row in self.rows]
            ).astype(np.int32),
        }
        return LayerPayload(self.store_version, arrays, {"parent_version": self.parent_version})

    @classmethod
    def from_payload(cls, payload: LayerPayload) -> "AdjacencyDelta":
        arrays = payload.arrays
        nodes = arrays["changed_nodes"].tolist()
        offsets = arrays["row_offsets"]
        if len(offsets) != len(nodes) + 1:
            raise StoreError("corrupt adjacency delta: row arrays do not line up")
        rows = [
            (node, arrays["row_indices"][offsets[i] : offsets[i + 1]])
            for i, node in enumerate(nodes)
        ]
        return cls(
            store_version=payload.store_version,
            parent_version=int(payload.extra["parent_version"]),
            new_strings=unpack_strings(arrays["new_blob"], arrays["new_offsets"]),
            rows=rows,
        )


def apply_adjacency(base: CSRAdjacency, payloads: list[LayerPayload]) -> CSRAdjacency:
    """Splice ordered adjacency deltas over ``base``; stamped at the tip.

    The splice is O(changed) Python pieces: unchanged base rows copy
    wholesale as contiguous segments between changed rows, changed and
    new rows drop into their slots, and ``indptr`` is one cumsum.  The
    base is shared and never mutated.
    """
    if not payloads:
        return base
    previous = base.built_version
    changed: dict[int, np.ndarray] = {}
    dictionary = Dictionary(base.dictionary._strings_view())
    appended = 0
    for payload in payloads:
        delta = AdjacencyDelta.from_payload(payload)
        if delta.parent_version != previous:
            raise StoreError(
                f"adjacency delta built on parent {delta.parent_version}, "
                f"previous generation is {previous}"
            )
        previous = delta.store_version
        for string in delta.new_strings:
            dictionary.intern(string)
        appended += len(delta.new_strings)
        for node, row in delta.rows:
            changed[node] = row
    base_n = base.num_nodes
    total_n = base_n + appended
    if len(dictionary) != total_n:
        raise StoreError("corrupt delta chain: re-appended strings (ids are append-only)")
    if changed and max(changed) >= total_n:
        raise StoreError(
            f"corrupt delta chain: changed node id {max(changed)} "
            f"outside merged dictionary of {total_n} nodes"
        )

    lengths = np.zeros(total_n, dtype=np.int64)
    lengths[:base_n] = np.diff(base.indptr)
    for node, row in changed.items():
        lengths[node] = len(row)
    indptr = np.zeros(total_n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])

    pieces: list[np.ndarray] = []
    cursor = 0
    for node in sorted(n for n in changed if n < base_n):
        pieces.append(base.indices[base.indptr[cursor] : base.indptr[node]])
        pieces.append(changed[node])
        cursor = node + 1
    pieces.append(base.indices[base.indptr[cursor] :])
    # Rows past the base are either changed (spliced here, ascending id
    # order matches the indptr layout) or empty.
    for node in sorted(n for n in changed if n >= base_n):
        pieces.append(changed[node])
    indices = np.concatenate(pieces).astype(np.int32)
    if len(indices) != indptr[-1]:
        raise StoreError("corrupt delta chain: spliced rows do not fill indptr")
    if indices.size and int(indices.max()) >= total_n:
        raise StoreError("corrupt delta chain: row references unknown node id")
    return CSRAdjacency(
        dictionary=dictionary,
        indptr=indptr,
        indices=indices,
        built_version=previous,
    )


class AdjacencyDiff:
    """Computes a live store's adjacency deltas over its published tip.

    Owns the tip's dictionary (interning into it on :meth:`diff`'s
    commit), so only the touched rows are recomputed per generation.
    """

    def __init__(self, store: TripleStore, tip: CSRAdjacency) -> None:
        self.store = store
        self.dictionary = tip.dictionary
        self.version = tip.built_version

    def diff(
        self, keys: list[tuple[str, str, str]], entities: list[str]
    ) -> tuple[LayerPayload, Callable[[], None]]:
        """Recompute the touched rows in the merged id space."""
        store = self.store
        dictionary = self.dictionary
        affected: dict[str, None] = {}
        for entity in entities:
            if entity not in dictionary:
                affected[entity] = None  # new catalogued entities get rows
        for subject, _predicate, obj in keys:
            affected[subject] = None
            affected[obj] = None
        appended: dict[str, int] = {}  # new strings -> ids, in id order

        def node_id(string: str) -> int:
            known = dictionary.get(string)
            if known is None:
                known = appended.setdefault(string, len(dictionary) + len(appended))
            return known

        for node in affected:
            node_id(node)
        rows = []
        for node in affected:
            row = [node_id(n) for n in sorted(store.neighbors(node))]
            rows.append((node_id(node), np.asarray(row, dtype=np.int32)))
        version = store.version
        new_strings = list(appended)
        delta = AdjacencyDelta(version, self.version, new_strings, rows)

        def commit() -> None:
            for string in new_strings:
                dictionary.intern(string)
            self.version = version

        return delta.to_payload(), commit


def build_csr(store: TripleStore) -> CSRAdjacency:
    """Build a :class:`CSRAdjacency` snapshot from the store's current state."""
    version = store.version
    dictionary = Dictionary()
    intern = dictionary.intern
    # Entities with descriptors get rows even when isolated, so traversal
    # code can encode any catalogued entity without a membership dance.
    for entity in store.entity_ids():
        intern(entity)

    sources: list[int] = []
    targets: list[int] = []
    entity_kind = ObjectKind.ENTITY
    for fact in store.scan():
        subject_id = intern(fact.subject)
        object_id = intern(fact.obj)
        if fact.obj_kind is entity_kind:
            sources.append(subject_id)
            targets.append(object_id)
        sources.append(object_id)
        targets.append(subject_id)

    num_nodes = len(dictionary)
    if not sources:
        return CSRAdjacency(
            dictionary=dictionary,
            indptr=np.zeros(num_nodes + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int32),
            built_version=version,
        )

    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    keep = src != dst  # neighbors() discards self
    src, dst = src[keep], dst[keep]

    # Rank nodes by string so each CSR row comes out in sorted-string order.
    strings = dictionary._strings_view()
    order = sorted(range(num_nodes), key=strings.__getitem__)
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[order] = np.arange(num_nodes, dtype=np.int64)
    id_at_rank = np.asarray(order, dtype=np.int64)

    # One flat sort deduplicates and orders every row at once: the composite
    # key (source, rank(target)) is unique per directed edge.
    composite = src * num_nodes + rank[dst]
    composite = np.unique(composite)
    src = composite // num_nodes
    dst = id_at_rank[composite % num_nodes]

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return CSRAdjacency(
        dictionary=dictionary,
        indptr=indptr,
        indices=dst.astype(np.int32),
        built_version=version,
    )


class AdjacencyIndex:
    """Version-cached CSR snapshot of one store.

    ``current()`` is cheap when the store hasn't moved and rebuilds the
    snapshot otherwise — mirroring :meth:`AliasTable.refresh`.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self._snapshot: CSRAdjacency | None = None
        self.rebuild_count = 0
        self._rebuild_lock = threading.Lock()

    @property
    def is_stale(self) -> bool:
        """True when no snapshot exists or the store version moved."""
        return self._snapshot is None or self._snapshot.built_version != self.store.version

    def current(self) -> CSRAdjacency:
        """The up-to-date snapshot, rebuilding first when stale.

        The rebuild is lock-guarded: concurrent in-process readers of one
        engine must never observe a half-published snapshot or rebuild the
        CSR twice for the same version move.
        """
        snapshot = self._snapshot
        if snapshot is not None and snapshot.built_version == self.store.version:
            return snapshot
        with self._rebuild_lock:
            if self.is_stale:
                self._snapshot = build_csr(self.store)
                self.rebuild_count += 1
            assert self._snapshot is not None
            return self._snapshot

    def adopt(self, snapshot: CSRAdjacency) -> bool:
        """Adopt a pre-built (e.g. mmap-loaded) snapshot; True on success.

        Adoption only succeeds when the snapshot was built at the store's
        *current* version — otherwise it is ignored and the next
        :meth:`current` call rebuilds from the live store, the same
        fallback contract ``AliasTable.refresh`` applies to stale state.
        """
        if snapshot.built_version != self.store.version:
            return False
        self._snapshot = snapshot
        return True
