"""Store persistence: JSONL logical snapshots + zero-copy physical layers.

Two tiers, bundled under one directory:

* **Logical** (``save_store``/``load_store``): ``entities.jsonl`` +
  ``facts.jsonl`` (+ ``meta.json``) — append-friendly, diff-able, the
  interchange format the construction pipeline exchanges.
* **Physical** (``save_snapshot``/``load_snapshot``): versioned binary
  snapshots of the columnar serving layers next to the JSONL, one
  directory per :class:`BundleLayer` in :data:`LAYERS` — ``adjacency/``
  (dictionary + CSR arrays), ``context/`` (annotation context matrix +
  entity→row map), ``alias/`` (alias-table state), ``embeddings/``
  (trained embedding matrices + calibrated threshold + IVF quantizer,
  :mod:`repro.embeddings.persistence`) — each with a manifest carrying
  format version, ``store_version`` and per-file checksums
  (:mod:`repro.common.snapshot_io`).  The bundle's ``snapshot.json``
  lists the layers it carries.

``load_snapshot`` is the worker cold-start path (§4 serving): arrays are
memory-mapped instead of rebuilt, the fact log replays *lazily* (walks and
annotation serve entirely from the physical layers), and any listed layer
whose manifest doesn't match the bundle's store version is dropped so its
consumer rebuilds from the live store — the same adopt-or-rebuild
contract as ``AliasTable.refresh``/``AdjacencyIndex``.  A listed layer
that is missing or corrupt raises :class:`StoreError`.

A chained bundle (:mod:`repro.kg.deltas`) loads through the same fold:
every delta directory is laid out like a base (generation manifest,
logical JSONL, one subdirectory per layer), and each layer's ``apply``
merges the deltas' payloads over the base state.  A plain bundle is a
chain with zero deltas.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.common.errors import StoreError
from repro.common.serialization import read_jsonl, write_jsonl
from repro.common.snapshot_io import LayerPayload, SnapshotStaleError, load_payload
from repro.kg.adjacency import (
    AdjacencyDiff,
    CSRAdjacency,
    apply_adjacency,
    build_csr,
    load_adjacency,
    save_adjacency,
)
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import Fact

if TYPE_CHECKING:  # annotation/embedding-layer types; imported lazily at runtime
    from repro.annotation.alias_table import AliasTable
    from repro.annotation.context_encoder import EntityContextIndex
    from repro.embeddings.suite import EmbeddingSuite, EmbeddingSuiteConfig
    from repro.kg.graph_engine import GraphEngine

FORMAT_VERSION = 1
SNAPSHOT_MANIFEST = "snapshot.json"

ADJACENCY_DIR = "adjacency"
CONTEXT_DIR = "context"
ALIAS_DIR = "alias"
EMBEDDINGS_DIR = "embeddings"

_CONTEXT = "repro.annotation.context_encoder"
_ALIAS = "repro.annotation.alias_table"


def save_store(store: TripleStore, directory: str | Path) -> dict[str, int]:
    """Write ``store`` under ``directory``; returns written counts."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n_entities = write_jsonl(directory / "entities.jsonl", store.entities())
    n_facts = write_jsonl(directory / "facts.jsonl", store.scan())
    meta = {
        "format_version": FORMAT_VERSION,
        "name": store.name,
        "num_entities": n_entities,
        "num_facts": n_facts,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return {"entities": n_entities, "facts": n_facts}


def _read_manifest(path: Path, what: str) -> dict[str, Any]:
    """A JSON manifest of this module's format; :class:`StoreError` if not."""
    if not path.exists():
        raise StoreError(f"not a saved {what}: {path.parent} (missing {path.name})")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt {what} manifest {path}: {exc}") from None
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported {what} format {manifest.get('format_version')!r} "
            f"in {path.parent} (supported: {FORMAT_VERSION})"
        )
    return manifest


def load_store(directory: str | Path) -> TripleStore:
    """Restore a store previously written by :func:`save_store`."""
    directory = Path(directory)
    meta = _read_manifest(directory / "meta.json", "store")
    store = TripleStore(name=meta.get("name", "kg"))
    for record in read_jsonl(directory / "entities.jsonl", EntityRecord.from_dict):
        store.upsert_entity(record)
    for fact in read_jsonl(directory / "facts.jsonl", Fact.from_dict):
        store.add(fact)
    return store


# -- lazy logical store -------------------------------------------------------


class SnapshotStore(TripleStore):
    """A :class:`TripleStore` restored from a bundle, fact log replayed lazily.

    Entity descriptors load eagerly (every serving path needs them: alias
    table, candidates, typing), the base's first and then each delta's.
    The fact log — the bulk of cold-start replay — loads on first access
    to any fact-reading or mutating operation; walks and full-tier
    annotation served from adopted physical snapshots never touch it.

    The replay applies, per delta generation, the recorded removals first
    and then the end-state facts.  Re-recorded existing keys *replace* in
    place — a delta fact is the store's exact end state at publish time,
    so merging metadata with the superseded fact (as a plain upsert
    would) could resurrect a deleted fact's confidence or provenance.
    In-place replacement also preserves scan order for add-and-update
    workloads, keeping chain-loaded stores byte-compatible with a store
    that applied the same operations live.

    ``version`` is pinned to the bundle's tip ``store_version``, so
    physical layers stamped with that version adopt cleanly; the lazy
    replay itself never moves ``version`` (it is a load, not a logical
    mutation), while real mutations bump it as usual and invalidate every
    adopted layer.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        deltas: Iterable[tuple[Path, list[list[str]]]] = (),
        name: str = "kg",
        pinned_version: int = 0,
        defer_facts: bool = True,
    ) -> None:
        super().__init__(name=name)
        self._directory = Path(directory)
        self._deltas = list(deltas)
        self._facts_loaded = False
        # Concurrent in-process readers (serving worker threads) may race
        # to the first fact access; the replay must run exactly once and
        # no reader may observe a partially replayed index.
        self._replay_lock = threading.RLock()
        for path in (self._directory, *(path for path, _ in self._deltas)):
            for record in read_jsonl(path / "entities.jsonl", EntityRecord.from_dict):
                self._entities[record.entity] = record
        self.version = pinned_version
        if not defer_facts:
            self._ensure_facts()

    def _ensure_facts(self) -> None:
        if self._facts_loaded:
            return
        with self._replay_lock:
            if self._facts_loaded:
                return
            # Flag only flips once the replay completes: a truncated/corrupt
            # fact log must keep raising on every access, never serve the
            # partial prefix as if it were the full graph.  (Upserts are
            # idempotent, so a retry after a transient error is safe.)
            pinned = self.version
            for fact in read_jsonl(self._directory / "facts.jsonl", Fact.from_dict):
                self._upsert(fact)
            for path, removed in self._deltas:
                for key in removed:
                    # Unbound base call: the wrapped SnapshotStore.remove
                    # would re-enter _ensure_facts through its RLock.
                    TripleStore.remove(self, *key)
                for fact in read_jsonl(path / "facts.jsonl", Fact.from_dict):
                    if fact.key in self._facts:
                        self._facts[fact.key] = fact
                    else:
                        self._upsert(fact)
            # Removals above bumped the version; adopted tip-stamped
            # layers must still match.
            self.version = pinned
            self._facts_loaded = True


def _facts_first(name: str):
    base = getattr(TripleStore, name)

    @functools.wraps(base)
    def method(self, *args, **kwargs):
        self._ensure_facts()
        return base(self, *args, **kwargs)

    return method


# Every TripleStore operation that reads or writes the fact indexes; the
# entity-descriptor surface (entity/has_entity/entities/entity_ids/
# upsert_entity/copy_entities_from) deliberately stays lazy-free.
for _name in (
    "add",
    "add_all",
    "remove",
    "get",
    "__contains__",
    "__len__",
    "scan",
    "objects",
    "subjects",
    "predicates_of",
    "predicates",
    "predicate_counts",
    "stats",
    "neighbors",
):
    setattr(SnapshotStore, _name, _facts_first(_name))


# -- bundled physical snapshots ----------------------------------------------


@dataclass(frozen=True)
class BundleLayer:
    """One physical bundle layer: how it is saved, loaded, diffed and merged.

    * ``save(store, directory, built)`` writes it at ``store.version``
      (reusing a fresh object from ``built``, the :func:`save_snapshot`
      keywords); ``False`` means nothing to persist, so it goes unlisted.
    * ``load(directory, *, expected_store_version, mmap, verify)`` returns
      the state (the :class:`KGSnapshot` field of the same name); raises
      :class:`SnapshotStaleError` when stale, :class:`StoreError` when corrupt.
    * ``diff(store, state)`` is a differ at a published state whose
      ``diff(keys, entities)`` returns the next :class:`LayerPayload` and a
      commit thunk to run once that generation is durable.  A differ
      whose layer is not a function of the store alone also has
      ``built()``: the :func:`save_snapshot` keywords that carry its
      folded state into a compacted base.
    * ``apply(state, payloads)`` merges delta payloads, stamped at the last.

    A layer without ``diff``/``apply`` cannot ride a chain with deltas.
    """

    name: str
    save: Callable[[TripleStore, Path, dict[str, Any]], bool]
    load: Callable[..., Any]
    diff: Callable[[TripleStore, Any], Any] | None = None
    apply: Callable[[Any, list[LayerPayload]], Any] | None = None

    @property
    def delta_kind(self) -> str:
        return f"{self.name}-delta"


def _owned(module: str, *names: str) -> list[Callable[..., Any]]:
    """``module``'s functions by name, each imported on first call (the
    annotation and embedding layer owners import :mod:`repro.kg`)."""

    def lazy(name: str) -> Callable[..., Any]:
        return lambda *a, **kw: getattr(importlib.import_module(module), name)(*a, **kw)

    return [lazy(name) for name in names]


def _save_adjacency(store: TripleStore, directory: Path, built: dict[str, Any]) -> bool:
    save_adjacency(build_csr(store), directory)
    return True


def _save_context(store: TripleStore, directory: Path, built: dict[str, Any]) -> bool:
    from repro.annotation.context_encoder import EntityContextIndex, save_context_index

    index = built.get("context_index")
    if index is None:
        index = EntityContextIndex(store)
    if index.is_stale:
        index.build()
    save_context_index(index, directory)
    return True


def _save_alias(store: TripleStore, directory: Path, built: dict[str, Any]) -> bool:
    from repro.annotation.alias_table import AliasTable, save_alias_table

    table = built.get("alias_table")
    if table is None:
        table = AliasTable(store)
    if table.is_stale:
        table.refresh()
    save_alias_table(table, directory)
    return True


def _load_alias(
    directory: Path, *, expected_store_version: int | None, mmap: bool, verify: bool
) -> tuple:
    """The registry's loader contract over :func:`load_alias_state`: the
    marshalled state is always read whole and checksummed."""
    from repro.annotation.alias_table import load_alias_state

    return load_alias_state(directory, expected_store_version=expected_store_version)


def _save_embeddings(store: TripleStore, directory: Path, built: dict[str, Any]) -> bool:
    from repro.common.errors import EmbeddingError
    from repro.embeddings.persistence import save_embeddings
    from repro.embeddings.suite import EmbeddingSuiteConfig, build_embedding_suite

    config = built.get("embedding_config") or EmbeddingSuiteConfig()
    suite = built.get("embedding_suite")
    if suite is None:
        try:
            suite = build_embedding_suite(store, config)
        except EmbeddingError:
            return False  # no entity-valued facts: nothing to train
    save_embeddings(suite, config, directory, store_version=store.version)
    return True


#: Every physical layer, in save order; adding a layer is one entry here
#: (plus its :class:`KGSnapshot` field and consumer accessor).
LAYERS: dict[str, BundleLayer] = {
    layer.name: layer
    for layer in (
        BundleLayer(
            ADJACENCY_DIR, _save_adjacency, load_adjacency, AdjacencyDiff, apply_adjacency
        ),
        BundleLayer(
            CONTEXT_DIR,
            _save_context,
            *_owned(_CONTEXT, "load_context_arrays", "ContextDiff", "apply_context"),
        ),
        BundleLayer(
            ALIAS_DIR,
            _save_alias,
            _load_alias,
            *_owned(_ALIAS, "AliasDiff", "apply_alias"),
        ),
        BundleLayer(
            EMBEDDINGS_DIR,
            _save_embeddings,
            *_owned(
                "repro.embeddings.persistence",
                "load_embedding_layer",
                "EmbeddingDiff",
                "apply_embeddings",
            ),
        ),
    )
}

#: The layers a growing shared graph publishes per generation.
SHARED_LAYERS = (ADJACENCY_DIR, CONTEXT_DIR, ALIAS_DIR, EMBEDDINGS_DIR)


@dataclass
class KGSnapshot:
    """A loaded bundle: the logical store plus adoptable physical layers.

    One field per :data:`LAYERS` entry.  Layers that were unlisted, stale
    (built at a different store version than the bundle) or written by an
    incompatible python are ``None`` — their consumers rebuild from the
    live store.  Missing or corrupt listed layers raise
    :class:`StoreError` at load instead (never garbage results).
    """

    directory: Path
    manifest: dict[str, Any]
    store: TripleStore
    adjacency: CSRAdjacency | None = None
    context: tuple | None = None  # (matrix, row entities, built_version, extra)
    alias: tuple | None = None  # (state, built_version, extra)
    embeddings: LayerPayload | None = None

    def engine(self) -> "GraphEngine":
        """A :class:`GraphEngine` with the persisted CSR adopted (if fresh)."""
        from repro.kg.graph_engine import GraphEngine

        engine = GraphEngine(self.store)
        if self.adjacency is not None:
            engine.adopt_snapshot(self.adjacency)
        return engine

    def context_index(self, encoder=None, cache=None) -> "EntityContextIndex":
        """An :class:`EntityContextIndex` served from the mmapped matrix.

        The persisted ``neighbor_limit`` carries over, so vectors
        computed after the load (new entities, post-mutation rebuilds)
        use the same recipe as the saved ones.  Falls back to an empty
        (stale) index that rebuilds on first use when the bundle carries
        no adoptable context layer.
        """
        from repro.annotation.context_encoder import EntityContextIndex

        extra = self.context[3] if self.context is not None else {}
        index = EntityContextIndex(
            self.store,
            encoder=encoder,
            cache=cache,
            neighbor_limit=extra.get("neighbor_limit", 16),
        )
        if self.context is not None:
            matrix, entities, built_version, _ = self.context
            if extra.get("dim") == index.encoder.dim:
                index.adopt(matrix, entities, built_version)
        return index

    def alias_table(self, fuzzy_threshold: float | None = None) -> "AliasTable":
        """An :class:`AliasTable` restored from persisted state (if fresh).

        ``fuzzy_threshold`` defaults to the persisted value, so the
        restored table accepts exactly the fuzzy matches the saved
        service did.
        """
        from repro.annotation.alias_table import AliasTable

        if fuzzy_threshold is None:
            persisted = self.alias[2] if self.alias is not None else {}
            fuzzy_threshold = persisted.get("fuzzy_threshold", 0.75)
        table = AliasTable(self.store, fuzzy_threshold, refresh=False)
        if self.alias is not None:
            state, built_version, _extra = self.alias
            table.adopt_state(state, built_version)
        if table.is_stale:
            table.refresh()
        return table

    def embedding_suite(self, config: "EmbeddingSuiteConfig | None" = None) -> "EmbeddingSuite":
        """The embedding-family backends, adopted from the persisted layer.

        Adopt-or-rebuild: a fresh layer whose recipe matches ``config``
        reconstructs the suite zero-copy from the mmapped arrays (no
        training, no calibration, no k-means); a missing, stale or
        recipe-mismatched layer silently trains from the live store.
        """
        from repro.embeddings.persistence import adopt_embedding_suite
        from repro.embeddings.suite import EmbeddingSuiteConfig, build_embedding_suite

        config = config or EmbeddingSuiteConfig()
        if self.embeddings is not None:
            suite = adopt_embedding_suite(self.store, self.embeddings, config)
            if suite is not None:
                return suite
        return build_embedding_suite(self.store, config)

    def annotation_pipeline(self, tier: str = "full", **kwargs):
        """A :func:`make_pipeline` wired onto the adopted physical layers."""
        from repro.annotation.pipeline import FULL_TIER, make_pipeline

        context_index = self.context_index() if tier == FULL_TIER else None
        return make_pipeline(
            self.store,
            tier=tier,
            context_index=context_index,
            alias_table=self.alias_table(),
            **kwargs,
        )


def write_generation(directory: Path, manifest: dict[str, Any]) -> None:
    """Write a bundle or delta directory's generation manifest."""
    (directory / SNAPSHOT_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def read_generation(directory: Path) -> dict[str, Any]:
    """Read and validate a generation manifest (``snapshot.json``)."""
    return _read_manifest(directory / SNAPSHOT_MANIFEST, "snapshot")


def save_snapshot(
    store: TripleStore,
    directory: str | Path,
    *,
    layers: Iterable[str] | None = None,
    context_index: "EntityContextIndex | None" = None,
    alias_table: "AliasTable | None" = None,
    embedding_suite: "EmbeddingSuite | None" = None,
    embedding_config: "EmbeddingSuiteConfig | None" = None,
) -> dict[str, Any]:
    """Write a bundle: JSONL logical store + the named physical layers.

    ``layers`` defaults to every :data:`LAYERS` entry; ``()`` writes the
    logical store alone.  Layers are taken from the passed objects when
    fresh (a built context index, an already-trained embedding suite) and
    built from the store otherwise, so every layer
    manifest is stamped with the *current* ``store.version``.  The
    ``embeddings/`` layer is skipped for stores with no entity-valued
    facts (nothing to train).  Returns the bundle manifest (also written
    to ``snapshot.json``), which lists the layers written.
    """
    directory = Path(directory)
    built = {
        "context_index": context_index,
        "alias_table": alias_table,
        "embedding_suite": embedding_suite,
        "embedding_config": embedding_config,
    }
    counts = save_store(store, directory)
    manifest = {
        "format_version": FORMAT_VERSION,
        "name": store.name,
        "store_version": store.version,
        "num_entities": counts["entities"],
        "num_facts": counts["facts"],
        "layers": [
            name
            for name in (LAYERS if layers is None else layers)
            if LAYERS[name].save(store, directory / name, built)
        ],
    }
    write_generation(directory, manifest)
    return manifest


def load_snapshot(
    directory: str | Path,
    *,
    defer_facts: bool = True,
    mmap: bool = True,
    verify: bool = True,
) -> KGSnapshot:
    """Load a bundle written by :func:`save_snapshot` — chained or plain.

    Cold start is an mmap, not a rebuild: physical arrays map read-only
    and the fact log replays lazily (``defer_facts=False`` forces an eager
    replay).  Exactly the layers the base manifest lists load, each folded
    over the chain's deltas (:class:`~repro.kg.deltas.GenerationPublisher`)
    and stamped at the tip version, so callers (workers, serving, tools)
    need no chain awareness.  A stale layer or delta drops that layer so
    its consumer rebuilds; a generation manifest disagreeing with
    ``chain.json`` drops every layer but keeps the logical replay.
    Corruption — bad checksums, truncated or missing files, a chain
    referencing a missing delta, broken version linkage — raises
    :class:`StoreError`.
    """
    from repro.kg.deltas import chain_tip_version, read_chain

    directory = Path(directory)
    chain = read_chain(directory)
    base_dir = directory if chain is None else directory / chain["base"]
    manifest = read_generation(base_dir)
    base_version = int(manifest["store_version"])
    generations: list[tuple[Path, dict[str, Any]]] = []
    carried = {name for name, layer in LAYERS.items() if layer.apply is not None}
    if chain is not None:
        if base_version != chain["base_version"]:
            raise StoreError(
                f"chain base {base_dir} at store version {base_version}, "
                f"chain expects {chain['base_version']}"
            )
        for info in chain["deltas"]:
            delta_dir = directory / info["dir"]
            if not (delta_dir / SNAPSHOT_MANIFEST).exists():
                raise StoreError(
                    f"chain references missing delta: {delta_dir} "
                    "(crash-orphaned chains never reference unwritten deltas)"
                )
            generation = read_generation(delta_dir)
            if generation["store_version"] == info["store_version"]:
                carried &= set(generation["layers"])
            else:
                carried.clear()  # the chain's array view is no longer coherent
            generations.append((delta_dir, generation))
        manifest = dict(
            manifest,
            store_version=chain_tip_version(chain),
            chain={
                "base": chain["base"],
                "base_version": base_version,
                "deltas": len(generations),
            },
        )
    store = SnapshotStore(
        base_dir,
        deltas=[(path, generation["removed"]) for path, generation in generations],
        name=manifest.get("name", "kg"),
        pinned_version=int(manifest["store_version"]),
        defer_facts=defer_facts,
    )
    states = {}
    for name in manifest["layers"]:
        if name not in LAYERS:
            raise StoreError(f"bundle {base_dir} lists unknown layer {name!r}")
        layer = LAYERS[name]
        try:
            state = layer.load(
                base_dir / name, expected_store_version=base_version, mmap=mmap, verify=verify
            )
            if generations and name not in carried:
                state = None
            elif generations:
                payloads = [
                    load_payload(
                        path / name,
                        kind=layer.delta_kind,
                        expected_store_version=generation["store_version"],
                        mmap=mmap,
                        verify=verify,
                    )
                    for path, generation in generations
                ]
                state = layer.apply(state, payloads)
        except SnapshotStaleError:
            state = None  # its consumer rebuilds from the store
        states[name] = state
    return KGSnapshot(directory=directory, manifest=manifest, store=store, **states)
