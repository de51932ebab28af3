"""Version-chained delta bundles: grow a served KG without full re-saves.

The paper's construction tier streams corroborated facts continuously while
the serving tier keeps answering (§2, §4: "continuous construction and
serving of knowledge at scale").  Before this module, every mutation implied
a full CSR/context/alias rebuild plus a full bundle re-save — O(graph) work
per generation.  A *delta chain* makes generations O(change):

* the **base** is an ordinary :func:`~repro.kg.persistence.save_snapshot`
  bundle (unchanged layout);
* each **delta** directory is laid out like a base: a generation manifest
  (``snapshot.json``: versions, listed layers, removed fact keys), the
  logical ``facts.jsonl``/``entities.jsonl`` records the generation
  touched, and one payload subdirectory per published layer, written by
  that layer's ``diff`` (:data:`~repro.kg.persistence.LAYERS`);
* ``chain.json`` at the bundle root links base → delta → delta by
  ``store_version`` (each entry records its ``parent_version``), and is the
  *only* file rewritten in place — atomically, via ``os.replace`` — so a
  crash mid-publish leaves the previous generation fully intact and a
  reader can never observe a half-applied generation.

Readers (``persistence.load_snapshot``) fold each layer's ``apply`` over
the chain, stamped at the *tip* store version, so the adopt-or-rebuild
contract of ``AdjacencyIndex``/``EntityContextIndex``/``AliasTable`` is
unchanged — a layer that cannot be merged (stale delta manifest,
incompatible marshal) is dropped and its consumer silently rebuilds from
the replayed store, while corruption (bad checksums, a chain referencing a
missing delta, broken version linkage) raises :class:`StoreError`.

Chains cannot grow forever: :meth:`GenerationPublisher.compact` folds the
whole chain into a fresh base under ``bases/base-<version>/`` (never
overwriting the old base in place — live readers may still be mmapping it)
and resets the chain, amortising the O(graph) rebuild over
``compact_every`` cheap generations.

Id-space invariant the whole design rests on: the dictionary is append-only
(:class:`~repro.kg.encoding.Dictionary`), so an id assigned at any
generation means the same string at every later generation — delta CSR rows
written at generation k splice verbatim into the merged id space at
generation k+n.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.common import tracing
from repro.common.errors import StoreError
from repro.common.logging import get_logger
from repro.common.serialization import write_jsonl
from repro.common.snapshot_io import write_arrays
from repro.kg.persistence import (
    FORMAT_VERSION,
    LAYERS,
    SHARED_LAYERS,
    SNAPSHOT_MANIFEST,
    load_snapshot,
    read_generation,
    save_snapshot,
    write_generation,
)
from repro.kg.store import TripleStore

if TYPE_CHECKING:
    from repro.common.metrics import MetricsRegistry

CHAIN_NAME = "chain.json"
# 2: delta directories are laid out like bases (generation manifest plus
# one payload directory per layer); format-1 chains no longer load.
CHAIN_FORMAT = 2
DELTAS_DIR = "deltas"
BASES_DIR = "bases"

_log = get_logger("kg.deltas")

# Fault-injection sites (consulted through repro.serving.faults when armed).
# The ordering of the two publish-side hooks is the crash-safety contract:
# a crash at SITE_PUBLISH_DELTA loses only a temp directory; a crash at
# SITE_PUBLISH_CHAIN leaves a complete-but-unreferenced delta directory —
# either way chain.json still points at the previous generation.
SITE_PUBLISH_DELTA = "publisher.delta"
SITE_PUBLISH_CHAIN = "publisher.chain"
SITE_COMPACT = "publisher.compact"


def _fault_point(site: str) -> None:
    # A plan can only be armed through repro.serving.faults, so a process
    # that never imported it has none; importing it here would run all of
    # serving/__init__ (~130 ms) on the first publish.  kg must not depend
    # on the serving package at import time either.
    faults = sys.modules.get("repro.serving.faults")
    if faults is not None:
        faults.fault_point(site)


# -- chain manifest -----------------------------------------------------------


def read_chain(bundle_dir: str | Path) -> dict[str, Any] | None:
    """The parsed, linkage-validated ``chain.json``, or ``None`` if absent.

    Raises :class:`StoreError` for unparseable JSON, unsupported format,
    escaped paths, or broken ``parent_version`` linkage — a chain that
    references generations that cannot follow each other is corruption,
    never silently truncated.
    """
    path = Path(bundle_dir) / CHAIN_NAME
    if not path.exists():
        return None
    try:
        chain = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt chain manifest {path}: {exc}") from None
    if chain.get("format_version") != CHAIN_FORMAT:
        raise StoreError(
            f"unsupported chain format {chain.get('format_version')!r} in "
            f"{path} (supported: {CHAIN_FORMAT})"
        )
    base = chain.get("base")
    if base != "." and not (
        isinstance(base, str) and base.startswith(f"{BASES_DIR}/")
    ):
        raise StoreError(f"chain manifest {path} has invalid base {base!r}")
    previous = chain.get("base_version")
    if not isinstance(previous, int):
        raise StoreError(f"chain manifest {path} missing base_version")
    for info in chain.get("deltas", ()):
        rel = info.get("dir", "")
        if not rel.startswith(f"{DELTAS_DIR}/") or ".." in rel:
            raise StoreError(f"chain manifest {path} has invalid delta dir {rel!r}")
        if info.get("parent_version") != previous:
            raise StoreError(
                f"broken chain linkage in {path}: delta {rel} claims parent "
                f"{info.get('parent_version')!r}, previous generation is {previous}"
            )
        previous = info.get("store_version")
        if not isinstance(previous, int):
            raise StoreError(f"chain manifest {path}: delta {rel} has no store_version")
    return chain


def write_chain(bundle_dir: str | Path, chain: dict[str, Any]) -> None:
    """Atomically publish ``chain.json`` (write temp file + ``os.replace``)."""
    bundle_dir = Path(bundle_dir)
    path = bundle_dir / CHAIN_NAME
    tmp = bundle_dir / (CHAIN_NAME + ".tmp")
    tmp.write_text(json.dumps(chain, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def chain_tip_version(chain: dict[str, Any]) -> int:
    """The store version of the newest generation the chain references."""
    deltas = chain.get("deltas", ())
    if deltas:
        return int(deltas[-1]["store_version"])
    return int(chain["base_version"])


def published_version(bundle_dir: str | Path) -> int | None:
    """The bundle's newest published ``store_version`` (chain tip), if any.

    Cheap enough to poll: one small JSON read.  Falls back to the plain
    ``snapshot.json`` for pre-chain bundles; ``None`` when the directory
    holds neither.
    """
    bundle_dir = Path(bundle_dir)
    chain = read_chain(bundle_dir)
    if chain is not None:
        return chain_tip_version(chain)
    if (bundle_dir / SNAPSHOT_MANIFEST).exists():
        return int(read_generation(bundle_dir)["store_version"])
    return None


# -- the publisher ------------------------------------------------------------


@dataclass(frozen=True)
class GenerationInfo:
    """One published generation's coordinates."""

    seq: int
    store_version: int
    parent_version: int
    directory: Path
    chain_length: int
    compacted: bool = False


class GenerationPublisher:
    """Emits delta generations of one live store into a chained bundle.

    The construction-side half of live growth: the caller owns a
    :class:`TripleStore`, applies mutations to it (ODKE fusion, manual
    edits), tells the publisher *which* fact keys / entity ids it touched
    (:meth:`record`), and calls :meth:`publish` on its cadence.  Each
    publish reads the store's end state for every recorded key — a
    delete-then-readd sequence collapses into one recorded fact, a pure
    delete into one removal — and writes a delta that is O(touched
    neighborhood), not O(graph).

    ``layers`` names the physical layers every generation carries (each
    needs a ``diff``); the default is the shared graph's adjacency,
    context, alias and embeddings layers, while ``()`` publishes the
    logical records only — what a store that nobody serves from the
    physical layers needs.  A layer the chain's base does not list (an
    ``embeddings`` layer of a store with no entity-valued facts) rides no
    delta until a compaction writes it.

    Crash safety: the delta directory is staged under a temp name and
    renamed into place, then ``chain.json`` swaps atomically; in-memory
    publisher state commits only after both succeed, so a failed publish
    (including injected faults at :data:`SITE_PUBLISH_DELTA` /
    :data:`SITE_PUBLISH_CHAIN`) keeps the pending set intact for a clean
    retry and readers keep serving the previous generation.

    After ``compact_every`` deltas the chain folds into a fresh base under
    ``bases/base-<version>/`` — never overwriting the live base in place,
    because concurrent readers may still be mmapping its arrays.
    """

    def __init__(
        self,
        store: TripleStore,
        bundle_dir: str | Path,
        *,
        compact_every: int = 8,
        layers: Iterable[str] = SHARED_LAYERS,
        verify: bool = True,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.store = store
        self.bundle_dir = Path(bundle_dir)
        self.compact_every = compact_every
        self.layers = tuple(layers)
        for name in self.layers:
            if LAYERS[name].diff is None:
                raise ValueError(f"layer {name!r} has no diff and cannot ride a chain")
        self.verify = verify
        self.metrics = metrics
        self._lock = threading.Lock()
        self._pending_keys: dict[tuple[str, str, str], None] = {}
        self._pending_entities: dict[str, None] = {}
        # Background compaction (scheduled off the publish path): at most
        # one in-flight thread; its failure parks here and re-raises on
        # the next publish()/compact()/join_compaction() call.  A leaf
        # lock (never held while taking _lock) keeps schedule / join /
        # error-surfacing atomic against each other.
        self._compact_lock = threading.Lock()
        self._compact_thread: threading.Thread | None = None
        self._compact_error: BaseException | None = None

        chain = read_chain(self.bundle_dir)
        if chain is None and not (self.bundle_dir / SNAPSHOT_MANIFEST).exists():
            save_snapshot(self.store, self.bundle_dir, layers=self.layers)
            chain = self._fresh_chain(".", self.store.version)
            write_chain(self.bundle_dir, chain)
        elif chain is None:
            # Adopt a pre-chain bundle: make it chain-aware in place.
            version = int(read_generation(self.bundle_dir)["store_version"])
            chain = self._fresh_chain(".", version)
            write_chain(self.bundle_dir, chain)
        self._chain = chain
        if chain_tip_version(chain) != self.store.version:
            raise StoreError(
                f"publisher store at version {self.store.version}, bundle "
                f"{self.bundle_dir} tip is {chain_tip_version(chain)}; "
                "load the store from the bundle (or compact) before publishing"
            )
        if not self._open_differs():
            # Unmergeable physical chain: fold to a fresh base.
            self._compact_locked()

    @staticmethod
    def _fresh_chain(base: str, base_version: int) -> dict[str, Any]:
        return {
            "format_version": CHAIN_FORMAT,
            "base": base,
            "base_version": base_version,
            "next_seq": 1,
            "compactions": 0,
            "deltas": [],
        }

    def _open_differs(self) -> bool:
        """Position one differ per published layer at the bundle's tip.

        Returns ``False`` when a layer the base lists cannot be merged
        there (stale, or an incompatible marshal sidecar).  A logical-only
        publisher needs no tip state and loads nothing.
        """
        self._differs: dict[str, Any] = {}
        if not self.layers:
            return True
        snapshot = load_snapshot(self.bundle_dir, verify=self.verify)
        for name in self.layers:
            if name not in snapshot.manifest["layers"]:
                continue  # the base wrote nothing for it
            state = getattr(snapshot, name)
            if state is None:
                return False
            # The snapshot is discarded after this, so a differ may take
            # ownership of its state (adjacency interns into the dictionary).
            self._differs[name] = LAYERS[name].diff(self.store, state)
        return True

    # -- recording --------------------------------------------------------

    def record(
        self,
        keys: Iterable[tuple[str, str, str]] = (),
        entities: Iterable[str] = (),
    ) -> None:
        """Note touched fact keys / entity ids since the last publish.

        Record entity ids in upsert order — new entities take their alias
        and context positions from it (matching the store's own insertion
        order).  Recording is idempotent; the end state is read at publish.
        """
        with self._lock:
            for key in keys:
                self._pending_keys[tuple(key)] = None
            for entity in entities:
                self._pending_entities[entity] = None

    @property
    def pending(self) -> int:
        """Recorded-but-unpublished fact keys + entity ids."""
        return len(self._pending_keys) + len(self._pending_entities)

    @property
    def chain_length(self) -> int:
        """Deltas currently on the chain (0 right after a compaction)."""
        return len(self._chain["deltas"])

    @property
    def tip_version(self) -> int:
        """The newest published generation's store version."""
        return chain_tip_version(self._chain)

    # -- publishing -------------------------------------------------------

    def publish(self) -> GenerationInfo | None:
        """Write one delta generation from the pending set; maybe compact.

        Returns the new generation's :class:`GenerationInfo`, or ``None``
        when nothing changed since the last publish.  On any failure the
        pending set is preserved and the chain untouched — retryable.
        """
        self._raise_compact_error()
        with self._lock:
            with tracing.span(
                "publisher.publish", bundle=str(self.bundle_dir)
            ) as span:
                info = self._publish_locked()
                if info is not None and span.recording:
                    span.set_attribute("seq", info.seq)
                    span.set_attribute("store_version", info.store_version)
                    span.set_attribute("chain_length", info.chain_length)
                return info

    def _publish_locked(self) -> GenerationInfo | None:
        store = self.store
        version = store.version
        parent = chain_tip_version(self._chain)
        if not self._pending_keys and not self._pending_entities:
            return None
        if version == parent:
            # Recorded keys but the store never actually moved.
            self._pending_keys.clear()
            self._pending_entities.clear()
            return None
        started = time.perf_counter()
        keys = list(self._pending_keys)
        entities = list(self._pending_entities)
        diffs = {name: differ.diff(keys, entities) for name, differ in self._differs.items()}

        # -- logical end state.
        facts = []
        removed: list[tuple[str, str, str]] = []
        for key in keys:
            fact = store.get(*key)
            if fact is None:
                removed.append(key)
            else:
                facts.append(fact)
        records = [store.entity(entity) for entity in entities if store.has_entity(entity)]

        # -- stage, rename, swap the chain (the crash-ordering contract).
        seq = int(self._chain.get("next_seq", len(self._chain["deltas"]) + 1))
        rel_dir = f"{DELTAS_DIR}/delta-{seq:06d}"
        final_dir = self.bundle_dir / rel_dir
        staging = self.bundle_dir / DELTAS_DIR / f".tmp-delta-{seq:06d}"
        if staging.exists():
            shutil.rmtree(staging)
        if final_dir.exists():
            shutil.rmtree(final_dir)  # orphan of a crashed chain swap
        write_jsonl(staging / "facts.jsonl", facts)
        write_jsonl(staging / "entities.jsonl", records)
        for name, (payload, _commit) in diffs.items():
            write_arrays(
                staging / name,
                payload.arrays,
                kind=LAYERS[name].delta_kind,
                store_version=payload.store_version,
                extra=payload.extra,
            )
        write_generation(
            staging,
            {
                "format_version": FORMAT_VERSION,
                "name": store.name,
                "seq": seq,
                "store_version": version,
                "parent_version": parent,
                "layers": list(diffs),
                "removed": [list(key) for key in removed],
                "num_facts": len(facts),
                "num_entities": len(records),
            },
        )
        _fault_point(SITE_PUBLISH_DELTA)
        os.replace(staging, final_dir)
        _fault_point(SITE_PUBLISH_CHAIN)
        chain = dict(self._chain)
        chain["deltas"] = list(chain["deltas"]) + [
            {
                "dir": rel_dir,
                "seq": seq,
                "store_version": version,
                "parent_version": parent,
            }
        ]
        chain["next_seq"] = seq + 1
        write_chain(self.bundle_dir, chain)

        # -- commit in-memory tip state (only after the durable swap).
        self._chain = chain
        for _payload, commit in diffs.values():
            commit()
        self._pending_keys.clear()
        self._pending_entities.clear()
        if self.metrics is not None:
            self.metrics.incr("publisher.generations")
            self.metrics.gauge("publisher.chain_length", float(self.chain_length))
            self.metrics.observe(
                "publisher.publish_s", time.perf_counter() - started
            )
        _log.info(
            "generation.published",
            bundle=str(self.bundle_dir),
            seq=seq,
            store_version=version,
            parent_version=parent,
            chain_length=self.chain_length,
            facts=len(facts),
            removed=len(removed),
        )
        compacted = False
        if self.compact_every and len(chain["deltas"]) >= self.compact_every:
            # Compaction (a full CSR rebuild + base snapshot) runs on a
            # background thread so the publish path stays ~ms: the caller
            # gets its generation back immediately and the fold happens
            # under the publisher lock as soon as this publish releases
            # it.  ``compacted`` in the returned info therefore means
            # *scheduled*; join_compaction() observes completion.
            self._schedule_compaction_locked()
            compacted = True
        return GenerationInfo(
            seq=seq,
            store_version=version,
            parent_version=parent,
            directory=final_dir,
            chain_length=self.chain_length,
            compacted=compacted,
        )

    # -- compaction -------------------------------------------------------

    def _raise_compact_error(self) -> None:
        """Surface a background compaction failure on the calling thread.

        Takes the parked error atomically, so exactly one of several
        racing callers raises it (the rest proceed) and a freshly parked
        error can never be dropped by a concurrent read-then-clear.
        """
        with self._compact_lock:
            error = self._compact_error
            self._compact_error = None
        if error is not None:
            raise error

    def _schedule_compaction_locked(self) -> None:
        """Start (at most one) background compaction thread.

        Called with the publisher lock held: the thread blocks on the
        lock until the scheduling publish commits, then folds the entire
        chain as it stands *then* — so a still-pending thread also covers
        any generations published in between, and re-scheduling is a
        no-op while one is in flight.
        """

        def run() -> None:
            try:
                with self._lock:
                    if not self._chain["deltas"]:
                        return  # someone compacted inline in the meantime
                    with tracing.span(
                        "publisher.compact", bundle=str(self.bundle_dir)
                    ):
                        self._compact_locked()
            except BaseException as exc:  # parked for the next caller
                with self._compact_lock:
                    self._compact_error = exc

        with self._compact_lock:
            if self._compact_thread is not None and self._compact_thread.is_alive():
                return
            thread = threading.Thread(
                target=run, name=f"compact-{self.bundle_dir.name}", daemon=True
            )
            self._compact_thread = thread
            # Started while holding the lock so a concurrent join never
            # sees (and tries to join) a not-yet-started thread.
            thread.start()
        if self.metrics is not None:
            self.metrics.incr("publisher.compactions_scheduled")

    def join_compaction(self, timeout: float | None = None) -> bool:
        """Wait for any in-flight background compaction to finish.

        Returns ``True`` once no compaction is running (including when
        none was scheduled); ``False`` if ``timeout`` elapsed first.
        Re-raises the compaction's exception, if it failed — the same
        error the next :meth:`publish`/:meth:`compact` would surface.
        """
        with self._compact_lock:
            thread = self._compact_thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
            with self._compact_lock:
                # Compare-and-clear: a publish may have scheduled a fresh
                # thread since we sampled — never clobber its reference.
                if self._compact_thread is thread:
                    self._compact_thread = None
        self._raise_compact_error()
        return True

    def compact(self) -> GenerationInfo:
        """Fold the chain into a fresh base (publishes pending changes too).

        Synchronous: drains any in-flight background compaction first,
        then folds whatever remains inline on the calling thread.
        """
        self.join_compaction()
        with self._lock:
            with tracing.span(
                "publisher.compact", bundle=str(self.bundle_dir)
            ):
                return self._compact_locked()

    def _compact_locked(self) -> GenerationInfo:
        store = self.store
        if self._differs and store.version != chain_tip_version(self._chain):
            # A carried layer (embeddings) only learns recorded changes
            # through its differ, so pending ones are published first.
            self._publish_locked()
        version = store.version
        started = time.perf_counter()
        base_rel = f"{BASES_DIR}/base-{version:08d}"
        base_dir = self.bundle_dir / base_rel
        built: dict[str, Any] = {}
        for differ in self._differs.values():
            if hasattr(differ, "built"):
                built.update(differ.built())
        save_snapshot(store, base_dir, layers=self.layers, **built)
        _fault_point(SITE_COMPACT)
        chain = self._fresh_chain(base_rel, version)
        chain["next_seq"] = int(self._chain.get("next_seq", 1))
        chain["compactions"] = int(self._chain.get("compactions", 0)) + 1
        write_chain(self.bundle_dir, chain)
        self._chain = chain
        self._pending_keys.clear()
        self._pending_entities.clear()
        # A compaction is also a sync point for the in-memory tip state:
        # the differs restart from the fresh base (its dictionary's id
        # order is the fresh-build order from here on).
        if not self._open_differs():
            raise StoreError(f"compacted base {base_dir} does not load")
        self._prune_stale_dirs(keep=base_rel)
        if self.metrics is not None:
            self.metrics.incr("publisher.compactions")
            self.metrics.gauge("publisher.chain_length", 0.0)
            self.metrics.observe(
                "publisher.compact_s", time.perf_counter() - started
            )
        _log.info(
            "generation.compacted",
            bundle=str(self.bundle_dir),
            store_version=version,
            base=base_rel,
        )
        return GenerationInfo(
            seq=int(chain["next_seq"]) - 1,
            store_version=version,
            parent_version=version,
            directory=base_dir,
            chain_length=0,
            compacted=True,
        )

    def _prune_stale_dirs(self, keep: str) -> None:
        """Best-effort GC of staging leftovers after a compaction.

        Only ``.tmp-*`` staging directories are removed.  Superseded delta
        and base directories stay on disk: a reader that loaded the
        previous chain may still be serving mmapped arrays out of them,
        and unlinking-under-mmap semantics differ across platforms.
        Operators prune old ``bases/base-*``/``deltas/delta-*`` dirs once
        every reader has re-adopted.
        """
        staging_root = self.bundle_dir / DELTAS_DIR
        if staging_root.exists():
            for child in staging_root.iterdir():
                if child.name.startswith(".tmp-"):
                    shutil.rmtree(child, ignore_errors=True)
