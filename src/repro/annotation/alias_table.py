"""Alias table: surface form → candidate KG entities.

The first stage of candidate generation.  Built from entity names and
aliases in the store, keyed by :func:`repro.common.text.normalize_name`.
Each candidate carries a popularity-derived *prior* — the baseline signal
contextual reranking must beat on ambiguous names.

The table is *dynamic* (§3.2: annotations must "surface new and updated
entities from the KG"): ``refresh`` rebuilds from the live store, and the
annotation service calls it when the KG version moves.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.common.errors import StoreError
from repro.common.snapshot_io import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    LayerPayload,
    SnapshotStaleError,
    read_manifest,
    read_marshal,
    write_marshal,
)
from repro.common.text import char_ngrams, dice_similarity, normalize_name
from repro.kg.store import TripleStore


@dataclass(frozen=True)
class AliasEntry:
    """One (entity, prior) candidate for a surface form."""

    entity: str
    prior: float
    exact: bool = True


# Terminal marker inside trie nodes.  Trie edges are normalised words
# (strings), so ``None`` can never collide with an edge label.
TRIE_KEY = None


def exact_entries(store: TripleStore) -> dict[str, list[tuple[str, float, bool]]]:
    """Normalised key -> ``(entity, prior, True)`` entries, priors summing
    to one per key, in store entity order (what :meth:`AliasTable.refresh`
    builds its exact map from)."""
    raw: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for record in store.entities():
        for surface in {record.name, *record.aliases}:
            key = normalize_name(surface)
            if key:
                # Aliases are weaker evidence than the primary name.
                weight = 1.0 if surface == record.name else 0.6
                raw[key].append((record.entity, record.popularity * weight))
    exact = {}
    for key, entries in raw.items():
        total = sum(prior for _entity, prior in entries) or 1.0
        exact[key] = sorted(
            ((entity, prior / total, True) for entity, prior in entries),
            key=lambda entry: (-entry[1], entry[0]),
        )
    return exact


def derive_state(exact: dict[str, list[tuple[str, float, bool]]]) -> dict:
    """The full :meth:`AliasTable.state` derived from its exact map.

    Beside the exact entries: first-character key buckets, each key's
    trigram multiset (computed once here: fuzzy lookup compares the query
    against every same-initial key), and the token-level longest-match
    trie the mention detector walks — one dict hop per normalised word —
    with ``max_key_tokens`` bounding its n-gram window.
    """
    by_first: dict[str, list[str]] = defaultdict(list)
    trie: dict = {}
    for key in exact:
        by_first[key[0]].append(key)
        node = trie
        for word in key.split(" "):
            node = node.setdefault(word, {})
        node[TRIE_KEY] = True
    return {
        "exact": exact,
        "by_first_char": dict(by_first),
        "key_grams": {key: char_ngrams(key) for key in exact},
        "trie": trie,
        "max_key_tokens": max((len(key.split(" ")) for key in exact), default=1),
    }


class AliasTable:
    """Normalised-name lookup with optional fuzzy fallback."""

    def __init__(
        self,
        store: TripleStore,
        fuzzy_threshold: float = 0.75,
        *,
        refresh: bool = True,
    ) -> None:
        self.store = store
        self.fuzzy_threshold = fuzzy_threshold
        self._exact: dict[str, list[AliasEntry]] = {}
        self._by_first_char: dict[str, list[str]] = {}
        self._key_grams: dict[str, Counter[str]] = {}
        self._trie: dict = {}
        self._max_key_tokens = 1
        self._built_version = -1
        # ``refresh=False`` defers the first build for callers about to
        # adopt persisted state (a snapshot load); the table reads as
        # stale until adopted or refreshed.
        if refresh:
            self.refresh()

    def refresh(self) -> None:
        """Rebuild from the store (no-op when the store hasn't changed)."""
        if self._built_version != self.store.version:
            self.adopt_state(derive_state(exact_entries(self.store)), self.store.version)

    @property
    def is_stale(self) -> bool:
        """True when the store changed since the last refresh."""
        return self._built_version != self.store.version

    def state(self) -> dict:
        """The refresh products as marshal-able builtin containers.

        Everything :meth:`refresh` derives — normalised keys, entry
        tuples, trigram multisets, the word trie, ``max_key_tokens`` —
        in plain dict/list/tuple form, so a snapshot can persist it and
        :meth:`adopt_state` can restore it bit-for-bit (floats round-trip
        exactly; dict insertion order is preserved, which keeps fuzzy
        scoring's float accumulation order identical).
        """
        return {
            "exact": {
                key: [(e.entity, e.prior, e.exact) for e in entries]
                for key, entries in self._exact.items()
            },
            "by_first_char": self._by_first_char,
            "key_grams": {key: dict(grams) for key, grams in self._key_grams.items()},
            "trie": self._trie,
            "max_key_tokens": self._max_key_tokens,
        }

    def adopt_state(self, state: dict, built_version: int) -> bool:
        """Adopt persisted :meth:`state` output; True on success.

        Only succeeds when ``built_version`` equals the store's current
        version — otherwise the caller falls back to :meth:`refresh`,
        the usual adopt-or-rebuild contract.
        """
        if built_version != self.store.version:
            return False
        self._exact = {
            key: [
                AliasEntry(entity=entity, prior=prior, exact=exact)
                for entity, prior, exact in entries
            ]
            for key, entries in state["exact"].items()
        }
        self._by_first_char = {
            first: list(keys) for first, keys in state["by_first_char"].items()
        }
        self._key_grams = {
            key: Counter(grams) for key, grams in state["key_grams"].items()
        }
        self._trie = state["trie"]
        self._max_key_tokens = int(state["max_key_tokens"])
        self._built_version = built_version
        return True

    def __len__(self) -> int:
        return len(self._exact)

    def lookup(self, surface: str) -> list[AliasEntry]:
        """Exact-normalised candidates for ``surface`` (possibly empty)."""
        return list(self._exact.get(normalize_name(surface), ()))

    def lookup_fuzzy(self, surface: str, limit: int = 5) -> list[AliasEntry]:
        """Fuzzy candidates via char-trigram Dice over same-initial keys.

        Only used when exact lookup fails (typos, partial names); priors are
        scaled by the similarity so fuzzy matches rank below exact ones.
        """
        key = normalize_name(surface)
        if not key:
            return []
        exact = self._exact.get(key)
        if exact:
            return list(exact[:limit])
        grams = char_ngrams(surface)
        key_grams = self._key_grams
        candidates: list[tuple[float, AliasEntry]] = []
        for other_key in self._by_first_char.get(key[0], ()):
            similarity = dice_similarity(grams, key_grams[other_key])
            if similarity >= self.fuzzy_threshold:
                for entry in self._exact[other_key]:
                    candidates.append(
                        (
                            similarity,
                            AliasEntry(
                                entity=entry.entity,
                                prior=entry.prior * similarity,
                                exact=False,
                            ),
                        )
                    )
        candidates.sort(key=lambda item: (-item[1].prior, item[1].entity))
        return [entry for _, entry in candidates[:limit]]

    def contains(self, surface: str) -> bool:
        """True when an exact-normalised entry exists for ``surface``."""
        return normalize_name(surface) in self._exact

    @property
    def trie(self) -> dict:
        """Word-level trie over normalised keys (built at refresh).

        Nested dicts: edge labels are normalised words; a ``TRIE_KEY``
        entry marks that the path from the root spells a complete key.
        """
        return self._trie

    def max_key_tokens(self) -> int:
        """Longest key length in tokens (bounds the detector's n-grams)."""
        return self._max_key_tokens


def save_alias_table(table: AliasTable, directory: str | Path) -> dict:
    """Persist a fresh table's state as a marshalled sidecar + manifest.

    The state is nested builtin containers (not flat arrays), so it rides
    in one ``state.marshal`` blob — checksummed like the array layers, and
    stamped with the writer's python/marshal version so an incompatible
    reader rebuilds instead of guessing.
    """
    if table.is_stale:
        raise StoreError("refusing to persist a stale alias table")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sidecar = write_marshal(directory / "state.marshal", table.state())
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "alias",
        "store_version": table._built_version,
        "arrays": {},
        "sidecar": sidecar,
        "extra": {"fuzzy_threshold": table.fuzzy_threshold, "keys": len(table)},
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return manifest


def load_alias_state(
    directory: str | Path,
    *,
    expected_store_version: int | None = None,
) -> tuple[dict, int, dict]:
    """Load (state, built_version, extra) written by :func:`save_alias_table`.

    Raises :class:`StoreError` on corruption and :class:`SnapshotStaleError`
    on a version (store or python/marshal) mismatch — callers fall back to
    :meth:`AliasTable.refresh`.
    """
    directory = Path(directory)
    manifest = read_manifest(directory, kind="alias")
    if (
        expected_store_version is not None
        and manifest.get("store_version") != expected_store_version
    ):
        raise SnapshotStaleError(
            f"alias snapshot {directory} built at store version "
            f"{manifest.get('store_version')!r}, expected {expected_store_version}"
        )
    state = read_marshal(directory / "state.marshal", manifest.get("sidecar", {}))
    if not isinstance(state, dict) or "exact" not in state:
        raise StoreError(f"corrupt alias snapshot state in {directory}")
    return state, int(manifest["store_version"]), manifest.get("extra", {})


def apply_alias(base: tuple, payloads: list[LayerPayload]) -> tuple:
    """Apply delta key updates over a loaded base state; tip-stamped.

    ``base`` and the result are :func:`load_alias_state` tuples.  Updated
    keys keep their position in the exact map, added keys append (where
    a refresh puts keys of newly catalogued entities), removed keys drop;
    the derived structures are rebuilt from the merged map.
    """
    if not payloads:
        return base
    state, _version, extra = base
    exact = dict(state["exact"])
    for payload in payloads:
        for key, entries in [*payload.extra["updated"].items(), *payload.extra["added"].items()]:
            exact[key] = [tuple(entry) for entry in entries]
        for key in payload.extra["removed"]:
            exact.pop(key, None)
    return derive_state(exact), payloads[-1].store_version, dict(extra)


class AliasDiff:
    """Computes a live store's alias-key deltas over the published tip.

    Only entity records feed the table, so a generation that recorded no
    entity ships no updates; otherwise the keys whose entries differ from
    the tip's ship in full, exactly as a refresh at the new version
    computes them.
    """

    def __init__(self, store: TripleStore, tip: tuple) -> None:
        self.store = store
        self.exact = tip[0]["exact"]

    def diff(
        self, keys: list[tuple[str, str, str]], entities: list[str]
    ) -> tuple[LayerPayload, Callable[[], None]]:
        old = self.exact
        exact = exact_entries(self.store) if entities else old
        updates = {
            "updated": {k: v for k, v in exact.items() if k in old and v != old[k]},
            "added": {k: v for k, v in exact.items() if k not in old},
            "removed": [k for k in old if k not in exact],
        }

        def commit() -> None:
            self.exact = exact

        return LayerPayload(self.store.version, {}, updates), commit
