"""Tenant overlay graphs: a personal KG read through the shared bundle.

The delta machinery in :mod:`repro.kg.deltas` chains generations of *one*
store: every adjacency delta's base is the previous generation of the
same graph.  This module generalises the base away from "prior generation"
to "shared open-domain bundle" — the Saga shape (Ilyas et al., 2022) where
thousands of per-user personal graphs layer over a single immutable
snapshot.  :func:`overlay_payload` computes one synthetic
:class:`~repro.kg.adjacency.AdjacencyDelta` from a personal
:class:`TripleStore` — the rows of every node the tenant touches, in the
merged id space — and an :class:`OverlayView` reads those rows beside the
shared base without merging the two:

* the shared base CSR is referenced, never copied or mutated: the view's
  dictionary looks a string up in the base first, then in a small map of
  the tenant's own strings, and its row list is a pointer copy of the
  base's :meth:`~repro.kg.adjacency.CSRAdjacency.neighbor_id_rows` with
  only the tenant's rows replaced, so every resident tenant shares one
  mmap and one row mirror;
* personal nodes take ids past ``base.num_nodes``, so a shared-bundle
  generation swap (which only ever *appends* to the dictionary) leaves
  overlay row contents meaningful — the view is simply rebuilt against
  the new base and personal facts land on the same strings;
* the view is stamped at the personal store's version, so a
  :class:`~repro.kg.graph_engine.GraphEngine` over the (frozen) personal
  store adopts it and never silently rebuilds a shared-graph-free CSR.

The view answers what tenants may ask — walks and neighbourhoods, which
read only the dictionary and the id rows.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import StoreError
from repro.kg.adjacency import AdjacencyDelta, CSRAdjacency, build_csr
from repro.kg.encoding import Dictionary
from repro.kg.graph_engine import GraphEngine
from repro.kg.store import TripleStore


class OverlayDictionary:
    """The base dictionary, then the tenant's strings appended past it.

    Owns no reverse map of base size: a lookup tries the shared base
    first.  ``dictionary[node_id]`` decodes either side of ``base_n``, so
    :meth:`_strings_view` can hand hot paths the dictionary itself.
    """

    __slots__ = ("base", "base_n", "extra", "_base_strings", "_extra_id")

    def __init__(self, base: Dictionary, base_n: int, extra: list[str]) -> None:
        self.base = base
        self.base_n = base_n
        self.extra = extra
        self._base_strings = base._strings_view()
        self._extra_id = {string: base_n + i for i, string in enumerate(extra)}

    def get(self, string: str) -> int | None:
        known = self.base.get(string)
        return self._extra_id.get(string) if known is None else known

    def __getitem__(self, node_id: int) -> str:
        if node_id < self.base_n:
            return self._base_strings[node_id]
        return self.extra[node_id - self.base_n]

    def _strings_view(self) -> OverlayDictionary:
        return self


def overlay_payload(base: CSRAdjacency, personal: TripleStore) -> AdjacencyDelta:
    """One synthetic delta layering ``personal``'s facts over ``base``.

    Each personal node's row is its :func:`~repro.kg.adjacency.build_csr`
    row over the personal store united with its base row, so a walk over
    the overlay view visits the same neighbor sets a from-scratch build of
    shared+personal would.  Strings absent from the
    base dictionary append in sorted order — deterministic, so two builds
    of the same (base, personal) pair are byte-identical.
    """
    own = build_csr(personal)
    own_strings = own.dictionary.strings()
    base_dictionary = base.dictionary
    base_n = base.num_nodes
    new_strings = sorted(n for n in own_strings if base_dictionary.get(n) is None)
    node_id = OverlayDictionary(base_dictionary, base_n, new_strings).get
    base_strings = base_dictionary._strings_view()
    rows = []
    for nid, own_id in sorted((node_id(n), i) for i, n in enumerate(own_strings)):
        combined = {own_strings[i] for i in own.neighbors_of(own_id).tolist()}
        if nid < base_n:
            combined.update(base_strings[i] for i in base.neighbors_of(nid))
        row = np.asarray([node_id(n) for n in sorted(combined)], dtype=np.int32)
        rows.append((nid, row))
    return AdjacencyDelta(personal.version, base.built_version, new_strings, rows)


class OverlayView:
    """Read-only rows of shared base + one personal store, stamped at its version.

    The snapshot a tenant's :class:`GraphEngine` adopts: rows of nodes the
    tenant did not touch are the base's own row objects.
    """

    def __init__(self, base: CSRAdjacency, personal: TripleStore) -> None:
        delta = overlay_payload(base, personal)
        self.built_version = delta.store_version
        self.dictionary = OverlayDictionary(
            base.dictionary, base.num_nodes, delta.new_strings
        )
        # Every appended string is a personal node, so each placeholder is
        # replaced below.
        rows = base.neighbor_id_rows() + [[]] * len(delta.new_strings)
        for node, row in delta.rows:
            rows[node] = row.tolist()
        self._rows = rows

    def neighbor_id_rows(self) -> list[list[int]]:
        return self._rows


class TenantOverlay:
    """One tenant's read view: shared base + frozen personal store.

    The personal store must not mutate while the overlay lives — writes go
    through the tenant's durable record store, which derives a *new*
    personal store and a new overlay (the same adopt-or-rebuild contract
    every physical layer in this repo follows).  ``engine()`` raises rather
    than degrade: a version drift would otherwise silently rebuild a CSR
    from the personal store alone, answering without the shared graph.
    """

    def __init__(self, base: CSRAdjacency, personal: TripleStore) -> None:
        self.base = base
        self.personal = personal
        self.personal_version = personal.version
        self.view = OverlayView(base, personal)
        self._engine: GraphEngine | None = None

    def engine(self) -> GraphEngine:
        """A :class:`GraphEngine` serving the overlay view (cached)."""
        if self._engine is None:
            if self.personal.version != self.personal_version:
                raise StoreError(
                    f"tenant personal store moved ({self.personal_version} -> "
                    f"{self.personal.version}) under a live overlay; rebuild it"
                )
            engine = GraphEngine(self.personal)
            if not engine.adopt_snapshot(self.view):
                raise StoreError(
                    "tenant overlay view rejected by the personal store "
                    f"(built {self.view.built_version}, store "
                    f"{self.personal.version})"
                )
            self._engine = engine
        return self._engine
