"""Tenant overlay graphs: a personal KG spliced over the shared bundle.

The delta machinery in :mod:`repro.kg.deltas` chains generations of *one*
store: every adjacency delta's base is the previous generation of the
same graph.  This module generalises the base away from "prior generation"
to "shared open-domain bundle" — the Saga shape (Ilyas et al., 2022) where
thousands of per-user personal graphs layer over a single immutable
snapshot.  A tenant overlay is one synthetic in-memory
:class:`~repro.kg.adjacency.AdjacencyDelta` built from a personal
:class:`TripleStore` and merged by the adjacency layer's own ``apply``
(:func:`~repro.kg.adjacency.apply_adjacency`) with the shared CSR as its
base, so every read-side invariant (append-only id space, string-sorted
rows, tip-stamped versions) holds by construction:

* the shared base CSR is referenced, never copied or mutated — every
  resident tenant shares one mmap;
* personal nodes take ids past ``base.num_nodes``, so a shared-bundle
  generation swap (which only ever *appends* to the dictionary) leaves
  overlay row contents meaningful — the overlay is simply rebuilt against
  the new base and personal facts land on the same strings;
* the collapsed snapshot is stamped at the personal store's version, so a
  :class:`~repro.kg.graph_engine.GraphEngine` over the (frozen) personal
  store adopts it and never silently rebuilds a shared-graph-free CSR.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import StoreError
from repro.kg.adjacency import AdjacencyDelta, CSRAdjacency, apply_adjacency, build_csr
from repro.kg.graph_engine import GraphEngine
from repro.kg.store import TripleStore


def overlay_payload(base: CSRAdjacency, personal: TripleStore) -> AdjacencyDelta:
    """One synthetic delta layering ``personal``'s facts over ``base``.

    Each personal node's row is its :func:`~repro.kg.adjacency.build_csr`
    row over the personal store united with its base row (degrees add),
    so a walk over the collapsed overlay visits the same neighbor sets a
    from-scratch build of shared+personal would.  Strings absent from the
    base dictionary append in sorted order — deterministic, so two builds
    of the same (base, personal) pair are byte-identical.
    """
    own = build_csr(personal)
    own_strings = own.dictionary.strings()
    base_dictionary = base.dictionary
    base_n = base.num_nodes
    new_strings = sorted(n for n in own_strings if base_dictionary.get(n) is None)
    extra_id_of = {string: base_n + i for i, string in enumerate(new_strings)}

    def node_id(string: str) -> int:
        known = base_dictionary.get(string)
        return extra_id_of[string] if known is None else known

    base_strings = base_dictionary._strings_view()
    rows = []
    for nid, own_id in sorted((node_id(n), i) for i, n in enumerate(own_strings)):
        combined = {own_strings[i] for i in own.neighbors_of(own_id).tolist()}
        degree = int(own.entity_edge_degrees[own_id])
        if nid < base_n:
            combined.update(base_strings[i] for i in base.neighbors_of(nid))
            degree += int(base.entity_edge_degrees[nid])
        row = np.asarray([node_id(n) for n in sorted(combined)], dtype=np.int32)
        rows.append((nid, row, degree))

    predicate_counts = dict(base.predicate_counts)
    for predicate, count in own.predicate_counts.items():
        predicate_counts[predicate] = predicate_counts.get(predicate, 0) + count
    return AdjacencyDelta(
        personal.version, base.built_version, new_strings, rows, predicate_counts
    )


def collapse_overlay(base: CSRAdjacency, personal: TripleStore) -> CSRAdjacency:
    """The merged shared+personal CSR, stamped at ``personal.version``."""
    return apply_adjacency(base, [overlay_payload(base, personal).to_payload()])


class TenantOverlay:
    """One tenant's merged read view: shared base + frozen personal store.

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
        self.snapshot = collapse_overlay(base, personal)
        self._engine: GraphEngine | None = None

    @property
    def base_version(self) -> int:
        return self.base.built_version

    @property
    def num_personal_nodes(self) -> int:
        return self.snapshot.num_nodes - self.base.num_nodes

    def engine(self) -> GraphEngine:
        """A :class:`GraphEngine` serving the merged view (cached)."""
        if self._engine is None:
            if self.personal.version != self.personal_version:
                raise StoreError(
                    f"tenant personal store moved ({self.personal_version} -> "
                    f"{self.personal.version}) under a live overlay; rebuild it"
                )
            engine = GraphEngine(self.personal)
            if not engine.adopt_snapshot(self.snapshot):
                raise StoreError(
                    "tenant overlay snapshot rejected by the personal store "
                    f"(built {self.snapshot.built_version}, store "
                    f"{self.personal.version})"
                )
            self._engine = engine
        return self._engine
