"""Bundle integrity check: ``python -m repro.kg.fsck <bundle> [<bundle> ...]``.

Loads each bundle the way serving does, but eagerly: ``chain.json``
linkage, every generation manifest, every listed layer's and delta
payload's checksums, the fact logs, and the append-only id invariant (a
delta appending a string its parent already holds fails the adjacency
and embeddings folds).  Then checks that every listed layer reached the
tip, that every row of the folded CSR is sorted by neighbour string, and
that the folded embeddings vocabulary holds each name once and every kNN
posting names one of its rows.  Exits 0 when every bundle is sound, 1
with one line per problem otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.common.errors import StoreError
from repro.common.snapshot_io import LayerPayload, unpack_strings
from repro.kg.adjacency import CSRAdjacency
from repro.kg.persistence import LAYERS, load_snapshot


def unsorted_row(csr: CSRAdjacency) -> str | None:
    """The first node whose neighbours are not strictly increasing by
    string (or a row naming an unknown id), else ``None``."""
    strings = csr.dictionary.strings()
    indptr, indices = csr.indptr.tolist(), csr.indices.tolist()
    if indices and not 0 <= min(indices) <= max(indices) < len(strings):
        return "<a row naming an unknown node id>"
    for node in range(csr.num_nodes):
        row = [strings[i] for i in indices[indptr[node] : indptr[node + 1]]]
        if any(left >= right for left, right in zip(row, row[1:])):
            return strings[node]
    return None


def embeddings_problem(layer: LayerPayload) -> str | None:
    """The first fault of a (folded) embeddings layer: a vocabulary name
    held twice, or a kNN posting outside the rows; else ``None``."""
    arrays = layer.arrays
    for kind in ("entity", "relation"):
        names = unpack_strings(arrays[f"{kind}_blob"], arrays[f"{kind}_offsets"])
        if len(set(names)) != len(names):
            return f"embeddings vocabulary holds a {kind} twice"
    indices = np.asarray(arrays["knn_postings_indices"])
    offsets = np.asarray(arrays["knn_postings_offsets"])
    rows = len(arrays["knn_rows"])
    if (indices.size and not 0 <= indices.min() <= indices.max() < rows) or (
        offsets[-1] != len(indices)
    ):
        return f"a kNN posting names no row of {rows}"
    return None


def check_bundle(bundle: str | Path) -> list[str]:
    """Every integrity problem found in ``bundle`` (empty when sound)."""
    try:
        snapshot = load_snapshot(bundle, defer_facts=False)
    except (StoreError, ValueError) as exc:
        return [f"{bundle}: {exc}"]
    problems = []
    chained = snapshot.manifest.get("chain", {}).get("deltas", 0) > 0
    for name in snapshot.manifest["layers"]:
        if getattr(snapshot, name) is None and (LAYERS[name].apply or not chained):
            problems.append(f"{bundle}: layer {name!r} is stale at the tip")
    if snapshot.adjacency is not None:
        node = unsorted_row(snapshot.adjacency)
        if node is not None:
            problems.append(f"{bundle}: row of {node!r} is not sorted by neighbour string")
    if snapshot.embeddings is not None:
        problem = embeddings_problem(snapshot.embeddings)
        if problem is not None:
            problems.append(f"{bundle}: {problem}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kg.fsck",
        description="Verify bundle chain linkage, layer checksums, CSR row order "
        "and append-only dictionary ids.",
    )
    parser.add_argument("bundles", nargs="+", help="bundle directories to check")
    failed = False
    for bundle in parser.parse_args(argv).bundles:
        problems = check_bundle(bundle)
        for problem in problems:
            print(f"fsck: {problem}", file=sys.stderr)
        if not problems:
            print(f"fsck: {bundle}: ok")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
