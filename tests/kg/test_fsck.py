"""``python -m repro.kg.fsck``: sound bundles pass, each defect class fails."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kg import SyntheticKGConfig, generate_kg
from repro.kg.deltas import CHAIN_NAME, GenerationPublisher
from repro.kg.fsck import check_bundle, main
from repro.kg.triple import entity_fact

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def bundle(tmp_path):
    """A chained bundle: base plus two deltas, one adding a new node."""
    store = generate_kg(SyntheticKGConfig(seed=7, scale=0.05)).store
    directory = tmp_path / "bundle"
    publisher = GenerationPublisher(store, directory, compact_every=0)
    entities = store.entity_ids()
    for n, obj in enumerate([entities[3], "entity:fsck/newcomer"]):
        fact = store.add(entity_fact(entities[n], "predicate:related_to", obj))
        publisher.record(keys=[fact.key])
        publisher.publish()
    return directory


def test_sound_bundle_passes(bundle, capsys):
    assert check_bundle(bundle) == []
    assert main([str(bundle)]) == 0
    assert "ok" in capsys.readouterr().out


def test_module_entry_point(bundle):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    ok = subprocess.run(
        [sys.executable, "-m", "repro.kg.fsck", str(bundle)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert ok.returncode == 0, ok.stderr
    (bundle / CHAIN_NAME).write_text("{broken", encoding="utf-8")
    bad = subprocess.run(
        [sys.executable, "-m", "repro.kg.fsck", str(bundle)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert bad.returncode != 0
    assert "chain" in bad.stderr


def test_corrupt_byte_fails(bundle, capsys):
    target = bundle / "deltas" / "delta-000001" / "adjacency" / "row_indices.npy"
    raw = bytearray(target.read_bytes())
    raw[-1] ^= 0x5A
    target.write_bytes(bytes(raw))
    assert main([str(bundle)]) != 0
    assert "checksum" in capsys.readouterr().err


def test_unsorted_row_fails(bundle, capsys):
    """Swap two neighbours of one base row no delta replaces, and re-stamp
    the checksum, so only the row-order check can catch it."""
    layer = bundle / "adjacency"
    indptr = np.load(layer / "indptr.npy")
    indices = np.load(layer / "indices.npy")
    row = int(np.flatnonzero(np.diff(indptr) >= 2)[-1])
    start = int(indptr[row])
    indices[start], indices[start + 1] = indices[start + 1], indices[start]
    np.save(layer / "indices.npy", indices, allow_pickle=False)
    manifest = json.loads((layer / "manifest.json").read_text(encoding="utf-8"))
    manifest["arrays"]["indices"]["sha256"] = hashlib.sha256(
        (layer / "indices.npy").read_bytes()
    ).hexdigest()
    (layer / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main([str(bundle)]) != 0
    assert "not sorted" in capsys.readouterr().err


def test_broken_linkage_fails(bundle, capsys):
    chain_path = bundle / CHAIN_NAME
    chain = json.loads(chain_path.read_text(encoding="utf-8"))
    chain["deltas"][1]["parent_version"] += 7
    chain_path.write_text(json.dumps(chain), encoding="utf-8")
    assert main([str(bundle)]) != 0
    assert "linkage" in capsys.readouterr().err


def test_reused_dictionary_string_fails(bundle):
    """A delta appending a string its parent already holds breaks the
    append-only id invariant."""
    from repro.common.snapshot_io import load_payload, write_arrays
    from repro.kg.adjacency import AdjacencyDelta

    layer = bundle / "deltas" / "delta-000002" / "adjacency"
    delta = AdjacencyDelta.from_payload(load_payload(layer, kind="adjacency-delta"))
    first_entity = json.loads((bundle / "entities.jsonl").read_text().splitlines()[0])
    delta.new_strings = [first_entity["entity"], *delta.new_strings]
    payload = delta.to_payload()
    write_arrays(
        layer,
        payload.arrays,
        kind="adjacency-delta",
        store_version=payload.store_version,
        extra=payload.extra,
    )
    problems = check_bundle(bundle)
    assert any("append-only" in problem for problem in problems), problems


def _rewrite(layer, kind, edit):
    """Load a layer's arrays, ``edit`` them and re-stamp the checksums, so
    only a semantic check can catch the change."""
    from repro.common.snapshot_io import load_payload, write_arrays

    payload = load_payload(layer, kind=kind, mmap=False)
    arrays = {name: np.array(array) for name, array in payload.arrays.items()}
    edit(arrays)
    write_arrays(
        layer, arrays, kind=kind, store_version=payload.store_version, extra=payload.extra
    )


def test_readded_embedding_entity_fails(bundle):
    """An embeddings delta appending an entity its parent already holds."""
    from repro.common.snapshot_io import pack_strings, unpack_strings

    def readd(arrays):
        appended = unpack_strings(arrays["entity_blob"], arrays["entity_offsets"])
        first = json.loads((bundle / "entities.jsonl").read_text().splitlines()[0])["entity"]
        assert appended == ["entity:fsck/newcomer"]
        arrays["entity_blob"], arrays["entity_offsets"] = pack_strings([first, *appended])

    _rewrite(bundle / "deltas" / "delta-000002" / "embeddings", "embeddings-delta", readd)
    problems = check_bundle(bundle)
    assert any("append-only" in problem for problem in problems), problems


@pytest.mark.parametrize("chained", [True, False])
def test_out_of_range_posting_fails(bundle, capsys, chained):
    """Caught by the chain fold, and by fsck's own check on a plain bundle."""
    def stray(arrays):
        arrays["knn_postings_indices"][-1] = len(arrays["knn_rows"]) + 3

    if not chained:
        (bundle / CHAIN_NAME).unlink()
    _rewrite(bundle / "embeddings", "embeddings", stray)
    assert main([str(bundle)]) != 0
    assert "kNN posting" in capsys.readouterr().err


def test_layers_with_dropped_columns_still_load(bundle):
    """Adjacency layers and deltas written when they still carried a
    per-node degree column and the store's predicate counts load, fold to
    the rows of a fresh build and pass fsck."""
    from repro.common.snapshot_io import load_payload, write_arrays
    from repro.kg.adjacency import build_csr
    from repro.kg.persistence import load_snapshot

    deltas = sorted((bundle / "deltas").iterdir())
    layers = [(bundle / "adjacency", "adjacency", "entity_edge_degrees", "indptr", 1)]
    layers += [
        (delta / "adjacency", "adjacency-delta", "changed_degrees", "changed_nodes", 0)
        for delta in deltas
    ]
    for layer, kind, column, sized_by, extra_rows in layers:
        payload = load_payload(layer, kind=kind, mmap=False)
        arrays = {name: np.array(array) for name, array in payload.arrays.items()}
        # Stand-in values: nothing reads the dropped column any more.
        arrays[column] = np.ones(len(arrays[sized_by]) - extra_rows, dtype=np.int64)
        extra = {**payload.extra, "predicate_counts": {"predicate:related_to": 1}}
        write_arrays(
            layer, arrays, kind=kind, store_version=payload.store_version, extra=extra
        )
        manifest = json.loads((layer / "manifest.json").read_text(encoding="utf-8"))
        assert column in manifest["arrays"] and "predicate_counts" in manifest["extra"]

    snapshot = load_snapshot(bundle)
    folded = snapshot.adjacency
    fresh = build_csr(snapshot.store)
    assert folded.built_version == fresh.built_version
    assert sorted(folded.dictionary.strings()) == sorted(fresh.dictionary.strings())
    assert folded.num_edges == fresh.num_edges

    def row(csr, node):
        node_id = csr.dictionary.get(node)
        return [csr.dictionary.string_of(int(i)) for i in csr.neighbors_of(node_id)]

    for node in fresh.dictionary.strings():
        assert row(folded, node) == row(fresh, node), node
    assert check_bundle(bundle) == []
    assert main([str(bundle)]) == 0
