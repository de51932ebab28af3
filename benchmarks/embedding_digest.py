#!/usr/bin/env python
"""Print the sha256 of every ``embeddings``-layer array a build produces.

Two sections: ``fresh`` is the layer of a bundle saved from a seeded
synthetic world at ``--scale``; ``tip`` is the folded layer of the same
bundle after ``--generations`` published delta generations (each adds
one new entity and ~20 entity-valued facts, so every generation's
``EmbeddingDiff`` grows the vocabulary and runs its seeded training
passes).  The output is a pure function of the code and the arguments:
two runs under different ``PYTHONHASHSEED`` values, or two commits that
claim bit-identical training, must print the same lines.

    PYTHONPATH=src python benchmarks/embedding_digest.py --scale 0.5 --generations 4

CI runs it at scale 0.05 under two hash seeds and fails on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.common import ids
from repro.common.logging import set_level
from repro.embeddings.dataset import build_dataset
from repro.kg.deltas import GenerationPublisher
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import load_snapshot, save_snapshot
from repro.kg.store import EntityRecord
from repro.kg.triple import entity_fact

WORLD_SEED = 7
FACTS_PER_GENERATION = 20


def layer_digests(bundle: Path) -> dict[str, str]:
    """``{array name: sha256}`` of the bundle's (folded) embeddings layer."""
    layer = load_snapshot(bundle).embeddings
    if layer is None:
        raise SystemExit(f"{bundle}: no adoptable embeddings layer")
    return {
        name: hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        for name, array in sorted(layer.arrays.items())
    }


def grow(store, publisher: GenerationPublisher, generation: int) -> None:
    """Publish one seeded generation: a new entity plus entity-valued facts
    between entities the embedding vocabulary already holds."""
    rng = np.random.default_rng([WORLD_SEED, generation])
    pool = build_dataset(store).entities  # sorted: no hash-order dependence
    related = ids.predicate_id("related_to")
    newcomer = ids.entity_id(f"grown/digest-{generation:03d}")
    store.upsert_entity(EntityRecord(entity=newcomer, name=f"Digest {generation}"))
    facts = [entity_fact(newcomer, related, pool[int(rng.integers(len(pool)))])]
    while len(facts) < FACTS_PER_GENERATION:
        left, right = (pool[int(i)] for i in rng.choice(len(pool), 2, replace=False))
        if right not in store.objects(left, related):
            facts.append(entity_fact(left, related, right, confidence=0.9))
    for fact in facts:
        store.add(fact)
    publisher.record(keys=[fact.key for fact in facts], entities=[newcomer])
    publisher.publish()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--generations", type=int, default=4)
    args = parser.parse_args(argv)
    set_level("warning")  # the publisher logs every generation

    store = generate_kg(SyntheticKGConfig(seed=WORLD_SEED, scale=args.scale)).store
    with tempfile.TemporaryDirectory(prefix="embedding-digest-") as tmp:
        bundle = Path(tmp) / "bundle"
        save_snapshot(store, bundle)
        sections = [("fresh", layer_digests(bundle))]
        if args.generations > 0:
            publisher = GenerationPublisher(store, bundle)
            for generation in range(args.generations):
                grow(store, publisher, generation)
            publisher.join_compaction()
            sections.append(("tip", layer_digests(bundle)))
    for section, digests in sections:
        for name, digest in digests.items():
            print(f"{digest}  {section}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
