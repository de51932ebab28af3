"""F2-rel — Figure 2 "Related Entities".

Paper claim (§2): for the related-entities task, *specialized* embeddings
from graph-engine pre-computed traversals beat reusing the generic KG
embeddings.  We compare precision/recall@10 of the two backends against
generator ground truth and time a ``related`` call.  The traversal backend
uses the recipe every serving worker builds (``WorkerConfig``).
"""

import pytest

from benchmarks.conftest import SCALE, record_result
from repro.serving.worker import WorkerConfig
from repro.services.related_entities import (
    EmbeddingRelatedEntities,
    TraversalRelatedEntities,
    evaluate_related,
)
from repro.vector.service import EmbeddingService


@pytest.fixture(scope="module")
def backends(bench_kg, bench_trained):
    generic = EmbeddingRelatedEntities(
        EmbeddingService(bench_trained.trained), bench_kg.store
    )
    served = WorkerConfig()
    specialized = TraversalRelatedEntities(
        bench_kg.store,
        dim=served.related_dim,
        walk_length=served.related_walk_length,
        walks_per_entity=served.related_walks_per_entity,
        window=served.related_window,
        seed=served.related_seed,
    )
    return {"generic-kge": generic, "traversal-specialized": specialized}


@pytest.mark.parametrize("name", ["generic-kge", "traversal-specialized"])
def test_related_entities_quality(benchmark, bench_kg, backends, name):
    backend = backends[name]
    at_5 = evaluate_related(backend, bench_kg.truth.related, k=5, max_seeds=100)
    at_10 = evaluate_related(backend, bench_kg.truth.related, k=10, max_seeds=100)
    seeds = sorted(bench_kg.truth.related)[:50]

    def related_batch():
        for seed in seeds:
            backend.related(seed, k=10)

    benchmark(related_batch)
    benchmark.extra_info["recall_at_10"] = at_10.recall_at_k
    record_result(
        "F2-rel",
        {
            "backend": name,
            "scale": SCALE,
            "precision_at_5": round(at_5.precision_at_k, 3),
            "recall_at_5": round(at_5.recall_at_k, 3),
            "precision_at_10": round(at_10.precision_at_k, 3),
            "recall_at_10": round(at_10.recall_at_k, 3),
            "seeds": at_10.num_seeds,
        },
    )
