"""Shared benchmark fixtures: one full-scale world, trained once per session.

Each bench reproduces one paper figure (F1–F7) or pins one subsystem (F-*).
Quality numbers are attached to each benchmark's ``extra_info`` (visible in
pytest-benchmark output) and also appended to ``benchmarks/results.jsonl``,
whose newest row per stage is the baseline ``check_regressions.py`` compares
a fresh run against and README quotes.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import pytest

from repro.annotation.pipeline import make_pipeline
from repro.common import ids
from repro.embeddings.pipeline import EmbeddingPipelineConfig, run_embedding_pipeline
from repro.embeddings.trainer import TrainConfig
from repro.kg.generator import SyntheticKGConfig, generate_kg, hold_out_facts
from repro.kg.views import embedding_training_view
from repro.web.corpus import WebCorpusConfig, generate_corpus
from repro.web.search import BM25SearchEngine

# CI smoke knobs: BENCH_SCALE shrinks the synthetic world (and corpus)
# proportionally; BENCH_SMOKE=1 downgrades speed/quality floor assertions
# to warnings (a 0.05-scale world says nothing about scale-1.0 speedups —
# the smoke run only guards imports and API contracts); BENCH_RESULTS
# redirects the row log so smoke runs never pollute the committed
# baseline in results.jsonl.
SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))
SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"
RESULTS_PATH = Path(
    os.environ.get("BENCH_RESULTS", Path(__file__).parent / "results.jsonl")
)

DOB = ids.predicate_id("date_of_birth")
POB = ids.predicate_id("place_of_birth")


def record_result(experiment: str, row: dict) -> None:
    """Append one experiment row to the results log and echo it."""
    payload = {"experiment": experiment, **row}
    with RESULTS_PATH.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, default=float) + "\n")
    print(f"\n[{experiment}] " + json.dumps(row, sort_keys=True, default=float))


def check_floor(condition: bool, message: str) -> None:
    """Assert a speed/quality floor — downgraded to a warning in smoke mode.

    Byte-identity parity assertions must NOT go through here: they hold at
    every scale and guard correctness, not performance.
    """
    if SMOKE:
        if not condition:
            warnings.warn(f"[smoke] floor not met (ignored): {message}", stacklevel=2)
        return
    assert condition, message


def _scaled(count: int, floor: int = 4) -> int:
    """A corpus page count scaled with BENCH_SCALE (identity at 1.0)."""
    return max(floor, round(count * SCALE))


@pytest.fixture(scope="session")
def bench_kg():
    """Full-scale synthetic world (the benchmark substrate)."""
    return generate_kg(SyntheticKGConfig(seed=7, scale=SCALE))


@pytest.fixture(scope="session")
def bench_corpus(bench_kg):
    return generate_corpus(
        bench_kg,
        WebCorpusConfig(
            seed=11,
            num_profile_pages=_scaled(250),
            num_news_pages=_scaled(400),
            num_blog_pages=_scaled(160),
            num_list_pages=_scaled(40),
            num_distractor_pages=_scaled(50),
        ),
    )


@pytest.fixture(scope="session")
def bench_search(bench_corpus):
    return BM25SearchEngine(bench_corpus)


@pytest.fixture(scope="session")
def bench_trained(bench_kg):
    """Well-trained ComplEx embeddings over the filtered view."""
    config = EmbeddingPipelineConfig(
        train=TrainConfig(model="complex", dim=32, epochs=30, seed=1),
        view=embedding_training_view(min_predicate_frequency=5),
        eval_max_queries=150,
    )
    return run_embedding_pipeline(bench_kg.store, config)


@pytest.fixture(scope="session")
def bench_deployed(bench_kg):
    """Deployed KG with 25% of DOB/POB facts held out + truth map."""
    deployed, held_out = hold_out_facts(bench_kg, fraction=0.25, seed=13)
    truth: dict[tuple[str, str], str] = {}
    for fact in held_out:
        if fact.predicate == DOB:
            truth[(fact.subject, fact.predicate)] = fact.obj
        elif fact.predicate == POB:
            truth[(fact.subject, fact.predicate)] = bench_kg.store.entity(fact.obj).name
    return deployed, held_out, truth


@pytest.fixture(scope="session")
def bench_annotation_full(bench_kg):
    return make_pipeline(bench_kg.store, tier="full")


@pytest.fixture(scope="session")
def bench_annotation_lite(bench_kg):
    return make_pipeline(bench_kg.store, tier="lite")
