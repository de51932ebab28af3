"""Tests for the fact-ranking service."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.common import ids
from repro.embeddings.inference import BatchInference
from repro.services.fact_ranking import (
    FactRanker,
    FactRankerConfig,
    _ndcg,
    evaluate_fact_ranking,
)

OCCUPATION = ids.predicate_id("occupation")


@pytest.fixture(scope="module")
def ranker(kg, trained):
    return FactRanker(kg.store, BatchInference(trained.trained))


class TestRank:
    def test_returns_all_values(self, kg, ranker):
        person = next(
            p for p, order in kg.truth.occupation_order.items() if len(order) >= 2
        )
        stored = set(kg.store.objects(person, OCCUPATION))
        ranked = ranker.rank(person, OCCUPATION)
        assert {item.obj for item in ranked} == stored

    def test_scores_sorted(self, kg, ranker):
        person = next(iter(kg.truth.occupation_order))
        ranked = ranker.rank(person, OCCUPATION)
        scores = [item.score for item in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_empty_for_unknown_subject(self, ranker):
        assert ranker.rank("entity:ghost", OCCUPATION) == []

    def test_rank_many_matches_per_subject_rank(self, kg, ranker):
        """The batched scoring pass is identical to one rank() per subject."""
        subjects = sorted(kg.truth.occupation_order)[:6] + ["entity:ghost"]
        batched = ranker.rank_many(subjects, OCCUPATION)
        assert batched == [ranker.rank(subject, OCCUPATION) for subject in subjects]

    def test_rank_many_empty(self, ranker):
        assert ranker.rank_many([], OCCUPATION) == []

    def test_feature_breakdown_attached(self, kg, ranker):
        person = next(iter(kg.truth.occupation_order))
        ranked = ranker.rank(person, OCCUPATION)
        for item in ranked:
            assert 0.0 <= item.agreement <= 1.0
            assert 0.0 <= item.confidence <= 1.0

    def test_agreement_favours_supported_occupation(self, kg, trained):
        """Primary occupations (with domain edges) get higher agreement than
        noise occupations asserted with no supporting structure."""
        ranker = FactRanker(kg.store, BatchInference(trained.trained))
        noise_by_subject = {}
        for fact in kg.truth.noise_facts:
            noise_by_subject.setdefault(fact.subject, fact.obj)
        wins = 0
        total = 0
        for person, order in kg.truth.occupation_order.items():
            noise_obj = noise_by_subject.get(person)
            if noise_obj is None:
                continue
            ranked = {item.obj: item for item in ranker.rank(person, OCCUPATION)}
            if order[0] in ranked and noise_obj in ranked:
                total += 1
                if ranked[order[0]].agreement >= ranked[noise_obj].agreement:
                    wins += 1
        assert total > 0
        assert wins / total > 0.8


class TestEvaluation:
    def test_better_than_chance(self, kg, ranker):
        report = evaluate_fact_ranking(ranker, OCCUPATION, kg.truth.occupation_order)
        assert report.num_subjects > 0
        # Random precision@1 with ~2-3 values is ~0.45; require clearly better.
        assert report.precision_at_1 > 0.5
        assert report.ndcg > 0.7

    def test_min_values_filter(self, kg, ranker):
        all_subjects = evaluate_fact_ranking(
            ranker, OCCUPATION, kg.truth.occupation_order, min_values=1
        )
        multi_only = evaluate_fact_ranking(
            ranker, OCCUPATION, kg.truth.occupation_order, min_values=2
        )
        assert multi_only.num_subjects <= all_subjects.num_subjects

    def test_weights_matter(self, kg, trained):
        """Zeroing every informative weight degrades precision."""
        informed = FactRanker(kg.store, BatchInference(trained.trained))
        blind = FactRanker(
            kg.store,
            BatchInference(trained.trained),
            FactRankerConfig(
                weight_model=0.0, weight_agreement=0.0,
                weight_popularity=0.0, weight_confidence=0.0,
            ),
        )
        informed_report = evaluate_fact_ranking(
            informed, OCCUPATION, kg.truth.occupation_order
        )
        blind_report = evaluate_fact_ranking(
            blind, OCCUPATION, kg.truth.occupation_order
        )
        assert informed_report.precision_at_1 >= blind_report.precision_at_1


class TestNDCG:
    def test_perfect_order(self):
        assert _ndcg(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_reversed_order_lower(self):
        assert _ndcg(["c", "b", "a"], ["a", "b", "c"]) < 1.0

    def test_irrelevant_items_no_gain(self):
        assert _ndcg(["x", "y"], ["a"]) == 0.0


# Ranks every subject with three or more values of one predicate and
# prints the fact_rank wire payload.
_RANK_SCRIPT = """
import collections, json
from repro.embeddings.suite import EmbeddingSuiteConfig, build_embedding_suite
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.serving.protocol import payload_to_wire

kg = generate_kg(SyntheticKGConfig(seed=7, scale=0.1))
suite = build_embedding_suite(kg.store, EmbeddingSuiteConfig(epochs=2))
counts = collections.Counter((f.subject, f.predicate) for f in kg.store.scan())
multi = sorted(key for key, n in counts.items() if n >= 3)
predicate = multi[0][1]
subjects = sorted({s for s, p in multi if p == predicate})
payload = suite.ranker.rank_many(subjects, predicate)
print(json.dumps(payload_to_wire("fact_rank", payload), sort_keys=True))
"""


class TestHashSeedIndependence:
    def test_fact_rank_payload_is_identical_across_hash_seeds(self):
        """Candidate sets are z-normalised in a fixed order, so the wire
        payload is byte-identical whatever ``PYTHONHASHSEED`` is."""
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _RANK_SCRIPT],
                env=env,
                capture_output=True,
                timeout=120,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
