"""Tests for context encoding, candidate generation and NER typing."""

import numpy as np
import pytest

from repro.annotation.alias_table import AliasTable
from repro.annotation.candidates import CandidateGenerator, CandidateGeneratorConfig
from repro.annotation.context_encoder import EntityContextIndex, HashingContextEncoder
from repro.annotation.mention import Mention
from repro.annotation.ner import PERSON, EntityTyper
from repro.common import ids
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import entity_fact


@pytest.fixture()
def store():
    s = TripleStore()
    s.upsert_entity(
        EntityRecord(
            entity="entity:player", name="Michael Jordan", popularity=0.9,
            types=(ids.type_id("basketball_player"), ids.type_id("person")),
            description="Michael Jordan is a basketball player.",
        )
    )
    s.upsert_entity(
        EntityRecord(
            entity="entity:prof", name="Michael Jordan", popularity=0.3,
            types=(ids.type_id("person"),),
            description="Michael Jordan is a university professor.",
        )
    )
    s.upsert_entity(
        EntityRecord(
            entity="entity:team", name="Chicago Hawks", popularity=0.5,
            types=(ids.type_id("sports_team"),),
            description="The Chicago Hawks are a basketball team.",
        )
    )
    s.add(entity_fact("entity:player", ids.predicate_id("member_of_sports_team"), "entity:team"))
    return s


class TestEncoder:
    def test_deterministic_across_instances(self):
        a = HashingContextEncoder(dim=64).encode_text("basketball stats game")
        b = HashingContextEncoder(dim=64).encode_text("basketball stats game")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        vector = HashingContextEncoder(dim=64).encode_text("some words here")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        vector = HashingContextEncoder(dim=64).encode_text("")
        assert np.all(vector == 0)

    def test_similar_texts_closer(self):
        encoder = HashingContextEncoder(dim=256)
        a = encoder.encode_text("basketball game player team score")
        b = encoder.encode_text("basketball team player match")
        c = encoder.encode_text("university research professor students")
        assert float(a @ b) > float(a @ c)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            HashingContextEncoder(dim=0)

    def test_batch_matches_single_bitwise(self):
        encoder = HashingContextEncoder(dim=64)
        token_lists = [
            ["basketball", "game", "player"],
            [],
            ["professor", "students", "professor", "university"],
            ["one"],
        ]
        batch = encoder.encode_batch(token_lists)
        assert batch.shape == (4, 64)
        for row, tokens in enumerate(token_lists):
            assert np.array_equal(batch[row], encoder.encode_tokens(tokens))

    def test_memoisation_does_not_change_vectors(self):
        warm = HashingContextEncoder(dim=64)
        warm.encode_tokens(["alpha", "beta"])  # warm the token memo
        cold = HashingContextEncoder(dim=64)
        assert np.array_equal(
            warm.encode_tokens(["alpha", "beta", "gamma"]),
            cold.encode_tokens(["alpha", "beta", "gamma"]),
        )


class TestEntityContextIndex:
    def test_build_counts(self, store):
        index = EntityContextIndex(store)
        assert index.build() == 3
        assert not index.is_stale

    def test_vectors_cached(self, store):
        index = EntityContextIndex(store)
        index.build()
        v1 = index.vector("entity:player")
        v2 = index.vector("entity:player")
        assert np.array_equal(v1, v2)

    def test_context_disambiguates(self, store):
        """Basketball context is closer to the player than the professor."""
        index = EntityContextIndex(store)
        index.build()
        query = index.encoder.encode_text("basketball stats game team")
        assert index.similarity(query, "entity:player") > index.similarity(
            query, "entity:prof"
        )

    def test_unknown_entity_zero_vector(self, store):
        index = EntityContextIndex(store)
        assert np.all(index.vector("entity:ghost") == 0)

    def test_staleness(self, store):
        index = EntityContextIndex(store)
        index.build()
        store.upsert_entity(EntityRecord(entity="entity:new", name="New", popularity=0.1))
        assert index.is_stale

    def test_rows_gather_matches_vectors(self, store):
        index = EntityContextIndex(store)
        index.build()
        entities = ["entity:team", "entity:player", "entity:team"]
        rows = index.rows(entities)
        assert rows.shape == (3, index.encoder.dim)
        for row, entity in zip(rows, entities):
            assert np.array_equal(row, index.vector(entity))
        assert index.rows([]).shape == (0, index.encoder.dim)

    def test_rows_materialise_misses(self, store):
        index = EntityContextIndex(store)  # never built
        rows = index.rows(["entity:player", "entity:ghost"])
        assert np.any(rows[0] != 0)
        assert np.all(rows[1] == 0)

    def test_kv_store_remains_persistence_view(self, store):
        index = EntityContextIndex(store)
        index.build()
        assert len(index) == 3
        for record in store.entities():
            assert np.array_equal(index.cache.get(record.entity), index.vector(record.entity))

    def test_clear_reads_cold(self, store):
        index = EntityContextIndex(store)
        index.build()
        index.clear()
        assert len(index) == 0
        assert len(index.cache) == 0
        assert index.is_stale
        # Still serves vectors, recomputed from the live store.
        assert np.any(index.vector("entity:player") != 0)


class TestCandidateGenerator:
    def test_generates_with_priors(self, store):
        generator = CandidateGenerator(AliasTable(store), store)
        candidates = generator.generate(Mention(0, 14, "Michael Jordan"))
        assert len(candidates) == 2
        assert candidates[0].prior >= candidates[1].prior
        assert all(c.name_similarity == pytest.approx(1.0) for c in candidates)

    def test_max_candidates(self, store):
        generator = CandidateGenerator(
            AliasTable(store), store, CandidateGeneratorConfig(max_candidates=1)
        )
        assert len(generator.generate(Mention(0, 14, "Michael Jordan"))) == 1

    def test_fuzzy_fallback(self, store):
        generator = CandidateGenerator(AliasTable(store), store)
        candidates = generator.generate(Mention(0, 13, "Chicago Hawkes"))
        assert any(c.entity == "entity:team" for c in candidates)

    def test_fuzzy_disabled(self, store):
        generator = CandidateGenerator(
            AliasTable(store), store, CandidateGeneratorConfig(enable_fuzzy=False)
        )
        assert generator.generate(Mention(0, 13, "Chicago Hawkes")) == []


class TestEntityTyper:
    def test_types_from_kg(self, store):
        typer = EntityTyper(store)
        assert typer.label_for_entity("entity:player") == PERSON
        assert typer.label_for_entity("entity:team") == "ORG"
        assert typer.label_for_entity("entity:ghost") == "OTHER"

    def test_mention_invariants(self):
        with pytest.raises(ValueError):
            Mention(5, 5, "")
