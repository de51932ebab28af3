"""Tests for KG profiling (coverage + freshness)."""

import pytest

from repro.kg.generator import SYNTHETIC_NOW, build_ontology
from repro.kg.profiling import KGProfiler
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import LiteralType, entity_fact, literal_fact

YEAR = 365.25 * 24 * 3600


@pytest.fixture()
def world():
    """Two people: one fully covered, one with gaps and a stale fact."""
    store = TripleStore()
    onto = build_ontology()
    store.upsert_entity(
        EntityRecord(entity="entity:full", name="Full", types=("type:person",), popularity=0.9)
    )
    store.upsert_entity(
        EntityRecord(entity="entity:gappy", name="Gappy", types=("type:person",), popularity=0.5)
    )
    # 'full' has every expected person predicate.
    store.add(entity_fact("entity:full", "predicate:occupation", "entity:occ"))
    store.add(literal_fact("entity:full", "predicate:date_of_birth", "1980-01-01",
                           LiteralType.DATE, updated_at=SYNTHETIC_NOW - YEAR))
    store.add(entity_fact("entity:full", "predicate:place_of_birth", "entity:city"))
    store.add(entity_fact("entity:full", "predicate:citizen_of", "entity:country"))
    # 'gappy' misses DOB and citizenship, and has a stale volatile fact.
    store.add(entity_fact("entity:gappy", "predicate:occupation", "entity:occ"))
    store.add(entity_fact("entity:gappy", "predicate:place_of_birth", "entity:city"))
    store.add(literal_fact("entity:gappy", "predicate:social_media_followers", 100,
                           LiteralType.NUMBER, updated_at=SYNTHETIC_NOW - 3 * YEAR))
    return store, onto


class TestCoverage:
    def test_gaps_found(self, world):
        store, onto = world
        report = KGProfiler(store, onto, now=SYNTHETIC_NOW).profile()
        gap_keys = {gap.key for gap in report.gaps}
        assert ("entity:gappy", "predicate:date_of_birth") in gap_keys
        assert ("entity:gappy", "predicate:citizen_of") in gap_keys
        assert ("entity:full", "predicate:date_of_birth") not in gap_keys

    def test_gaps_ranked_by_importance(self, world):
        store, onto = world
        store.upsert_entity(
            EntityRecord(entity="entity:star", name="Star", types=("type:person",), popularity=1.0)
        )
        report = KGProfiler(store, onto, now=SYNTHETIC_NOW).profile()
        assert report.gaps[0].entity == "entity:star"

    def test_coverage_fractions(self, world):
        store, onto = world
        report = KGProfiler(store, onto, now=SYNTHETIC_NOW).profile()
        assert report.coverage[("type:person", "predicate:occupation")] == 1.0
        assert report.coverage[("type:person", "predicate:date_of_birth")] == 0.5


class TestFreshness:
    def test_stale_volatile_fact_flagged(self, world):
        store, onto = world
        report = KGProfiler(store, onto, now=SYNTHETIC_NOW).profile()
        stale_keys = {(item.entity, item.predicate) for item in report.stale}
        assert ("entity:gappy", "predicate:social_media_followers") in stale_keys

    def test_fresh_fact_not_flagged(self, world):
        store, onto = world
        store.add(
            literal_fact("entity:full", "predicate:social_media_followers", 5,
                         LiteralType.NUMBER, updated_at=SYNTHETIC_NOW - 0.1 * YEAR)
        )
        report = KGProfiler(store, onto, now=SYNTHETIC_NOW).profile()
        stale_keys = {(item.entity, item.predicate) for item in report.stale}
        assert ("entity:full", "predicate:social_media_followers") not in stale_keys

    def test_horizon_configurable(self, world):
        store, onto = world
        profiler = KGProfiler(
            store, onto, now=SYNTHETIC_NOW, staleness_horizon_seconds=10 * YEAR
        )
        assert profiler.profile().stale == []
