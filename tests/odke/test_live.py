"""GrowthDriver: ODKE extraction rounds published as delta generations."""

import pytest

from repro.annotation.pipeline import make_pipeline
from repro.common import ids
from repro.kg.adjacency import build_csr
from repro.kg.deltas import GenerationPublisher, published_version
from repro.kg.generator import hold_out_facts
from repro.kg.persistence import load_snapshot
from repro.odke.gaps import ExtractionTarget
from repro.odke.live import GrowthDriver
from repro.odke.pipeline import ODKEConfig, ODKEPipeline

DOB = ids.predicate_id("date_of_birth")
POB = ids.predicate_id("place_of_birth")


@pytest.fixture(scope="module")
def live_world(kg, search_engine, tmp_path_factory):
    """A private deployed store (mutable) + pipeline + publisher bundle.

    The session ``kg`` stays read-only: ``hold_out_facts`` builds a fresh
    store, and every mutation in these tests lands there.
    """
    deployed, held_out = hold_out_facts(kg, fraction=0.3, seed=29)
    annotation = make_pipeline(deployed, tier="full")
    pipeline = ODKEPipeline(
        deployed, kg.ontology, search_engine, annotation,
        config=ODKEConfig(use_trained_model=False), now=kg.now,
    )
    targets = sorted(
        (
            ExtractionTarget(entity=fact.subject, predicate=fact.predicate, priority=1.0)
            for fact in held_out
            if fact.predicate in (DOB, POB)
        ),
        key=lambda t: (t.entity, t.predicate),
    )
    bundle = tmp_path_factory.mktemp("live-bundle")
    publisher = GenerationPublisher(deployed, bundle)
    return deployed, pipeline, publisher, bundle, targets


def _assert_chain_matches_rebuild(store, bundle):
    """Chain-loaded bundle == the live store, logically and physically."""
    snapshot = load_snapshot(bundle)
    assert snapshot.manifest["store_version"] == store.version
    assert {f.key: f for f in snapshot.store.scan()} == {f.key: f for f in store.scan()}
    full = build_csr(store)
    merged = snapshot.adjacency
    assert merged is not None and merged.built_version == store.version
    assert merged.num_edges == full.num_edges
    for node in full.dictionary.strings():
        node_id = full.dictionary.get(node)
        want = {full.dictionary.string_of(int(i)) for i in full.neighbors_of(node_id)}
        merged_id = merged.dictionary.get(node)
        got = {merged.dictionary.string_of(int(i)) for i in merged.neighbors_of(merged_id)}
        assert got == want, node


class TestGrowthDriver:
    def test_streamed_extraction_rounds_publish_parity(self, live_world):
        deployed, pipeline, publisher, bundle, targets = live_world
        generations = []
        driver = GrowthDriver(
            pipeline, publisher, publish_every=1, on_generation=generations.append
        )

        accepted = 0
        for chunk_start in range(0, 40, 20):
            step = driver.step(targets[chunk_start : chunk_start + 20])
            accepted += step.report.accepted
            if step.published:
                assert step.generation.store_version == deployed.version

        assert driver.steps == 2
        assert accepted > 0, "extraction must land facts for this test to bite"
        assert generations, "at least one generation must have been published"
        assert published_version(bundle) == deployed.version
        _assert_chain_matches_rebuild(deployed, bundle)

    def test_publish_cadence_batches_steps(self, live_world):
        deployed, pipeline, publisher, bundle, targets = live_world
        driver = GrowthDriver(pipeline, publisher, publish_every=3)
        first = driver.step(targets[40:50])
        second = driver.step(targets[50:60])
        # Cadence not due: nothing published regardless of what landed.
        assert first.generation is None and second.generation is None
        driver.flush()
        assert published_version(bundle) == deployed.version
        _assert_chain_matches_rebuild(deployed, bundle)

    def test_flush_without_changes_is_a_noop(self, live_world):
        _deployed, pipeline, publisher, _bundle, _targets = live_world
        driver = GrowthDriver(pipeline, publisher)
        assert driver.flush() is None

    def test_driver_validates_inputs(self, live_world, kg):
        _deployed, pipeline, publisher, _bundle, _targets = live_world
        with pytest.raises(ValueError, match="publish_every"):
            GrowthDriver(pipeline, publisher, publish_every=0)
        foreign = GenerationPublisher.__new__(GenerationPublisher)
        foreign.store = kg.store  # a publisher over a *different* store
        with pytest.raises(ValueError, match="share one store"):
            GrowthDriver(pipeline, foreign)
