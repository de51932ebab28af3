"""Tests for clustering/fusion and the incremental pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PipelineStateError
from repro.ondevice.fusion import UnionFind, evaluate_clusters
from repro.ondevice.incremental import (
    IncrementalPipeline,
    Phase,
)
from repro.ondevice.sources import (
    PersonaWorldConfig,
    generate_device_dataset,
    generate_personas,
)
from repro.ondevice.sync import kg_signature


@pytest.fixture(scope="module")
def records():
    cfg = PersonaWorldConfig(seed=5, num_personas=20)
    dataset = generate_device_dataset("dev", generate_personas(cfg), cfg)
    return dataset.all_records()


class TestUnionFind:
    def test_transitive_union(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.find("a") == uf.find("c")

    def test_disjoint_stay_apart(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.find("c")
        assert uf.find("a") != uf.find("c")

    @settings(max_examples=30, deadline=None)
    @given(
        unions=st.lists(
            st.tuples(
                st.sampled_from("abcdef"), st.sampled_from("abcdef")
            ),
            max_size=15,
        )
    )
    def test_property_clusters_partition_keys(self, unions):
        uf = UnionFind()
        keys = list("abcdef")
        for key in keys:
            uf.find(key)
        for left, right in unions:
            uf.union(left, right)
        clusters = uf.clusters(keys)
        flattened = sorted(k for members in clusters.values() for k in members)
        assert flattened == sorted(keys)  # every key in exactly one cluster


class TestPipeline:
    def test_full_run_quality(self, records):
        result = IncrementalPipeline(records).run_to_completion(256)
        quality = evaluate_clusters(result.clusters)
        assert quality.f1 > 0.75
        assert quality.precision > 0.9

    def test_phases_in_order(self, records):
        pipeline = IncrementalPipeline(records)
        seen = [pipeline.phase]
        while not pipeline.is_done:
            pipeline.step(64)
            if pipeline.phase != seen[-1]:
                seen.append(pipeline.phase)
        assert seen == [Phase.INGEST, Phase.BLOCK, Phase.MATCH, Phase.FUSE, Phase.DONE][
            : len(seen)
        ] or seen[-1] is Phase.DONE

    def test_step_budget_respected_in_match(self, records):
        pipeline = IncrementalPipeline(records)
        # Drive to MATCH phase.
        while pipeline.phase is not Phase.MATCH:
            pipeline.step(1000)
            if pipeline.is_done:
                pytest.skip("pipeline finished before MATCH could be observed")
        pairs_before = len(pipeline.checkpoint()["pairs"])
        pipeline.step(5)
        pairs_after = len(pipeline.checkpoint()["pairs"])
        assert pairs_before - pairs_after <= 5

    def test_result_before_done_raises(self, records):
        pipeline = IncrementalPipeline(records)
        with pytest.raises(PipelineStateError):
            pipeline.result()

    def test_step_rejects_bad_budget(self, records):
        with pytest.raises(PipelineStateError):
            IncrementalPipeline(records).step(0)

    def test_interrupted_equals_uninterrupted(self, records):
        """The §5 guarantee: pausing at any point loses nothing."""
        uninterrupted = IncrementalPipeline(records).run_to_completion(100_000)
        pipeline = IncrementalPipeline(records)
        while not pipeline.is_done:
            pipeline.step(17)  # deliberately awkward budget
        assert kg_signature(pipeline.result()) == kg_signature(uninterrupted)


class TestCheckpointing:
    def test_checkpoint_resume_equivalence(self, records):
        reference = IncrementalPipeline(records).run_to_completion(4096)
        pipeline = IncrementalPipeline(records)
        pipeline.step(40)
        resumed = IncrementalPipeline.from_checkpoint(pipeline.checkpoint())
        result = resumed.run_to_completion(64)
        assert kg_signature(result) == kg_signature(reference)

    def test_checkpoint_at_every_phase(self, records):
        reference = kg_signature(IncrementalPipeline(records).run_to_completion(4096))
        pipeline = IncrementalPipeline(records)
        while not pipeline.is_done:
            # checkpoint+restore at every step boundary
            pipeline = IncrementalPipeline.from_checkpoint(pipeline.checkpoint())
            pipeline.step(97)
        assert kg_signature(pipeline.result()) == reference

    def test_done_pipeline_cannot_checkpoint(self, records):
        pipeline = IncrementalPipeline(records)
        pipeline.run_to_completion(4096)
        with pytest.raises(PipelineStateError):
            pipeline.checkpoint()


class TestFusedOutput:
    def test_personal_kg_contents(self, records):
        result = IncrementalPipeline(records).run_to_completion(4096)
        assert result.people
        person = max(result.people, key=lambda p: len(p.record_ids))
        assert person.name
        assert person.phones or person.emails
        stored = result.store.entity(person.entity)
        assert stored.name == person.name
        facts = list(result.store.scan(subject=person.entity))
        assert facts

    def test_cluster_merges_sources(self, records):
        result = IncrementalPipeline(records).run_to_completion(4096)
        multi_source = [p for p in result.people if len(p.sources) >= 2]
        assert multi_source, "expected at least one cross-source person"
