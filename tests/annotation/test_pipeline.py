"""Tests for the assembled annotation pipeline (tiers, quality, NIL)."""

import pytest

from repro.annotation.evaluation import evaluate_annotations
from repro.annotation.pipeline import make_pipeline
from repro.annotation.web_annotator import WebAnnotator
from repro.common.text import normalize_name


class TestAnnotateText:
    def test_links_known_entities(self, kg, full_annotation_pipeline):
        record = next(
            r for r in kg.store.entities() if "type:person" in r.types
        )
        links = full_annotation_pipeline.annotate(f"News about {record.name} today.")
        assert any(link.mention.surface == record.name for link in links)

    def test_nil_for_unknown_names(self, full_annotation_pipeline):
        links = full_annotation_pipeline.annotate(
            "Zebulon Crabtree and Perpetua Nightingale met for tea."
        )
        assert links == []

    def test_candidates_attached(self, kg, full_annotation_pipeline):
        name = next(iter(kg.truth.ambiguous_names))
        links = full_annotation_pipeline.annotate(f"A story about {name}.")
        assert links
        assert len(links[0].candidates) >= 2

    def test_entity_types_labelled(self, kg, full_annotation_pipeline):
        person = next(
            r for r in kg.store.entities() if "type:person" in r.types
        )
        links = full_annotation_pipeline.annotate(f"{person.name} spoke today.")
        assert links and links[0].entity_type == "PERSON"

    def test_document_offsets_rebased(self, kg, corpus, full_annotation_pipeline):
        doc = next(d for d in corpus if d.gold_mentions)
        annotated = full_annotation_pipeline.annotate_document(doc)
        for link in annotated.links:
            assert doc.text[link.mention.start : link.mention.end] == link.mention.surface


class TestDisambiguation:
    def test_context_beats_prior_on_ambiguous_names(self, kg, corpus):
        """The Figure 2 claim: the full tier disambiguates namesakes far
        better than the prior-only lite tier."""
        full = make_pipeline(kg.store, tier="full")
        lite = make_pipeline(kg.store, tier="lite")
        ambiguous_keys = {normalize_name(n) for n in kg.truth.ambiguous_names}
        docs = [
            d for d in corpus
            if any(normalize_name(m.surface) in ambiguous_keys for m in d.gold_mentions)
        ]
        assert docs, "corpus must contain ambiguous-name documents"

        def disambig_accuracy(pipeline):
            predictions = {
                d.doc_id: pipeline.annotate_document(d).links for d in docs
            }
            report = evaluate_annotations(predictions, docs, kg.truth.ambiguous_names)
            return report.disambiguation_accuracy

        assert disambig_accuracy(full) > disambig_accuracy(lite) + 0.1

    def test_full_quality_floor(self, kg, corpus, full_annotation_pipeline):
        docs = corpus.documents[:150]
        predictions = {
            d.doc_id: full_annotation_pipeline.annotate_document(d).links for d in docs
        }
        report = evaluate_annotations(predictions, docs, kg.truth.ambiguous_names)
        assert report.f1 > 0.85
        assert report.precision > 0.85


class TestWebAnnotator:
    def test_full_run_covers_corpus(self, kg, corpus, full_annotation_pipeline):
        annotator = WebAnnotator(full_annotation_pipeline)
        report = annotator.annotate_corpus(corpus)
        assert report.docs_processed == len(corpus)
        assert report.docs_skipped_unchanged == 0
        documents = annotator.store.documents.values()
        assert sum(len(d.links) for d in documents) == report.links_produced

    def test_incremental_skips_unchanged(self, kg, corpus, full_annotation_pipeline):
        annotator = WebAnnotator(full_annotation_pipeline)
        annotator.annotate_corpus(corpus)
        second = annotator.annotate_corpus(corpus)
        assert second.docs_processed == 0
        assert second.docs_skipped_unchanged == len(corpus)

    def test_incremental_processes_changed(self, kg, corpus, full_annotation_pipeline):
        from repro.web.crawl import evolve

        annotator = WebAnnotator(full_annotation_pipeline)
        annotator.annotate_corpus(corpus)
        evolved, delta = evolve(corpus, kg, change_fraction=0.1, new_fraction=0.0, seed=3)
        report = annotator.annotate_corpus(evolved)
        assert report.docs_processed == len(delta.changed_ids)

    def test_entity_docs_projection(self, kg, corpus, full_annotation_pipeline):
        annotator = WebAnnotator(full_annotation_pipeline)
        annotator.annotate_corpus(corpus)
        doc = next(d for d in corpus if d.gold_mentions)
        annotated = annotator.store.documents.get(doc.doc_id)
        assert annotated is not None
        for entity in annotated.entities:
            assert doc.doc_id in annotator.store.docs_mentioning(entity)

    def test_shard_assignment_stable(self, full_annotation_pipeline):
        annotator = WebAnnotator(full_annotation_pipeline, num_shards=8)
        assert annotator.shard_of("doc:web/000001") == annotator.shard_of("doc:web/000001")
        with pytest.raises(ValueError):
            WebAnnotator(full_annotation_pipeline, num_shards=0)


class TestAnnotateBatch:
    """Cross-document batching must not change what gets linked."""

    @staticmethod
    def signature(links):
        return [
            (
                link.mention.start,
                link.mention.end,
                link.mention.surface,
                link.entity,
                link.entity_type,
                [candidate.entity for candidate in link.candidates],
            )
            for link in links
        ]

    def test_matches_per_document_annotate(self, kg, corpus):
        pipeline = make_pipeline(kg.store, tier="full")
        reference = make_pipeline(kg.store, tier="full")
        texts = [doc.full_text for doc in list(corpus)[:10]]
        batched = pipeline.annotate_batch(texts)
        assert len(batched) == len(texts)
        for text, links in zip(texts, batched):
            assert self.signature(links) == self.signature(reference.annotate(text))

    def test_lite_tier_batches_bitwise(self, kg, corpus):
        """No context matmul in lite — scores must match exactly too."""
        pipeline = make_pipeline(kg.store, tier="lite")
        reference = make_pipeline(kg.store, tier="lite")
        texts = [doc.full_text for doc in list(corpus)[:8]]
        for text, links in zip(texts, pipeline.annotate_batch(texts)):
            expected = reference.annotate(text)
            assert self.signature(links) == self.signature(expected)
            assert [link.score for link in links] == [link.score for link in expected]

    def test_empty_and_linkless_documents(self, kg, full_annotation_pipeline):
        results = full_annotation_pipeline.annotate_batch(
            ["", "Nothing known here.", ""]
        )
        assert results == [[], [], []]

    def test_metrics_count_batches(self, kg):
        pipeline = make_pipeline(kg.store, tier="lite")
        pipeline.annotate_batch(["one text", "two text"])
        assert pipeline.metrics.counters["texts"] == 2
        assert pipeline.metrics.counters["batches"] == 1
