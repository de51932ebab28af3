"""Tests for crawl churn and BM25 search."""


from repro.web.crawl import CrawlSimulator, evolve


class TestEvolve:
    def test_delta_counts(self, kg, corpus):
        evolved, delta = evolve(corpus, kg, change_fraction=0.2, new_fraction=0.05, seed=1)
        assert len(delta.changed_ids) > 0
        assert len(delta.new_ids) == int(len(corpus) * 0.05)
        assert len(evolved) == len(corpus) + len(delta.new_ids)

    def test_changed_docs_have_new_hash(self, kg, corpus):
        evolved, delta = evolve(corpus, kg, change_fraction=0.2, new_fraction=0.0, seed=2)
        for doc_id in delta.changed_ids:
            assert evolved.get(doc_id).content_hash != corpus.get(doc_id).content_hash

    def test_unchanged_docs_identical(self, kg, corpus):
        evolved, delta = evolve(corpus, kg, change_fraction=0.2, new_fraction=0.0, seed=2)
        changed = set(delta.changed_ids)
        for doc in corpus:
            if doc.doc_id not in changed:
                assert evolved.get(doc.doc_id).content_hash == doc.content_hash

    def test_updated_gold_mentions_consistent(self, kg, corpus):
        evolved, delta = evolve(corpus, kg, change_fraction=0.3, new_fraction=0.0, seed=3)
        for doc_id in delta.changed_ids:
            doc = evolved.get(doc_id)
            for mention in doc.gold_mentions:
                assert doc.text[mention.start : mention.end] == mention.surface

    def test_simulator_steps(self, kg, corpus):
        simulator = CrawlSimulator(kg, corpus, change_fraction=0.1, new_fraction=0.01, seed=4)
        snap1, delta1 = simulator.step()
        snap2, delta2 = simulator.step()
        assert simulator.epoch == 2
        assert len(snap2) >= len(snap1)
        # new ids never collide
        all_ids = [d.doc_id for d in snap2]
        assert len(all_ids) == len(set(all_ids))


class TestSearch:
    def test_profile_page_ranked_first_for_name_query(self, kg, corpus, search_engine):
        profile = next(d for d in corpus if d.kind == "profile")
        results = search_engine.search(profile.title + " born", k=5)
        assert results
        assert results[0].doc_id == profile.doc_id

    def test_empty_query(self, search_engine):
        assert search_engine.search("", k=5) == []

    def test_unknown_terms(self, search_engine):
        assert search_engine.search("xyzzy plugh qwerty", k=5) == []

    def test_k_respected(self, search_engine):
        assert len(search_engine.search("the news this week", k=3)) <= 3

    def test_scores_descending(self, corpus, search_engine):
        doc = corpus.documents[0]
        results = search_engine.search(doc.title, k=10)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)


class TestSchemaOrg:
    def test_build_person_payload(self, kg):
        from repro.common import ids as idmod
        from repro.web.schema_org import build_person_payload

        person = next(
            r.entity for r in kg.store.entities() if idmod.type_id("person") in r.types
        )
        payload = build_person_payload(kg.store, person)
        assert payload["@type"] == "Person"
        assert payload["name"] == kg.store.entity(person).name
        assert "birthDate" in payload

    def test_schema_type_of(self):
        from repro.web.schema_org import schema_type_of

        assert schema_type_of(("type:film",)) == "Movie"
        assert schema_type_of(("type:genre",)) == "Thing"
