"""Synthetic Web substrate: documents, corpus, crawl churn, BM25 search."""

from repro.web.corpus import WebCorpus, WebCorpusConfig, WebCorpusGenerator, generate_corpus
from repro.web.crawl import CrawlDelta, CrawlSimulator, evolve
from repro.web.document import DocumentKind, GoldMention, WebDocument
from repro.web.schema_org import (
    PREDICATE_TO_SCHEMA,
    SCHEMA_TO_PREDICATE,
    build_person_payload,
    schema_type_of,
)
from repro.web.search import BM25SearchEngine, SearchResult

__all__ = [
    "BM25SearchEngine",
    "CrawlDelta",
    "CrawlSimulator",
    "DocumentKind",
    "GoldMention",
    "PREDICATE_TO_SCHEMA",
    "SCHEMA_TO_PREDICATE",
    "SearchResult",
    "WebCorpus",
    "WebCorpusConfig",
    "WebCorpusGenerator",
    "WebDocument",
    "build_person_payload",
    "evolve",
    "generate_corpus",
    "schema_type_of",
]
