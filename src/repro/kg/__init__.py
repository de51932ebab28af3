"""Knowledge-graph substrate: store, ontology, engine, views, construction."""

from repro.kg.adjacency import AdjacencyIndex, CSRAdjacency, build_csr
from repro.kg.deltas import GenerationInfo, GenerationPublisher, published_version
from repro.kg.encoding import Dictionary
from repro.kg.generator import (
    SyntheticKG,
    SyntheticKGConfig,
    generate_kg,
    hold_out_facts,
)
from repro.kg.graph_engine import GraphEngine
from repro.kg.ontology import Ontology, PredicateSchema
from repro.kg.persistence import load_store, save_store
from repro.kg.store import EntityRecord, TripleStore
from repro.kg.triple import Fact, LiteralType, ObjectKind, entity_fact, literal_fact
from repro.kg.views import (
    ViewDefinition,
    embedding_training_view,
    materialize,
    static_knowledge_asset_view,
)

__all__ = [
    "AdjacencyIndex",
    "CSRAdjacency",
    "Dictionary",
    "EntityRecord",
    "Fact",
    "GenerationInfo",
    "GenerationPublisher",
    "GraphEngine",
    "LiteralType",
    "ObjectKind",
    "Ontology",
    "PredicateSchema",
    "SyntheticKG",
    "SyntheticKGConfig",
    "TripleStore",
    "ViewDefinition",
    "build_csr",
    "embedding_training_view",
    "entity_fact",
    "generate_kg",
    "hold_out_facts",
    "literal_fact",
    "load_store",
    "materialize",
    "published_version",
    "save_store",
    "static_knowledge_asset_view",
]
