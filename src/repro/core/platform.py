"""The extended Saga platform facade (Figure 1).

Wires every subsystem into one object so applications (and the F1
benchmark) can drive the full loop the paper describes:

    knowledge sources → KG construction → graph engine views
        → embedding training → embedding service
        → semantic annotation → link the Web
        → ODKE → KG enrichment (back into the store)

Each accessor builds its component lazily and caches it; anything that
depends on embeddings requires :meth:`train_embeddings` to have run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.annotation.pipeline import AnnotationPipeline, make_pipeline
from repro.annotation.web_annotator import AnnotationRunReport, WebAnnotator
from repro.common.errors import ReproError
from repro.common.metrics import MetricsRegistry
from repro.embeddings.inference import BatchInference
from repro.embeddings.pipeline import (
    EmbeddingPipelineConfig,
    EmbeddingPipelineResult,
    run_embedding_pipeline,
)
from repro.embeddings.registry import ModelRegistry
from repro.embeddings.trainer import TrainConfig
from repro.kg.generator import SyntheticKG, SyntheticKGConfig, generate_kg
from repro.kg.ontology import Ontology
from repro.kg.query_logs import QueryLogEntry
from repro.kg.store import TripleStore
from repro.kg.views import embedding_training_view
from repro.odke.corroboration import CorroborationModel
from repro.odke.gaps import ExtractionTarget, GapDetector
from repro.odke.pipeline import ODKEConfig, ODKEPipeline, ODKEReport
from repro.services.fact_ranking import FactRanker
from repro.services.fact_verification import FactVerifier
from repro.services.related_entities import (
    EmbeddingRelatedEntities,
    RelatedEntitiesBackend,
    TraversalRelatedEntities,
)
from repro.vector.service import EmbeddingService
from repro.web.corpus import WebCorpus
from repro.web.search import BM25SearchEngine


@dataclass
class PlatformConfig:
    """Top-level configuration."""

    embedding: TrainConfig | None = None
    embedding_view_min_frequency: int = 5
    annotation_tier: str = "full"
    odke: ODKEConfig | None = None


class KnowledgePlatform:
    """The end-to-end platform over one knowledge store."""

    def __init__(
        self,
        store: TripleStore,
        ontology: Ontology,
        now: float = 0.0,
        config: PlatformConfig | None = None,
    ) -> None:
        self.store = store
        self.ontology = ontology
        self.now = now
        self.config = config or PlatformConfig()
        self.metrics = MetricsRegistry("platform")
        self.registry = ModelRegistry()
        self._embedding_result: EmbeddingPipelineResult | None = None
        self._embedding_service: EmbeddingService | None = None
        self._annotation: dict[str, AnnotationPipeline] = {}
        self._verifier: FactVerifier | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_synthetic(
        cls,
        scale: float = 1.0,
        seed: int = 7,
        config: PlatformConfig | None = None,
    ) -> tuple["KnowledgePlatform", SyntheticKG]:
        """Platform over a freshly generated synthetic world."""
        kg = generate_kg(SyntheticKGConfig(seed=seed, scale=scale))
        platform = cls(kg.store, kg.ontology, now=kg.now, config=config)
        return platform, kg

    # -- embeddings ----------------------------------------------------------

    def train_embeddings(
        self,
        train_config: TrainConfig | None = None,
        use_disk_trainer: bool = False,
        workdir: str | Path | None = None,
    ) -> EmbeddingPipelineResult:
        """Run the §2 pipeline and publish the model to the registry."""
        train_config = train_config or self.config.embedding or TrainConfig()
        pipeline_config = EmbeddingPipelineConfig(
            train=train_config,
            view=embedding_training_view(
                min_predicate_frequency=self.config.embedding_view_min_frequency
            ),
            use_disk_trainer=use_disk_trainer,
        )
        with self.metrics.timed("embedding.train"):
            result = run_embedding_pipeline(
                self.store, pipeline_config, registry=self.registry, workdir=workdir
            )
        self._embedding_result = result
        self._embedding_service = None  # rebuilt lazily on next access
        self._verifier = None
        return result

    @property
    def embeddings(self) -> EmbeddingPipelineResult:
        """The current trained embeddings (raises before training)."""
        if self._embedding_result is None:
            raise ReproError("no embeddings trained; call train_embeddings() first")
        return self._embedding_result

    def embedding_service(self) -> EmbeddingService:
        """k-NN/similarity service over the current embeddings."""
        if self._embedding_service is None:
            self._embedding_service = EmbeddingService(self.embeddings.trained)
        return self._embedding_service

    # -- Figure 2 services ------------------------------------------------------

    def fact_ranker(self) -> FactRanker:
        """Importance ranking for multi-valued facts."""
        return FactRanker(self.store, BatchInference(self.embeddings.trained))

    def fact_verifier(self) -> FactVerifier:
        """Calibrated plausibility classifier (calibrated on first use)."""
        if self._verifier is None:
            verifier = FactVerifier(self.embeddings.trained)
            _train, valid, _test = self.embeddings.dataset.split()
            verifier.calibrate(valid)
            self._verifier = verifier
        return self._verifier

    def related_entities(self, strategy: str = "traversal") -> RelatedEntitiesBackend:
        """Related-entities backend: ``traversal`` (specialized) or ``kge``."""
        if strategy == "kge":
            return EmbeddingRelatedEntities(self.embedding_service(), self.store)
        if strategy == "traversal":
            return TraversalRelatedEntities(self.store)
        raise ReproError(f"unknown related-entities strategy {strategy!r}")

    # -- §3 annotation ------------------------------------------------------------

    def annotator(self, tier: str | None = None) -> AnnotationPipeline:
        """Semantic annotation pipeline at the requested quality tier."""
        tier = tier or self.config.annotation_tier
        if tier not in self._annotation:
            service = self._embedding_service or (
                self.embedding_service() if self._embedding_result else None
            )
            self._annotation[tier] = make_pipeline(
                self.store, tier=tier, embedding_service=service
            )
        return self._annotation[tier]

    def link_web(
        self, corpus: WebCorpus, tier: str | None = None, num_shards: int = 4
    ) -> tuple[WebAnnotator, AnnotationRunReport]:
        """Annotate a crawl snapshot; returns the annotator + run report."""
        annotator = WebAnnotator(self.annotator(tier), num_shards=num_shards)
        with self.metrics.timed("web.link"):
            report = annotator.annotate_corpus(corpus)
        return annotator, report

    # -- §4 ODKE --------------------------------------------------------------------

    def odke(
        self,
        search: BM25SearchEngine,
        corroboration_model: CorroborationModel | None = None,
    ) -> ODKEPipeline:
        """An ODKE pipeline bound to this platform's store and annotator."""
        return ODKEPipeline(
            self.store,
            self.ontology,
            search,
            self.annotator(),
            corroboration_model=corroboration_model,
            config=self.config.odke,
            now=self.now,
        )

    def enrich_from_web(
        self,
        search: BM25SearchEngine,
        corroboration_model: CorroborationModel | None = None,
        query_log: list[QueryLogEntry] | None = None,
        max_targets: int = 50,
        targets: list[ExtractionTarget] | None = None,
    ) -> ODKEReport:
        """One full ODKE cycle: detect gaps → extract → corroborate → fuse."""
        if targets is None:
            detector = GapDetector(
                self.store, self.ontology, now=self.now, query_log=query_log
            )
            targets = detector.all_targets(max_targets=max_targets)
        pipeline = self.odke(search, corroboration_model)
        with self.metrics.timed("odke.cycle"):
            return pipeline.run(targets, fuse=True)
