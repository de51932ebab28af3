"""Live growth driver: ODKE extraction rounds → published delta generations.

The paper's core loop, closed: the construction tier (ODKE pipeline runs
over extraction targets) streams corroborated facts into the store, and a
:class:`~repro.kg.deltas.GenerationPublisher` turns each cadence of runs
into a cheap delta generation that the serving tier hot-swaps onto (via
``ServingService.adopt_generation`` or a
:class:`~repro.serving.growth.GenerationWatcher`).  The driver owns the
glue only — which fact keys each run touched, when to publish — policy
about *what* to extract stays with the caller (usually
:class:`~repro.odke.gaps.GapDetector` output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.logging import get_logger
from repro.kg.deltas import GenerationInfo, GenerationPublisher
from repro.odke.gaps import ExtractionTarget
from repro.odke.pipeline import ODKEPipeline, ODKEReport

_log = get_logger("odke.live")


@dataclass
class GrowthStep:
    """One driver step: the extraction run plus its (optional) generation."""

    report: ODKEReport
    generation: GenerationInfo | None

    @property
    def published(self) -> bool:
        return self.generation is not None


class GrowthDriver:
    """Runs ODKE extraction rounds and publishes them as delta generations.

    ``publish_every`` batches N extraction runs per published generation
    (1 = one generation per step); :meth:`flush` force-publishes whatever
    is pending.  ``on_generation`` (if given) fires after each successful
    publish — smoke harnesses and gateways trigger adoption from it.
    """

    def __init__(
        self,
        pipeline: ODKEPipeline,
        publisher: GenerationPublisher,
        *,
        publish_every: int = 1,
        on_generation: Callable[[GenerationInfo], None] | None = None,
    ) -> None:
        if publish_every <= 0:
            raise ValueError(f"publish_every must be positive, got {publish_every}")
        if pipeline.store is not publisher.store:
            raise ValueError("pipeline and publisher must share one store")
        self.pipeline = pipeline
        self.publisher = publisher
        self.publish_every = publish_every
        self.on_generation = on_generation
        self.steps = 0
        self._since_publish = 0

    def step(self, targets: list[ExtractionTarget]) -> GrowthStep:
        """One extraction round; publishes when the cadence comes due."""
        # The run mutates the store a background compaction may be saving
        # as the new chain base: let any in-flight compaction finish first.
        self.publisher.join_compaction()
        report = self.pipeline.run(targets, fuse=True)
        self.publisher.record(keys=report.changed_fact_keys)
        self.steps += 1
        self._since_publish += 1
        _log.debug(
            "growth.step",
            step=self.steps,
            targets=len(targets),
            changed_keys=len(report.changed_fact_keys),
        )
        generation = None
        if self._since_publish >= self.publish_every:
            generation = self._publish()
        return GrowthStep(report=report, generation=generation)

    def flush(self) -> GenerationInfo | None:
        """Publish pending changes now (cadence-independent)."""
        return self._publish()

    def _publish(self) -> GenerationInfo | None:
        generation = self.publisher.publish()
        self._since_publish = 0
        if generation is not None:
            _log.info(
                "growth.published",
                step=self.steps,
                seq=generation.seq,
                store_version=generation.store_version,
                compacted=generation.compacted,
            )
            if self.on_generation is not None:
                self.on_generation(generation)
        return generation
