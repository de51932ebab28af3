"""Incremental, pausable, checkpointed personal-KG construction.

§5 (privacy): "we implement an incremental continuous construction
pipeline.  This pipeline can be paused and resumed at any point without
losing state, allowing deferral of the construction process in favor of
any other higher priority task."

The pipeline advances in budgeted :meth:`step` calls (units ≈ records
ingested / pairs scored).  Between any two steps it can be checkpointed
(:meth:`checkpoint`, a JSON-ready dict) and resumed — in the same process
or a fresh one — and the final KG is byte-identical to an uninterrupted
run (tested property).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.common.errors import PipelineStateError
from repro.kg.store import TripleStore
from repro.ondevice.blocking import MemoryBoundedBlocker
from repro.ondevice.fusion import (
    FusedPerson,
    build_personal_kg,
    cluster_records,
)
from repro.ondevice.matching import EntityMatcher, MatchConfig, MatchDecision
from repro.ondevice.records import SourceRecord


class Phase(str, Enum):
    """Pipeline phases, in order."""

    INGEST = "ingest"
    BLOCK = "block"
    MATCH = "match"
    FUSE = "fuse"
    DONE = "done"


@dataclass
class StepReport:
    """What one budgeted step accomplished."""

    phase_before: Phase
    phase_after: Phase
    units_used: int


@dataclass
class PipelineResult:
    """Final output of a completed pipeline."""

    store: TripleStore
    people: list[FusedPerson]
    clusters: dict[str, list[SourceRecord]]


@dataclass
class IncrementalPipelineConfig:
    """Budgets and matcher settings."""

    memory_budget_keys: int = 10_000
    max_block_size: int = 64
    match: MatchConfig = field(default_factory=MatchConfig)


class IncrementalPipeline:
    """Budget-stepped construction: ingest → block → match → fuse."""

    def __init__(
        self,
        records: list[SourceRecord],
        config: IncrementalPipelineConfig | None = None,
    ) -> None:
        self.config = config or IncrementalPipelineConfig()
        self.phase = Phase.INGEST
        self._pending: list[SourceRecord] = sorted(
            records, key=lambda r: r.record_id
        )
        self._ingested: list[SourceRecord] = []
        self._pairs: list[tuple[str, str]] = []
        self._decisions: list[MatchDecision] = []
        self._result: PipelineResult | None = None
        self.total_units = 0

    # -- driving ------------------------------------------------------------

    def step(self, budget: int) -> StepReport:
        """Advance the pipeline by up to ``budget`` work units."""
        if budget <= 0:
            raise PipelineStateError(f"step budget must be positive, got {budget}")
        if self.phase is Phase.DONE:
            return StepReport(Phase.DONE, Phase.DONE, 0)
        before = self.phase
        used = 0
        while budget > 0 and self.phase is not Phase.DONE:
            if self.phase is Phase.INGEST:
                consumed = self._step_ingest(budget)
            elif self.phase is Phase.BLOCK:
                consumed = self._step_block(budget)
            elif self.phase is Phase.MATCH:
                consumed = self._step_match(budget)
            else:
                consumed = self._step_fuse(budget)
            if consumed == 0:
                break
            budget -= consumed
            used += consumed
        self.total_units += used
        return StepReport(phase_before=before, phase_after=self.phase, units_used=used)

    def run_to_completion(self, step_budget: int = 256) -> PipelineResult:
        """Repeated steps until DONE; returns the result."""
        while self.phase is not Phase.DONE:
            self.step(step_budget)
        assert self._result is not None
        return self._result

    @property
    def is_done(self) -> bool:
        return self.phase is Phase.DONE

    def result(self) -> PipelineResult:
        """The final output (raises before completion)."""
        if self._result is None:
            raise PipelineStateError("pipeline has not completed yet")
        return self._result

    # -- phases -------------------------------------------------------------

    def _step_ingest(self, budget: int) -> int:
        take = min(budget, len(self._pending))
        for _ in range(take):
            self._ingested.append(self._pending.pop(0))
        if not self._pending:
            self.phase = Phase.BLOCK
        # An empty ingest (no records at all) still charges one unit for
        # the phase transition so step() always makes progress.
        return max(take, 1)

    def _step_block(self, budget: int) -> int:
        """Blocking runs as one atomic (but budget-charged) unit of work."""
        blocker = MemoryBoundedBlocker(
            memory_budget_keys=self.config.memory_budget_keys,
            max_block_size=self.config.max_block_size,
        )
        pairs = blocker.candidate_pairs(self._ingested)
        self._pairs = [(left.record_id, right.record_id) for left, right in pairs]
        self.phase = Phase.MATCH
        return 1

    def _step_match(self, budget: int) -> int:
        by_id = {record.record_id: record for record in self._ingested}
        matcher = EntityMatcher(self.config.match)
        take = min(budget, len(self._pairs))
        for _ in range(take):
            left_id, right_id = self._pairs.pop(0)
            self._decisions.append(
                matcher.score_pair(by_id[left_id], by_id[right_id])
            )
        if not self._pairs:
            self.phase = Phase.FUSE
        return max(take, 1)

    def _step_fuse(self, budget: int) -> int:
        clusters = cluster_records(self._ingested, self._decisions)
        store, people = build_personal_kg(clusters)
        self._result = PipelineResult(store=store, people=people, clusters=clusters)
        self.phase = Phase.DONE
        return 1

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Serialisable snapshot of all pipeline state."""
        if self.phase is Phase.DONE:
            raise PipelineStateError("nothing to checkpoint: pipeline is done")
        return {
            "phase": self.phase.value,
            "pending": [record.to_dict() for record in self._pending],
            "ingested": [record.to_dict() for record in self._ingested],
            "pairs": self._pairs,
            "decisions": [
                {
                    "left": d.left,
                    "right": d.right,
                    "score": d.score,
                    "matched": d.matched,
                    "phone_equal": d.phone_equal,
                    "email_equal": d.email_equal,
                    "name_score": d.name_score,
                }
                for d in self._decisions
            ],
            "total_units": self.total_units,
        }

    @classmethod
    def from_checkpoint(
        cls,
        payload: dict[str, Any],
        config: IncrementalPipelineConfig | None = None,
    ) -> "IncrementalPipeline":
        """Rebuild a pipeline from :meth:`checkpoint` output."""
        pipeline = cls([], config)
        pipeline.phase = Phase(payload["phase"])
        pipeline._pending = [
            SourceRecord.from_dict(item) for item in payload["pending"]
        ]
        pipeline._ingested = [
            SourceRecord.from_dict(item) for item in payload["ingested"]
        ]
        pipeline._pairs = [tuple(pair) for pair in payload["pairs"]]
        pipeline._decisions = [
            MatchDecision(
                left=d["left"],
                right=d["right"],
                score=d["score"],
                matched=d["matched"],
                phone_equal=d["phone_equal"],
                email_equal=d["email_equal"],
                name_score=d["name_score"],
            )
            for d in payload["decisions"]
        ]
        pipeline.total_units = payload.get("total_units", 0)
        return pipeline
