"""Devices: resource profiles and per-device knowledge state.

§5: "devices have a wide range of capabilities, and knowledge-based
services must be functional within the resource constraints of each
hardware environment."  A :class:`DeviceProfile` captures the constraints
the pipeline must respect (memory budget for blocking, per-slice step
budget, whether the device is powerful enough to run matching locally);
a :class:`Device` owns its source records, sync preferences and personal
KG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DeviceError
from repro.ondevice.incremental import (
    IncrementalPipeline,
    IncrementalPipelineConfig,
    PipelineResult,
)
from repro.ondevice.records import ALL_SOURCES, SourceRecord, record_lww_key

# Named profiles roughly ordered by capability.
PROFILES = {
    "watch": dict(memory_budget_keys=200, step_budget=64, can_run_matching=False),
    "phone": dict(memory_budget_keys=2_000, step_budget=512, can_run_matching=True),
    "laptop": dict(memory_budget_keys=20_000, step_budget=4_096, can_run_matching=True),
}


@dataclass(frozen=True)
class DeviceProfile:
    """Hardware class and its resource budgets."""

    name: str
    memory_budget_keys: int
    step_budget: int
    can_run_matching: bool

    @classmethod
    def named(cls, name: str) -> "DeviceProfile":
        """One of the standard profiles (watch/phone/laptop)."""
        try:
            spec = PROFILES[name]
        except KeyError:
            raise DeviceError(
                f"unknown profile {name!r}; available: {sorted(PROFILES)}"
            ) from None
        return cls(name=name, **spec)


@dataclass
class Device:
    """One device: records per source, sync prefs, personal KG state."""

    device_id: str
    profile: DeviceProfile
    # source name -> records currently on this device.
    records: dict[str, list[SourceRecord]] = field(default_factory=dict)
    # source name -> whether the user syncs this source on this device.
    sync_preferences: dict[str, bool] = field(
        default_factory=lambda: {source: True for source in ALL_SOURCES}
    )
    # source name -> record id -> deletion sequence.  Tombstones are
    # retained indefinitely (never garbage-collected) so a device that
    # syncs in late still learns about deletions instead of resurrecting
    # the record from its stale copy.
    tombstones: dict[str, dict[str, int]] = field(default_factory=dict)
    result: PipelineResult | None = None

    def local_records(self) -> list[SourceRecord]:
        """All records on this device, deterministic order."""
        out: list[SourceRecord] = []
        for source in sorted(self.records):
            out.extend(self.records[source])
        return sorted(out, key=lambda record: record.record_id)

    def record_ids(self, source: str) -> set[str]:
        """Record ids currently held for ``source``."""
        return {record.record_id for record in self.records.get(source, [])}

    def add_records(self, source: str, new_records: list[SourceRecord]) -> int:
        """Merge records into a source; returns records added or replaced.

        Last-writer-wins by :func:`record_lww_key`: an incoming record
        lands only when it strictly beats the existing copy (dedup by id
        is the degenerate case — identical records are no-ops).  A
        retained tombstone with ``sequence >=`` the record's suppresses
        the write (delete wins ties); a strictly newer write resurrects
        the record and clears the tombstone.
        """
        by_id = {r.record_id: r for r in self.records.get(source, [])}
        tombs = self.tombstones.get(source, {})
        changed = 0
        for record in new_records:
            tomb = tombs.get(record.record_id)
            if tomb is not None:
                if tomb >= record.sequence:
                    continue
                del tombs[record.record_id]
            existing = by_id.get(record.record_id)
            if existing is not None and record_lww_key(existing) >= record_lww_key(record):
                continue
            by_id[record.record_id] = record
            changed += 1
        self.records[source] = sorted(by_id.values(), key=lambda r: r.record_id)
        return changed

    def apply_tombstones(self, source: str, incoming: dict[str, int]) -> int:
        """Adopt remote tombstones; returns tombstones newly learned/raised.

        A tombstone older than the local record loses entirely (the local
        write flows back out and resurrects the record on the deleting
        device); otherwise it is retained and any local copy at or below
        its sequence is dropped.
        """
        tombs = self.tombstones.setdefault(source, {})
        by_id = {r.record_id: r for r in self.records.get(source, [])}
        raised = 0
        for record_id, seq in incoming.items():
            current = tombs.get(record_id)
            if current is not None and current >= seq:
                continue
            existing = by_id.get(record_id)
            if existing is not None and existing.sequence > seq:
                continue
            tombs[record_id] = seq
            raised += 1
            if existing is not None:
                del by_id[record_id]
        if raised:
            self.records[source] = sorted(by_id.values(), key=lambda r: r.record_id)
        return raised

    def build_kg(self, pipeline_config: IncrementalPipelineConfig | None = None) -> PipelineResult:
        """(Re)construct the personal KG from current records.

        Runs the incremental pipeline in slices of the profile's step
        budget — a watch takes many more slices than a laptop, but the
        result is identical (the F7 benchmark measures both).
        """
        config = pipeline_config or IncrementalPipelineConfig(
            memory_budget_keys=self.profile.memory_budget_keys
        )
        if not self.profile.can_run_matching:
            raise DeviceError(
                f"device {self.device_id} ({self.profile.name}) cannot run "
                "matching locally; offload to a more capable device "
                "(see repro.ondevice.sync.offload_construction)"
            )
        pipeline = IncrementalPipeline(self.local_records(), config)
        self.result = pipeline.run_to_completion(self.profile.step_budget)
        return self.result
