"""Sync conflict edges: concurrent upserts, delete replays, tombstone
retention for late joiners.

These pin the convergence properties the multi-tenant serving layer
inherits (the server's LWW merge mirrors :class:`Device` exactly): every
conflict resolves deterministically, identically, on every replica, and
deletions stay deleted no matter how stale the replaying peer is.
"""

from __future__ import annotations

from repro.ondevice.device import Device, DeviceProfile
from repro.ondevice.records import CONTACTS, SourceRecord, record_lww_key
from repro.ondevice.sync import SyncCoordinator, kg_signature


def device(device_id: str) -> Device:
    return Device(device_id=device_id, profile=DeviceProfile.named("phone"))


def contact(record_id: str, first: str, *, sequence: int = 0, **extra) -> SourceRecord:
    fields = {"first_name": first, "last_name": "Singer", **extra}
    return SourceRecord(
        record_id=record_id, source=CONTACTS, fields=fields, sequence=sequence
    )


def records_of(dev: Device) -> dict[str, SourceRecord]:
    return {r.record_id: r for r in dev.records.get(CONTACTS, [])}


def delete(dev: Device, record_id: str, sequence: int) -> bool:
    """A local delete: the device adopts a tombstone at the sequence of the
    copy it deletes; True when the tombstone took."""
    return dev.apply_tombstones(CONTACTS, {record_id: sequence}) == 1


class TestConcurrentUpserts:
    def test_higher_sequence_wins_everywhere(self):
        a, b = device("a"), device("b")
        a.add_records(CONTACTS, [contact("r1", "Alice", sequence=3, phone="111")])
        b.add_records(CONTACTS, [contact("r1", "Alicia", sequence=5, phone="222")])
        coordinator = SyncCoordinator([a, b])
        coordinator.sync_until_stable()
        assert coordinator.consistency_check(CONTACTS)
        for dev in (a, b):
            winner = records_of(dev)["r1"]
            assert winner.sequence == 5
            assert winner.fields["first_name"] == "Alicia"

    def test_equal_sequence_ties_break_deterministically(self):
        """Offline edits at the *same* sequence: the canonical-JSON
        tiebreak picks one winner, the same one on every device and in
        every sync order."""
        edit_x = contact("r1", "Xavier", sequence=4)
        edit_y = contact("r1", "Yvonne", sequence=4)
        expected = max(edit_x, edit_y, key=record_lww_key)

        for first, second in ((edit_x, edit_y), (edit_y, edit_x)):
            a, b = device("a"), device("b")
            a.add_records(CONTACTS, [first])
            b.add_records(CONTACTS, [second])
            SyncCoordinator([a, b]).sync_until_stable()
            for dev in (a, b):
                winner = records_of(dev)["r1"]
                assert record_lww_key(winner) == record_lww_key(expected)

    def test_three_way_concurrent_edit_converges_to_one_kg(self):
        devices = [device(f"d{i}") for i in range(3)]
        for i, dev in enumerate(devices):
            dev.add_records(
                CONTACTS,
                [
                    contact("r1", f"Edit{i}", sequence=i + 1),
                    contact(f"own-{i}", f"Own{i}", sequence=1),
                ],
            )
        coordinator = SyncCoordinator(devices)
        coordinator.sync_until_stable()
        assert coordinator.consistency_check(CONTACTS)
        signatures = {
            tuple(kg_signature(dev.build_kg())) for dev in devices
        }
        assert len(signatures) == 1
        assert records_of(devices[0])["r1"].fields["first_name"] == "Edit2"


class TestDeleteThenSyncReplay:
    def test_deleted_record_does_not_resurrect_from_stale_peer(self):
        a, b = device("a"), device("b")
        shared = contact("r1", "Alice", sequence=2)
        a.add_records(CONTACTS, [shared])
        b.add_records(CONTACTS, [shared])
        assert delete(a, "r1", 2)
        report = SyncCoordinator([a, b]).sync_until_stable()
        # The tombstone travelled; the stale copy never flowed back.
        assert any(r.tombstones_moved for r in report)
        for dev in (a, b):
            assert "r1" not in dev.record_ids(CONTACTS)
            assert dev.tombstones[CONTACTS]["r1"] == 2

    def test_replaying_the_deleted_copy_is_suppressed_forever(self):
        a = device("a")
        a.add_records(CONTACTS, [contact("r1", "Alice", sequence=2)])
        delete(a, "r1", 2)
        # Replay the exact deleted copy (equal sequence): delete wins ties.
        assert a.add_records(CONTACTS, [contact("r1", "Alice", sequence=2)]) == 0
        assert "r1" not in a.record_ids(CONTACTS)

    def test_newer_write_resurrects_and_clears_tombstone(self):
        a, b = device("a"), device("b")
        a.add_records(CONTACTS, [contact("r1", "Alice", sequence=2)])
        delete(a, "r1", 2)
        b.add_records(CONTACTS, [contact("r1", "Alice II", sequence=7)])
        coordinator = SyncCoordinator([a, b])
        coordinator.sync_until_stable()
        assert coordinator.consistency_check(CONTACTS)
        for dev in (a, b):
            assert records_of(dev)["r1"].sequence == 7
            assert "r1" not in dev.tombstones.get(CONTACTS, {})

    def test_stale_delete_loses_to_existing_newer_record(self):
        a, b = device("a"), device("b")
        newer = contact("r1", "Alice II", sequence=9)
        a.add_records(CONTACTS, [contact("r1", "Alice", sequence=2)])
        b.add_records(CONTACTS, [newer])
        # A deletes its *old* copy (tombstone at sequence 2) ...
        delete(a, "r1", 2)
        coordinator = SyncCoordinator([a, b])
        coordinator.sync_until_stable()
        # ... and the newer write flows back and resurrects it on A.
        for dev in (a, b):
            assert records_of(dev)["r1"].sequence == 9


class TestTombstoneRetention:
    def test_late_joining_device_learns_old_deletions(self):
        """Tombstones are never garbage-collected: a device that was
        offline through the whole delete still drops its stale copy."""
        stale_copy = contact("r1", "Alice", sequence=1)
        a, b = device("a"), device("b")
        a.add_records(CONTACTS, [stale_copy])
        b.add_records(CONTACTS, [stale_copy])
        delete(a, "r1", 1)
        SyncCoordinator([a, b]).sync_until_stable()

        # Much later, a third device joins holding the stale record.
        c = device("c")
        c.add_records(CONTACTS, [stale_copy])
        coordinator = SyncCoordinator([a, b, c])
        coordinator.sync_until_stable()
        assert coordinator.consistency_check(CONTACTS)
        for dev in (a, b, c):
            assert "r1" not in dev.record_ids(CONTACTS)
            assert dev.tombstones[CONTACTS]["r1"] == 1

    def test_tombstones_survive_unrelated_traffic(self):
        a, b = device("a"), device("b")
        a.add_records(CONTACTS, [contact("r1", "Alice", sequence=1)])
        delete(a, "r1", 1)
        coordinator = SyncCoordinator([a, b])
        coordinator.sync_until_stable()
        for round_no in range(3):
            a.add_records(
                CONTACTS, [contact(f"new-{round_no}", "Noise", sequence=1)]
            )
            coordinator.sync_until_stable()
        for dev in (a, b):
            assert dev.tombstones[CONTACTS]["r1"] == 1
            assert "r1" not in dev.record_ids(CONTACTS)

    def test_per_source_opt_out_blocks_tombstones_too(self):
        a, b = device("a"), device("b")
        b.sync_preferences[CONTACTS] = False
        shared = contact("r1", "Alice", sequence=1)
        a.add_records(CONTACTS, [shared])
        b.add_records(CONTACTS, [shared])
        delete(a, "r1", 1)
        SyncCoordinator([a, b]).sync_until_stable()
        # The opted-out source moves nothing — not even deletions.
        assert "r1" in b.record_ids(CONTACTS)
        assert "r1" not in b.tombstones.get(CONTACTS, {})
