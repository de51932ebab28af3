"""Tests for blocking and pairwise matching."""

import pytest

from repro.ondevice.blocking import MemoryBoundedBlocker, blocking_keys
from repro.ondevice.matching import EntityMatcher, MatchConfig
from repro.ondevice.records import CALENDAR, CONTACTS, MESSAGES, SourceRecord
from repro.ondevice.sources import PersonaWorldConfig, generate_device_dataset, generate_personas


def _contact(rid, first, last, phone="", email=""):
    fields = {"first_name": first, "last_name": last}
    if phone:
        fields["phone"] = phone
    if email:
        fields["email"] = email
    return SourceRecord(record_id=rid, source=CONTACTS, fields=fields)


def _message(rid, name, number):
    return SourceRecord(
        record_id=rid, source=MESSAGES,
        fields={"sender_name": name, "sender_number": number},
    )


class TestBlockingKeys:
    def test_typed_keys(self):
        record = _contact("r1", "Tim", "Smith", phone="+1 123 555 1234",
                          email="tim@example.com")
        keys = blocking_keys(record)
        assert "phone:11235551234" in keys
        assert "email:tim@example.com" in keys
        assert "name:tim smith" in keys
        assert "tok:tim" in keys and "tok:smith" in keys

    def test_missing_fields_no_keys(self):
        record = _contact("r2", "", "")
        assert blocking_keys(record) == []


class TestBlocker:
    def test_same_phone_pair_found(self):
        records = [
            _contact("a", "Tim", "Smith", phone="+1 (123) 555 1234"),
            _message("b", "Tim", "123-555-1234"),
        ]
        pairs = MemoryBoundedBlocker().candidate_pairs(records)
        assert any({left.record_id, right.record_id} == {"a", "b"} for left, right in pairs)

    def test_unrelated_records_not_paired(self):
        records = [
            _contact("a", "Tim", "Smith", phone="+1 111 111 1111"),
            _contact("b", "Ana", "Diaz", phone="+1 222 222 2222"),
        ]
        assert MemoryBoundedBlocker().candidate_pairs(records) == []

    def test_pairs_deduplicated(self):
        # Same pair reachable via phone AND email AND name blocks.
        records = [
            _contact("a", "Tim", "Smith", phone="+1 111 111 1111", email="t@x.com"),
            _contact("b", "Tim", "Smith", phone="+1 111 111 1111", email="t@x.com"),
        ]
        pairs = MemoryBoundedBlocker().candidate_pairs(records)
        assert len(pairs) == 1

    def test_oversized_block_truncated(self):
        records = [_contact(f"r{i}", "Tim", f"L{i}") for i in range(50)]
        blocker = MemoryBoundedBlocker(max_block_size=10)
        pairs = blocker.candidate_pairs(records)
        # Bounded: at most C(10, 2) pairs from the shared 'tok:tim' block.
        assert len(pairs) <= 45

    def test_spill_preserves_pairs(self, tmp_path):
        cfg = PersonaWorldConfig(seed=3, num_personas=20)
        dataset = generate_device_dataset("d", generate_personas(cfg), cfg)
        records = dataset.all_records()
        unbounded = MemoryBoundedBlocker(memory_budget_keys=100_000)
        bounded = MemoryBoundedBlocker(memory_budget_keys=20, spill_dir=tmp_path)
        pairs_unbounded = {
            (a.record_id, b.record_id) for a, b in unbounded.candidate_pairs(records)
        }
        pairs_bounded = {
            (a.record_id, b.record_id) for a, b in bounded.candidate_pairs(records)
        }
        assert pairs_bounded == pairs_unbounded
        assert bounded.stats.spilled_blocks > 0
        assert bounded.stats.peak_resident_keys <= 21

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            MemoryBoundedBlocker(memory_budget_keys=0)


class TestMatcher:
    def test_figure7_triple_link(self):
        """Contact + message (same phone) + calendar (same email) all match."""
        contact = _contact("c", "Tim", "Smith", phone="+1 (123) 555 1234",
                           email="Tim@example.com")
        message = _message("m", "Tim Smith", "123-555-1234")
        event = SourceRecord(
            record_id="e", source=CALENDAR,
            fields={"attendee_name": "Tim Smith", "attendee_email": "tim@example.com"},
        )
        matcher = EntityMatcher()
        assert matcher.score_pair(contact, message).matched
        assert matcher.score_pair(contact, event).matched

    def test_name_only_not_enough(self):
        """Two different people sharing a name must not merge."""
        a = _contact("a", "Tim", "Smith", phone="+1 111 111 1111")
        b = _contact("b", "Tim", "Smith", phone="+1 222 222 2222")
        decision = EntityMatcher().score_pair(a, b)
        assert not decision.matched  # conflicting phones veto

    def test_partial_name_with_phone_matches(self):
        a = _contact("a", "Tim", "Smith", phone="+1 111 111 1111")
        b = _message("b", "Tim", "111-111-1111")
        decision = EntityMatcher().score_pair(a, b)
        assert decision.matched
        assert decision.phone_equal

    def test_conflicting_email_penalised(self):
        a = _contact("a", "Tim", "Smith", email="a@x.com")
        b = _contact("b", "Tim", "Smith", email="b@x.com")
        assert not EntityMatcher().score_pair(a, b).matched

    def test_threshold_configurable(self):
        a = _contact("a", "Tim", "Smith")
        b = _contact("b", "Tim", "Smith")
        strict = EntityMatcher(MatchConfig(threshold=0.9))
        lenient = EntityMatcher(MatchConfig(threshold=0.1))
        assert not strict.score_pair(a, b).matched
        assert lenient.score_pair(a, b).matched
