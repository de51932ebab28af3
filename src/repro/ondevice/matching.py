"""Entity matching: do two records describe the same person?

Figure 7's rules, scored: "If we know that the message sender and the
contact have the same phone number; that the contact and calendar invitee
have the same email address; and that all have similar names; then we may
link these three source entities."

Strong identifiers (phone, email) dominate; names contribute fuzzily.
Conflicting strong identifiers veto a match even when names agree — that
is what keeps the two coworkers named Tim apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.text import name_similarity
from repro.ondevice.normalize import normalize_email, normalize_phone
from repro.ondevice.records import SourceRecord


@dataclass
class MatchConfig:
    """Weights and threshold of the scoring rules."""

    weight_phone: float = 0.6
    weight_email: float = 0.6
    weight_name: float = 0.35
    name_floor: float = 0.55  # below this, names count as disagreeing
    conflict_penalty: float = 0.8
    threshold: float = 0.5


@dataclass
class MatchDecision:
    """Scored decision for one record pair."""

    left: str
    right: str
    score: float
    matched: bool
    phone_equal: bool
    email_equal: bool
    name_score: float


class EntityMatcher:
    """Rule-scored pairwise matcher."""

    def __init__(self, config: MatchConfig | None = None) -> None:
        self.config = config or MatchConfig()

    def score_pair(self, left: SourceRecord, right: SourceRecord) -> MatchDecision:
        """Score one candidate pair."""
        cfg = self.config
        phone_l, phone_r = normalize_phone(left.phone), normalize_phone(right.phone)
        email_l, email_r = normalize_email(left.email), normalize_email(right.email)
        phone_equal = bool(phone_l) and phone_l == phone_r
        email_equal = bool(email_l) and email_l == email_r
        phone_conflict = bool(phone_l) and bool(phone_r) and phone_l != phone_r
        email_conflict = bool(email_l) and bool(email_r) and email_l != email_r

        name_score = name_similarity(left.display_name, right.display_name)
        # Partial-name containment ("Tim" ⊂ "Tim Smith") earns mid credit.
        tokens_l = set(left.display_name.lower().split())
        tokens_r = set(right.display_name.lower().split())
        if tokens_l and tokens_r and (tokens_l <= tokens_r or tokens_r <= tokens_l):
            name_score = max(name_score, 0.7)

        score = 0.0
        if phone_equal:
            score += cfg.weight_phone
        if email_equal:
            score += cfg.weight_email
        if name_score >= cfg.name_floor:
            score += cfg.weight_name * name_score
        if phone_conflict:
            score -= cfg.conflict_penalty
        if email_conflict:
            score -= cfg.conflict_penalty

        return MatchDecision(
            left=left.record_id,
            right=right.record_id,
            score=score,
            matched=score >= cfg.threshold,
            phone_equal=phone_equal,
            email_equal=email_equal,
            name_score=name_score,
        )
