"""Text utilities shared by annotation, extraction and on-device matching.

These are intentionally lightweight (no external NLP dependency): a unicode
aware tokenizer, normalisation for alias matching, character n-grams for
fuzzy name similarity and the Dice measure used by the reranker and the
on-device entity matcher.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from collections.abc import Sequence

_TOKEN_RE = re.compile(r"[A-Za-z0-9']+")
_WS_RE = re.compile(r"\s+")

# Small multilingual stopword set; the annotation service only needs to keep
# contextual content words, not to be linguistically complete.
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he her his i in is it its
    of on or she that the their they this to was were will with el la le les de
    der die das und un une""".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens of ``text``.

    >>> tokenize("Joe Root hits a hundred!")
    ['joe', 'root', 'hits', 'a', 'hundred']
    """
    return [match.group(0).lower() for match in _TOKEN_RE.finditer(text)]


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Tokens with ``(token, start, end)`` character offsets, case preserved."""
    return [
        (match.group(0), match.start(), match.end())
        for match in _TOKEN_RE.finditer(text)
    ]


def content_tokens(text: str) -> list[str]:
    """Tokens of ``text`` with stopwords removed."""
    return [token for token in tokenize(text) if token not in STOPWORDS]


def normalize_name(name: str) -> str:
    """Canonical form for alias-table keys and name comparison.

    Strips accents, lowercases, collapses whitespace and drops punctuation:

    >>> normalize_name("  Benicio  del Toro ")
    'benicio del toro'
    """
    decomposed = unicodedata.normalize("NFKD", name)
    ascii_only = decomposed.encode("ascii", "ignore").decode("ascii")
    lowered = ascii_only.lower()
    cleaned = re.sub(r"[^\w\s]", " ", lowered)
    return _WS_RE.sub(" ", cleaned).strip()


def char_ngrams(text: str, n: int = 3) -> Counter[str]:
    """Multiset of character ``n``-grams of the normalised text.

    Pads with ``#`` so short strings still produce grams; used for fuzzy
    name similarity in candidate generation and on-device matching.
    """
    normalized = normalize_name(text)
    padded = "#" * (n - 1) + normalized + "#" * (n - 1)
    if len(padded) < n:
        return Counter()
    return Counter(padded[i : i + n] for i in range(len(padded) - n + 1))


def dice_similarity(a: Counter[str], b: Counter[str]) -> float:
    """Dice coefficient of two multisets, in ``[0, 1]``."""
    if not a or not b:
        return 0.0
    overlap = sum((a & b).values())
    return 2.0 * overlap / (sum(a.values()) + sum(b.values()))


def name_similarity(left: str, right: str, n: int = 3) -> float:
    """Fuzzy similarity of two names via character n-gram Dice.

    >>> name_similarity("Tim Smith", "tim smith") == 1.0
    True
    """
    return dice_similarity(char_ngrams(left, n), char_ngrams(right, n))


def window(tokens: Sequence[str], center: int, radius: int) -> list[str]:
    """Tokens within ``radius`` positions of ``center`` (center excluded)."""
    lo = max(0, center - radius)
    hi = min(len(tokens), center + radius + 1)
    return [tokens[i] for i in range(lo, hi) if i != center]
