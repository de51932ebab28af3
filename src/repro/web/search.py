"""BM25 web search over the synthetic corpus.

ODKE (§4) "leverage[s] Web search to find relevant documents" instead of
scanning the whole crawl.  This is a classic inverted-index BM25 engine
with a small title boost — enough fidelity that the Query Synthesizer's
targeted queries retrieve the right pages.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.common.text import tokenize
from repro.web.corpus import WebCorpus
from repro.web.document import WebDocument


@dataclass
class SearchResult:
    """One ranked search hit."""

    doc_id: str
    score: float
    document: WebDocument


class BM25SearchEngine:
    """Okapi BM25 with document-frequency pruned postings."""

    def __init__(
        self,
        corpus: WebCorpus,
        k1: float = 1.5,
        b: float = 0.75,
        title_weight: float = 2.0,
    ) -> None:
        self.k1 = k1
        self.b = b
        self.title_weight = title_weight
        self._corpus = corpus
        self._postings: dict[str, dict[str, int]] = defaultdict(dict)
        self._doc_len: dict[str, float] = {}
        self._build()

    def _build(self) -> None:
        for doc in self._corpus:
            counts: Counter[str] = Counter(tokenize(doc.text))
            for token in tokenize(doc.title):
                counts[token] += int(self.title_weight)
            length = float(sum(counts.values()))
            self._doc_len[doc.doc_id] = length
            for token, count in counts.items():
                self._postings[token][doc.doc_id] = count
        self._num_docs = len(self._corpus)
        self._avg_len = (
            sum(self._doc_len.values()) / self._num_docs if self._num_docs else 0.0
        )

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Top-``k`` documents for ``query`` under BM25."""
        tokens = tokenize(query)
        if not tokens or not self._num_docs:
            return []
        scores: dict[str, float] = defaultdict(float)
        for token in tokens:
            postings = self._postings.get(token)
            if not postings:
                continue
            df = len(postings)
            idf = math.log(1.0 + (self._num_docs - df + 0.5) / (df + 0.5))
            for doc_id, tf in postings.items():
                norm = self.k1 * (
                    1 - self.b + self.b * self._doc_len[doc_id] / max(self._avg_len, 1e-9)
                )
                scores[doc_id] += idf * tf * (self.k1 + 1) / (tf + norm)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
        results = []
        for doc_id, score in ranked:
            document = self._corpus.get(doc_id)
            if document is not None:
                results.append(
                    SearchResult(doc_id=doc_id, score=score, document=document)
                )
        return results
