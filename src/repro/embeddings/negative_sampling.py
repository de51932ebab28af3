"""Negative sampling: the "non-existing edges" of the contrastive objective.

§2: "Shallow embedding models often learn embedding matrices of entities
and predicates by optimizing a contrastive objective on both existing and
non-existing edges in the graph."  Negatives are produced by corrupting the
head or tail of a positive triple with a uniformly random entity; the
*filtered* variant rejects corruptions that happen to be true edges.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import substream


# Packed key layout: head << 39 | relation << 24 | tail, a non-negative
# int64 for entity ids below 2**24 and relation ids below 2**15.
_ENTITY_BITS = 24
_RELATION_BITS = 15


def _pack(triples: np.ndarray) -> np.ndarray:
    """One int64 key per ``(h, r, t)`` row, in row order."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    if len(triples) and (
        triples.min() < 0
        or max(heads.max(), tails.max()) >> _ENTITY_BITS
        or relations.max() >> _RELATION_BITS
    ):
        raise ValueError(
            f"triple ids out of range: entities must be below 2**{_ENTITY_BITS}, "
            f"relations below 2**{_RELATION_BITS}"
        )
    return (heads << (_ENTITY_BITS + _RELATION_BITS)) | (relations << _ENTITY_BITS) | tails


class KnownTriples:
    """A set of true ``(h, r, t)`` index triples, as sorted packed keys.

    Membership of a whole batch is one ``np.searchsorted`` instead of a
    Python loop over tuples.
    """

    def __init__(self, triples=()) -> None:
        if not isinstance(triples, np.ndarray):
            triples = list(triples)
        self.keys = np.unique(_pack(triples))

    def contains(self, triples: np.ndarray) -> np.ndarray:
        """A boolean mask: which rows of ``triples`` are known."""
        keys = _pack(triples)
        found = np.zeros(len(keys), dtype=bool)
        if len(self.keys):  # sorted probes: searchsorted gains more than the sort costs
            order = np.argsort(keys)
            slots = np.minimum(np.searchsorted(self.keys, keys[order]), len(self.keys) - 1)
            found[order] = self.keys[slots] == keys[order]
        return found

    def add(self, triples: np.ndarray) -> None:
        """Insert the rows of ``triples``, keeping the keys sorted."""
        self.keys = np.union1d(self.keys, _pack(triples))


class NegativeSampler:
    """Uniform head/tail corruption with optional filtering.

    Filtering retries up to ``max_retries`` times per slot and then keeps
    whatever it has — with a sparse graph collisions are rare, so the bound
    exists only to guarantee termination.  ``known`` is a
    :class:`KnownTriples`, or any collection of ``(h, r, t)`` rows (a set
    of tuples, an ``(m, 3)`` array) to build one from.
    """

    def __init__(
        self,
        num_entities: int,
        negatives_per_positive: int = 4,
        filtered: bool = True,
        known: KnownTriples | set[tuple[int, int, int]] | np.ndarray | None = None,
        seed: int = 0,
        max_retries: int = 8,
    ) -> None:
        if num_entities <= 1:
            raise ValueError("need at least 2 entities to corrupt triples")
        if negatives_per_positive <= 0:
            raise ValueError("negatives_per_positive must be positive")
        self.num_entities = num_entities
        self.negatives_per_positive = negatives_per_positive
        self.filtered = filtered and known is not None
        if not isinstance(known, KnownTriples):
            known = KnownTriples(() if known is None else known)
        self.known = known
        self.max_retries = max_retries
        self._rng = substream(seed, "negative-sampler")

    def corrupt(self, positives: np.ndarray) -> np.ndarray:
        """Corrupted triples for a ``(b, 3)`` positive batch.

        Returns a ``(b * negatives_per_positive, 3)`` array; row ``i`` of
        the output corrupts positive ``i // k``.
        """
        k = self.negatives_per_positive
        negatives = np.repeat(positives, k, axis=0)
        n = len(negatives)
        corrupt_tail = self._rng.random(n) < 0.5
        replacements = self._rng.integers(0, self.num_entities, size=n)
        negatives[:, 2] = np.where(corrupt_tail, replacements, negatives[:, 2])
        negatives[:, 0] = np.where(corrupt_tail, negatives[:, 0], replacements)

        if self.filtered:
            self._refilter(negatives, corrupt_tail)
        return negatives

    def _refilter(self, negatives: np.ndarray, corrupt_tail: np.ndarray) -> None:
        """Resample rows that collide with known true triples, in place.

        Each attempt draws one replacement per colliding row, in row order,
        so the stream matches a row-by-row scan.  A retry re-checks only
        the rows it resampled: the others did not change, so they cannot
        collide now.
        """
        collisions = np.flatnonzero(self.known.contains(negatives))
        for _ in range(self.max_retries):
            if not len(collisions):
                return
            fresh = self._rng.integers(0, self.num_entities, size=len(collisions))
            tails = corrupt_tail[collisions]
            negatives[collisions[tails], 2] = fresh[tails]
            negatives[collisions[~tails], 0] = fresh[~tails]
            collisions = collisions[self.known.contains(negatives[collisions])]
