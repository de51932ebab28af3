"""Tests for negative sampling."""

import numpy as np
import pytest

from repro.embeddings.negative_sampling import KnownTriples, NegativeSampler


@pytest.fixture()
def positives():
    return np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]], dtype=np.int64)


class TestCorrupt:
    def test_output_shape(self, positives):
        sampler = NegativeSampler(num_entities=10, negatives_per_positive=4, filtered=False)
        negatives = sampler.corrupt(positives)
        assert negatives.shape == (12, 3)

    def test_relation_preserved(self, positives):
        sampler = NegativeSampler(num_entities=10, negatives_per_positive=3, filtered=False)
        negatives = sampler.corrupt(positives)
        expected_relations = np.repeat(positives[:, 1], 3)
        assert np.array_equal(negatives[:, 1], expected_relations)

    def test_exactly_one_slot_corrupted_or_collided(self, positives):
        sampler = NegativeSampler(num_entities=1000, negatives_per_positive=2, filtered=False)
        negatives = sampler.corrupt(positives)
        repeated = np.repeat(positives, 2, axis=0)
        changed = (negatives != repeated).sum(axis=1)
        # With 1000 entities a random replacement almost surely differs,
        # and only one of head/tail is replaced.
        assert np.all(changed <= 1)

    def test_filtered_avoids_known(self):
        # Dense graph over 3 entities: every (h, 0, t) with h != t is true.
        known = {(h, 0, t) for h in range(3) for t in range(3)}
        positives = np.array([[0, 0, 1]] * 20, dtype=np.int64)
        sampler = NegativeSampler(
            num_entities=30, negatives_per_positive=2, filtered=True, known=known, seed=1
        )
        negatives = sampler.corrupt(positives)
        collisions = sum(
            1 for row in negatives if (int(row[0]), int(row[1]), int(row[2])) in known
        )
        assert collisions == 0

    def test_deterministic_per_seed(self, positives):
        a = NegativeSampler(10, 2, filtered=False, seed=5).corrupt(positives)
        b = NegativeSampler(10, 2, filtered=False, seed=5).corrupt(positives)
        assert np.array_equal(a, b)

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            NegativeSampler(num_entities=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            NegativeSampler(num_entities=5, negatives_per_positive=0)


class _LoopSampler(NegativeSampler):
    """The row-by-row ``_refilter`` over a set of tuples, kept as the
    reference the vectorised one must replay draw for draw."""

    def __init__(self, *args, known_set, **kwargs):
        super().__init__(*args, known=known_set, **kwargs)
        self.known_set = known_set
        self.collisions_per_attempt: list[int] = []

    def _refilter(self, negatives, corrupt_tail):
        for _ in range(self.max_retries):
            collisions = [
                i
                for i in range(len(negatives))
                if (int(negatives[i, 0]), int(negatives[i, 1]), int(negatives[i, 2]))
                in self.known_set
            ]
            if not collisions:
                return
            self.collisions_per_attempt.append(len(collisions))
            fresh = self._rng.integers(0, self.num_entities, size=len(collisions))
            for j, row in enumerate(collisions):
                if corrupt_tail[row]:
                    negatives[row, 2] = fresh[j]
                else:
                    negatives[row, 0] = fresh[j]


class TestVectorisedRefilter:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replays_the_row_loop(self, seed):
        # A dense known graph over 12 entities with 40 in the vocabulary:
        # about a third of the first-pass negatives collide, and some rows
        # collide again after their resample.
        rng = np.random.default_rng(seed)
        known = {
            (int(h), int(r), int(t))
            for h, r, t in zip(
                rng.integers(0, 12, 400), rng.integers(0, 3, 400), rng.integers(0, 12, 400)
            )
        }
        fast = NegativeSampler(40, 4, filtered=True, known=known, seed=seed)
        loop = _LoopSampler(40, 4, filtered=True, known_set=known, seed=seed)
        for _ in range(5):
            positives = np.array(sorted(known))[rng.integers(0, len(known), 25)]
            expected = loop.corrupt(positives)
            assert np.array_equal(fast.corrupt(positives), expected)
        attempts = loop.collisions_per_attempt
        assert sum(attempts) > 20 and len(attempts) > 5  # first passes and retries
        # The two streams are still in step after every resample.
        assert fast._rng.integers(2**62) == loop._rng.integers(2**62)

    def test_known_triples_membership(self):
        known = KnownTriples(np.array([[3, 1, 4], [1, 5, 9], [3, 1, 4]]))
        assert len(known.keys) == 2
        probe = np.array([[3, 1, 4], [4, 1, 3], [1, 5, 9], [0, 0, 0]])
        assert known.contains(probe).tolist() == [True, False, True, False]
        known.add(np.array([[0, 0, 0]]))
        assert known.contains(probe).tolist() == [True, False, True, True]
        assert not KnownTriples().contains(probe).any()

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError):
            KnownTriples(np.array([[2**24, 0, 0]]))
        with pytest.raises(ValueError):
            KnownTriples(np.array([[0, 2**15, 0]]))
