"""The training kernel replays its reference implementation bit for bit.

``_OracleAdaGrad.apply``, ``_OracleSampler`` and ``_oracle_step`` are the
``np.add.at`` / ``np.unique`` scatter, the full-batch refilter with its
unsorted membership probe, and the two-pass contrastive step that the
trained matrices were first produced with, kept verbatim as test-only
oracles.  The production kernel (one flat ``bincount`` scatter, a refilter
that re-checks only resampled rows, one scoring pass per step over rows
gathered once, and reused work arrays) must leave every parameter,
accumulator, loss and sampler stream byte-equal to them after many steps.
"""

import sys
import threading

import numpy as np
import pytest

from repro.embeddings.models import _MODELS as REGISTERED_MODELS
from repro.embeddings.models import ModelConfig, create_model
from repro.embeddings.negative_sampling import NegativeSampler, _pack
from repro.embeddings.trainer import AdaGrad, contrastive_step

STEPS = 30


# -- oracles: the reference kernel, verbatim ------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(x))."""
    return np.where(x > 30, x, np.log1p(np.exp(np.minimum(x, 30))))


class _OracleAdaGrad:
    def __init__(self, shape, learning_rate, eps=1e-8, accumulator=None, trainable=None):
        self.accumulator = (
            np.zeros(shape, dtype=np.float64) if accumulator is None else accumulator
        )
        self.learning_rate = learning_rate
        self.eps = eps
        self.trainable = trainable

    def apply(self, params: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
        if self.trainable is not None:
            keep = self.trainable[rows]
            rows, grads = rows[keep], grads[keep]
            if not len(rows):
                return
        unique_rows, inverse = np.unique(rows, return_inverse=True)
        dense = np.zeros((len(unique_rows), params.shape[1]), dtype=np.float64)
        np.add.at(dense, inverse, grads)
        self.accumulator[unique_rows] += dense**2
        scale = self.learning_rate / (np.sqrt(self.accumulator[unique_rows]) + self.eps)
        params[unique_rows] -= scale * dense


def _oracle_contains(known, triples: np.ndarray) -> np.ndarray:
    keys = _pack(triples)
    if not len(known.keys):
        return np.zeros(len(keys), dtype=bool)
    slots = np.minimum(np.searchsorted(known.keys, keys), len(known.keys) - 1)
    return known.keys[slots] == keys


class _OracleSampler(NegativeSampler):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attempts = 0

    def corrupt(self, positives: np.ndarray) -> np.ndarray:
        k = self.negatives_per_positive
        repeated = np.repeat(positives, k, axis=0)
        n = len(repeated)
        corrupt_tail = self._rng.random(n) < 0.5
        replacements = self._rng.integers(0, self.num_entities, size=n)
        negatives = repeated.copy()
        negatives[corrupt_tail, 2] = replacements[corrupt_tail]
        negatives[~corrupt_tail, 0] = replacements[~corrupt_tail]

        if self.filtered:
            self._refilter(negatives, corrupt_tail)
        return negatives

    def _refilter(self, negatives: np.ndarray, corrupt_tail: np.ndarray) -> None:
        for _ in range(self.max_retries):
            collisions = np.flatnonzero(_oracle_contains(self.known, negatives))
            if not len(collisions):
                return
            self.attempts += 1
            fresh = self._rng.integers(0, self.num_entities, size=len(collisions))
            tails = corrupt_tail[collisions]
            negatives[collisions[tails], 2] = fresh[tails]
            negatives[collisions[~tails], 0] = fresh[~tails]


def _oracle_step(model, sampler, entity_opt, relation_opt, positives, l2_penalty):
    if len(positives) == 0:
        return 0.0
    negatives = sampler.corrupt(positives)

    pos_scores = model.score(positives[:, 0], positives[:, 1], positives[:, 2])
    neg_scores = model.score(negatives[:, 0], negatives[:, 1], negatives[:, 2])

    # dL/ds for softplus losses; negatives averaged per positive.
    d_pos = -_sigmoid(-pos_scores)
    d_neg = _sigmoid(neg_scores) / sampler.negatives_per_positive

    gh_p, gr_p, gt_p = model.grads(positives[:, 0], positives[:, 1], positives[:, 2], d_pos)
    gh_n, gr_n, gt_n = model.grads(negatives[:, 0], negatives[:, 1], negatives[:, 2], d_neg)

    entity_rows = np.concatenate(
        [positives[:, 0], positives[:, 2], negatives[:, 0], negatives[:, 2]]
    )
    entity_grads = np.concatenate([gh_p, gt_p, gh_n, gt_n])
    relation_rows = np.concatenate([positives[:, 1], negatives[:, 1]])
    relation_grads = np.concatenate([gr_p, gr_n])

    if l2_penalty:
        entity_grads = entity_grads + l2_penalty * model.entity_emb[entity_rows]
        relation_grads = relation_grads + l2_penalty * model.relation_emb[relation_rows]

    entity_opt.apply(model.entity_emb, entity_rows, entity_grads)
    relation_opt.apply(model.relation_emb, relation_rows, relation_grads)

    loss = _softplus(-pos_scores).mean() + _softplus(neg_scores).mean()
    return float(loss)


# -- the comparison -------------------------------------------------------------


def _world(num_entities, num_relations, num_triples, hot_entities, seed):
    """Random index triples; heads and tails from the first ``hot_entities``."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.integers(0, hot_entities, num_triples),
            rng.integers(0, num_relations, num_triples),
            rng.integers(0, hot_entities, num_triples),
        ],
        axis=1,
    )


class _Training:
    """One side of a comparison: a model, its optimisers and sampler, and
    the seeded stream of positive batches it steps through."""

    def __init__(self, step, opt_cls, sampler_cls, name, triples, known, options):
        config = ModelConfig(dim=8, seed=options["seed"])
        self.model = create_model(name, options["num_entities"], options["num_relations"], config)
        self.accumulator = (
            np.zeros_like(self.model.entity_emb) if options["external_accumulator"] else None
        )
        self.entity_opt = opt_cls(
            self.model.entity_emb.shape,
            0.1,
            accumulator=self.accumulator,
            trainable=options["entity_trainable"],
        )
        self.relation_opt = opt_cls(
            self.model.relation_emb.shape, 0.1, trainable=options["relation_trainable"]
        )
        self.sampler = sampler_cls(
            options["num_entities"], 4, filtered=True, known=known, seed=options["seed"]
        )
        self.triples = triples
        self.batch = options["batch"]
        self.l2 = options["l2"]
        self.rng = np.random.default_rng(options["seed"] + 1)
        self.losses = []
        self._step = step

    def step(self):
        size = self.rng.integers(1, self.batch + 1)
        positives = self.triples[self.rng.integers(0, len(self.triples), size)]
        self.losses.append(
            self._step(
                self.model, self.sampler, self.entity_opt, self.relation_opt, positives, self.l2
            )
        )


def _pair(
    name,
    *,
    num_entities=60,
    num_relations=5,
    hot_entities=None,
    known_triples=None,
    batch=24,
    l2=1e-6,
    entity_trainable=None,
    relation_trainable=None,
    external_accumulator=False,
    seed=3,
):
    """The oracle and the production kernel, from one initial state."""
    options = dict(locals())
    triples = _world(num_entities, num_relations, 400, hot_entities or num_entities, seed)
    known = triples if known_triples is None else known_triples
    return [
        _Training(step, opt_cls, sampler_cls, name, triples, known, options)
        for step, opt_cls, sampler_cls in (
            (_oracle_step, _OracleAdaGrad, _OracleSampler),
            (contrastive_step, AdaGrad, NegativeSampler),
        )
    ]


def _run(name, **options):
    """:data:`STEPS` steps of both sides of a :func:`_pair`."""
    sides = _pair(name, **options)
    for _ in range(STEPS):
        for side in sides:
            side.step()
    return sides


def _assert_identical(sides):
    oracle, kernel = sides
    assert kernel.model.entity_emb.tobytes() == oracle.model.entity_emb.tobytes()
    assert kernel.model.relation_emb.tobytes() == oracle.model.relation_emb.tobytes()
    assert kernel.entity_opt.accumulator.tobytes() == oracle.entity_opt.accumulator.tobytes()
    assert kernel.relation_opt.accumulator.tobytes() == oracle.relation_opt.accumulator.tobytes()
    assert np.array(kernel.losses).tobytes() == np.array(oracle.losses).tobytes()
    # Both samplers drew the same stream, so they are still in step.
    assert kernel.sampler._rng.integers(2**62) == oracle.sampler._rng.integers(2**62)


MODELS = ["distmult", "transe", "complex", "rotate"]


def test_every_model_is_covered():
    assert sorted(MODELS) == sorted(REGISTERED_MODELS)


@pytest.mark.parametrize("name", MODELS)
class TestKernelMatchesOracle:
    def test_plain(self, name):
        _assert_identical(_run(name))

    def test_no_l2_penalty(self, name):
        _assert_identical(_run(name, l2=0.0))

    def test_trainable_mask(self, name):
        # The row-sparse EmbeddingDiff update: a few entity rows train,
        # every relation row is frozen.
        trainable = np.zeros(60, dtype=bool)
        trainable[[1, 4, 9, 16, 25, 36, 49]] = True
        sides = _run(
            name,
            entity_trainable=trainable,
            relation_trainable=np.zeros(5, dtype=bool),
        )
        _assert_identical(sides)
        initial = create_model(name, 60, 5, ModelConfig(dim=8, seed=3))
        kernel = sides[1].model
        assert kernel.entity_emb[~trainable].tobytes() == initial.entity_emb[~trainable].tobytes()
        assert kernel.relation_emb.tobytes() == initial.relation_emb.tobytes()

    def test_external_accumulator(self, name):
        # The DiskTrainer path: the optimiser updates a caller-owned array.
        sides = _run(name, external_accumulator=True)
        _assert_identical(sides)
        kernel = sides[1]
        assert kernel.entity_opt.accumulator is kernel.accumulator
        assert kernel.accumulator.any()

    def test_heavily_repeated_rows(self, name):
        # 400 triples over 3 of 200 entities: every batch row repeats many
        # times, and most entity rows are never touched.
        _assert_identical(_run(name, num_entities=200, hot_entities=3, batch=64))

    def test_dense_known_set_forces_retries(self, name):
        # Most corruptions over 8 entities are known triples, so rows collide
        # and collide again after their resample.
        rng = np.random.default_rng(0)
        h, r, t = np.meshgrid(np.arange(8), np.arange(2), np.arange(8), indexing="ij")
        every = np.stack([h.ravel(), r.ravel(), t.ravel()], axis=1)
        known = every[rng.random(len(every)) < 0.85]
        sides = _run(name, num_entities=8, num_relations=2, known_triples=known)
        _assert_identical(sides)
        assert sides[0].sampler.attempts > 2 * STEPS  # retries on most steps


def test_interleaved_trainings_keep_separate_buffers():
    # Two trainings stepping in turn (a publisher and a compaction, say)
    # share no work array: each still matches its own oracle.
    first, second = _pair("distmult", seed=3), _pair("complex", seed=4, batch=40)
    for _ in range(STEPS):
        for side in (first[1], second[1], first[0], second[0]):
            side.step()
    _assert_identical(first)
    _assert_identical(second)
    assert first[1].entity_opt._buffers is not second[1].entity_opt._buffers


def test_concurrent_trainings_in_threads():
    # More trainings than cores, switching threads as often as the
    # interpreter allows: a shared work array would corrupt some step.
    pairs = [_pair("distmult", seed=seed, batch=64) for seed in (5, 6, 7)]

    def train(side):
        for _ in range(STEPS):
            side.step()

    threads = [threading.Thread(target=train, args=(kernel,)) for _, kernel in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for oracle, _ in pairs:
        train(oracle)
    for pair in pairs:
        _assert_identical(pair)
