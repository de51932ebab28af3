"""In-memory contrastive training of shallow embedding models.

Implements the single-node path of Figure 3: minibatch SGD with per-row
AdaGrad over a logistic (softplus) contrastive loss

    L = softplus(-s(pos)) + Σ_neg softplus(s(neg))

with uniform head/tail corruption negatives.  The out-of-core variant that
keeps only an embedding buffer in memory lives in
:mod:`repro.embeddings.disk_trainer`; both share this module's loss and
update rules so their learning behaviour is identical modulo partition
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import EmbeddingError
from repro.common.rng import substream
from repro.embeddings.dataset import TripleDataset
from repro.embeddings.models import KGEmbeddingModel, ModelConfig, create_model
from repro.embeddings.negative_sampling import NegativeSampler


@dataclass
class TrainConfig:
    """Hyper-parameters of the contrastive training loop."""

    model: str = "distmult"
    dim: int = 32
    epochs: int = 20
    batch_size: int = 512
    learning_rate: float = 0.1
    negatives_per_positive: int = 4
    l2_penalty: float = 1e-6
    filtered_negatives: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise EmbeddingError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise EmbeddingError("learning_rate must be positive")


@dataclass
class EpochStats:
    """Loss and throughput of one training epoch."""

    epoch: int
    mean_loss: float
    triples_per_second: float


@dataclass
class TrainedEmbeddings:
    """A trained model bound to its vocabulary."""

    model: KGEmbeddingModel
    dataset: TripleDataset
    history: list[EpochStats] = field(default_factory=list)

    def entity_vector(self, entity: str) -> np.ndarray:
        """Embedding of one entity id (raises for out-of-vocabulary ids)."""
        try:
            index = self.dataset.entity_index[entity]
        except KeyError:
            raise EmbeddingError(f"entity not in embedding vocabulary: {entity}") from None
        return self.model.entity_emb[index].copy()

    def has_entity(self, entity: str) -> bool:
        """True when ``entity`` is embeddable."""
        return entity in self.dataset.entity_index

    def score_fact(self, subject: str, predicate: str, obj: str) -> float:
        """Model score of a symbolic triple."""
        h, r, t = self.dataset.encode(subject, predicate, obj)
        return float(
            self.model.score(np.array([h]), np.array([r]), np.array([t]))[0]
        )

    def all_entity_vectors(self) -> tuple[list[str], np.ndarray]:
        """(entity ids, matrix) aligned row-by-row, for vector indexing."""
        return self.dataset.entities, self.model.entity_emb.copy()


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


class AdaGrad:
    """Sparse per-row AdaGrad over one parameter matrix.

    ``accumulator`` may be supplied externally — the out-of-core trainer
    persists per-bucket accumulators to disk alongside the embeddings so
    optimiser state survives buffer eviction.  ``trainable`` is an optional
    boolean row mask: gradients of the other rows are dropped, so those
    rows stay frozen (the row-sparse update a published embedding delta
    makes).
    """

    def __init__(
        self,
        shape: tuple[int, int],
        learning_rate: float,
        eps: float = 1e-8,
        accumulator: np.ndarray | None = None,
        trainable: np.ndarray | None = None,
    ) -> None:
        self.accumulator = (
            np.zeros(shape, dtype=np.float64) if accumulator is None else accumulator
        )
        self.learning_rate = learning_rate
        self.eps = eps
        self.trainable = trainable
        self._buffers: dict[str, np.ndarray] = {}
        self._bins = np.empty((0, 0), dtype=np.intp)

    def buffer(self, name: str, rows: int, dim: int, dtype=np.float64) -> np.ndarray:
        """A ``(rows, dim)`` work array reused across steps (with headroom, as
        touched-row counts creep up), so a step's large temporaries are not
        mapped afresh each time.  Two optimisers never share a buffer."""
        size = rows * dim
        array = self._buffers.get(name)
        if array is None or array.size < size or array.dtype != dtype:
            array = self._buffers[name] = np.empty(size + size // 2, dtype=dtype)
        return array[:size].reshape(rows, dim)

    def apply(self, params: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
        """Scatter-add ``grads`` into ``params`` rows with AdaGrad scaling.

        Duplicate rows within a batch are accumulated before the update, so
        the step is equivalent to a dense gradient step on the touched rows.
        The scatter is one flat ``bincount`` over ``row * dim + column``
        keys: like ``np.add.at`` it adds each row's gradients in input
        order starting from 0.0, so the sums are bitwise the same.  Touched
        rows come out sorted, as from ``np.unique``, without a sort.
        """
        if self.trainable is not None:
            keep = self.trainable[rows]
            rows, grads = rows[keep], grads[keep]
            if not len(rows):
                return
        touched = np.bincount(rows, minlength=len(params)) > 0
        unique_rows = np.flatnonzero(touched)
        count, dim = len(unique_rows), params.shape[1]
        if len(self._bins) < count or self._bins.shape[1] != dim:
            # Row u holds bins u * dim + column: gathering it by row is
            # faster than building the keys by broadcast arithmetic.
            self._bins = np.arange(min(len(params), count + count // 2) * dim).reshape(-1, dim)
        keys = _gather(self._bins, np.cumsum(touched)[rows] - 1, self, "keys")
        dense = np.bincount(keys.ravel(), grads.ravel(), count * dim).reshape(count, dim)
        accumulated = _gather(self.accumulator, unique_rows, self, "acc")
        accumulated += np.square(dense, out=self.buffer("scale", count, dim))
        self.accumulator[unique_rows] = accumulated
        scale = np.sqrt(accumulated, out=self.buffer("scale", count, dim))
        scale += self.eps
        np.divide(self.learning_rate, scale, out=scale)
        scale *= dense
        updated = _gather(params, unique_rows, self, "rows")
        updated -= scale
        params[unique_rows] = updated


class Trainer:
    """Minibatch contrastive trainer for one :class:`TripleDataset`."""

    def __init__(self, dataset: TripleDataset, config: TrainConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.model = create_model(
            self.config.model,
            dataset.num_entities,
            dataset.num_relations,
            ModelConfig(dim=self.config.dim, seed=self.config.seed),
        )
        self.sampler = NegativeSampler(
            num_entities=dataset.num_entities,
            negatives_per_positive=self.config.negatives_per_positive,
            filtered=self.config.filtered_negatives,
            known=dataset.triples if self.config.filtered_negatives else None,
            seed=self.config.seed,
        )
        self._entity_opt = AdaGrad(self.model.entity_emb.shape, self.config.learning_rate)
        self._relation_opt = AdaGrad(self.model.relation_emb.shape, self.config.learning_rate)
        self._rng = substream(self.config.seed, "trainer")

    def train(self) -> TrainedEmbeddings:
        """Run the full schedule and return the trained embeddings."""
        import time

        history: list[EpochStats] = []
        triples = self.dataset.triples
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            order = self._rng.permutation(len(triples))
            losses: list[float] = []
            for begin in range(0, len(order), self.config.batch_size):
                batch = triples[order[begin : begin + self.config.batch_size]]
                losses.append(self.train_batch(batch))
            self.model.normalize_entities()
            elapsed = max(time.perf_counter() - start, 1e-9)
            history.append(
                EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)) if losses else 0.0,
                    triples_per_second=len(triples) / elapsed,
                )
            )
        return TrainedEmbeddings(model=self.model, dataset=self.dataset, history=history)

    def train_batch(self, positives: np.ndarray) -> float:
        """One gradient step on a positive batch; returns the mean loss."""
        return contrastive_step(
            self.model,
            self.sampler,
            self._entity_opt,
            self._relation_opt,
            positives,
            self.config.l2_penalty,
        )


def contrastive_step(
    model: KGEmbeddingModel,
    sampler: NegativeSampler,
    entity_opt: AdaGrad,
    relation_opt: AdaGrad,
    positives: np.ndarray,
    l2_penalty: float,
) -> float:
    """One softplus-contrastive gradient step shared by both trainers.

    The in-memory :class:`Trainer` and the out-of-core
    :class:`~repro.embeddings.disk_trainer.DiskTrainer` call this with
    global and partition-local index spaces respectively, so the learning
    rule is provably identical across the two execution strategies.
    """
    if len(positives) == 0:
        return 0.0
    b = len(positives)
    # One pass over positives and negatives, each row gathered once: rows
    # are independent, so every row's value is what a pass of its own gives.
    batch = np.concatenate([positives, sampler.corrupt(positives)])
    heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    eh = _gather(model.entity_emb, heads, entity_opt, "heads")
    wr = _gather(model.relation_emb, relations, relation_opt, "relations")
    et = _gather(model.entity_emb, tails, entity_opt, "tails")
    scores = model.score_rows(eh, wr, et)

    # dL/ds for softplus losses; negatives averaged per positive.
    k = sampler.negatives_per_positive
    dscore = np.concatenate([-_sigmoid(-scores[:b]), _sigmoid(scores[b:]) / k])
    grad_h, grad_r, grad_t = model.grad_rows(eh, wr, et, dscore)

    if l2_penalty:
        # In place on the gathered rows; relations first: TransE's grad_r is grad_h.
        wr *= l2_penalty
        grad_r = np.add(grad_r, wr, out=wr)
        for grad, rows in ((grad_h, eh), (grad_t, et)):
            rows *= l2_penalty
            grad += rows
    # [pos h, pos t, neg h, neg t]: the scatter sums in row order, so this
    # order fixes the result to the last bit.
    entity_rows = np.concatenate([heads[:b], tails[:b], heads[b:], tails[b:]])
    out = entity_opt.buffer("grads", len(entity_rows), eh.shape[1])
    entity_grads = np.concatenate([grad_h[:b], grad_t[:b], grad_h[b:], grad_t[b:]], out=out)

    entity_opt.apply(model.entity_emb, entity_rows, entity_grads)
    relation_opt.apply(model.relation_emb, relations, grad_r)

    loss = _softplus(-scores[:b]).mean() + _softplus(scores[b:]).mean()
    return float(loss)


def _gather(params: np.ndarray, rows: np.ndarray, owner: AdaGrad, name: str) -> np.ndarray:
    """``params[rows]``, written into ``owner``'s work array ``name``."""
    out = owner.buffer(name, len(rows), params.shape[1], params.dtype)
    return np.take(params, rows, axis=0, out=out, mode="clip")


def train_embeddings(
    dataset: TripleDataset, config: TrainConfig | None = None
) -> TrainedEmbeddings:
    """Convenience wrapper: build a :class:`Trainer` and run it."""
    return Trainer(dataset, config).train()
