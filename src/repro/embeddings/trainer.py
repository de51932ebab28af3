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

    def apply(self, params: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
        """Scatter-add ``grads`` into ``params`` rows with AdaGrad scaling.

        Duplicate rows within a batch are accumulated before the update, so
        the step is equivalent to a dense gradient step on the touched rows.
        """
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


def train_embeddings(
    dataset: TripleDataset, config: TrainConfig | None = None
) -> TrainedEmbeddings:
    """Convenience wrapper: build a :class:`Trainer` and run it."""
    return Trainer(dataset, config).train()
