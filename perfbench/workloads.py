"""Seeded request mixes for the benchmark's workloads.

The served world is fixed (``WORLD_SEED``) per scale: it is part of the
system under test, and a fixed graph keeps set-up and per-request cost
comparable across runs.  The run's ``--seed`` drives everything a client
chooses: which entities, texts and candidate facts each request names,
the request order and the arrival times.

Every request is valid by construction, so ``error_frac`` measures the
server, not the generator:

* ranking, verification, similarity and k-NN draw entities from the
  embedding vocabulary (``build_dataset`` over the same store the bundle
  trains on) — anything else comes back ``EmbeddingError``;
* verification candidates are real entity-valued facts or those facts
  with the object swapped for another vocabulary entity;
* annotation texts are built from entity names, which the alias table
  indexes, so linking does real detection and disambiguation work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embeddings.dataset import build_dataset
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.serving.protocol import encode_request
from repro.serving.requests import (
    AnnotateRequest,
    FactRankRequest,
    KnnRequest,
    NeighborhoodRequest,
    PersonalRecord,
    RelatedRequest,
    SimilarityRequest,
    TenantSyncRequest,
    TenantUpsertRequest,
    VerifyRequest,
    WalkRequest,
)

from loadgen import Item

WORLD_SEED = 7
FAMILIES = (
    "walk",
    "neighborhood",
    "related",
    "annotate",
    "fact_rank",
    "verify",
    "similarity",
    "knn",
)
TEMPLATES = (
    "{0} met {1} after the premiere.",
    "Reporters saw {0} with {1} and {2} downtown.",
    "{0} praised {1} in an interview.",
    "A profile of {0}, who worked with {1} and {2}.",
)


def build_world(scale: float):
    """The synthetic world served at ``scale`` (input preparation)."""
    return generate_kg(SyntheticKGConfig(seed=WORLD_SEED, scale=scale))


@dataclass
class Vocabulary:
    """What a valid request may name, derived from the served store."""

    entities: list[str]  # every entity, for graph families
    popularity: np.ndarray  # normalised draw weights over ``entities``
    names: list[str]  # entity names for annotation texts
    embedded: list[str]  # the embedding vocabulary
    embedded_popularity: np.ndarray
    facts: list[tuple[str, str, str]]  # entity-valued facts (verify/rank)

    @classmethod
    def of(cls, store) -> "Vocabulary":
        records = sorted(store.entities(), key=lambda record: record.entity)
        entities = [record.entity for record in records]
        weights = np.array([max(record.popularity, 1e-3) for record in records])
        names = sorted({record.name for record in records if len(record.name) >= 4})
        dataset = build_dataset(store)
        embedded = list(dataset.entities)
        by_id = {record.entity: record for record in records}
        embedded_weights = np.array(
            [max(by_id[e].popularity, 1e-3) if e in by_id else 1e-3 for e in embedded]
        )
        facts = [dataset.decode(*map(int, row)) for row in dataset.triples]
        return cls(
            entities=entities,
            popularity=weights / weights.sum(),
            names=names,
            embedded=embedded,
            embedded_popularity=embedded_weights / embedded_weights.sum(),
            facts=facts,
        )


class RequestMaker:
    """Builds one request of a family from a seeded generator."""

    def __init__(self, vocab: Vocabulary, rng: np.random.Generator, *, skewed: bool) -> None:
        self.vocab = vocab
        self.rng = rng
        self.skewed = skewed

    def _pick(self, pool: list[str], weights: np.ndarray, count: int) -> tuple[str, ...]:
        p = weights if self.skewed else None
        picks = self.rng.choice(len(pool), size=count, replace=False, p=p)
        return tuple(pool[int(i)] for i in picks)

    def entities(self, count: int) -> tuple[str, ...]:
        return self._pick(self.vocab.entities, self.vocab.popularity, count)

    def embedded(self, count: int) -> tuple[str, ...]:
        return self._pick(self.vocab.embedded, self.vocab.embedded_popularity, count)

    def text(self) -> str:
        template = TEMPLATES[int(self.rng.integers(len(TEMPLATES)))]
        names = self.vocab.names
        picks = self.rng.choice(len(names), size=3, replace=False)
        return template.format(*(names[int(i)] for i in picks))

    def fact(self) -> tuple[str, str, str]:
        facts = self.vocab.facts
        return facts[int(self.rng.integers(len(facts)))]

    def make(self, family: str, size: int):
        rng = self.rng
        if family == "walk":
            return WalkRequest(entities=self.entities(size), seed=int(rng.integers(1 << 30)))
        if family == "neighborhood":
            return NeighborhoodRequest(entities=self.entities(size), hops=1)
        if family == "related":
            return RelatedRequest(entities=self.entities(size), k=10)
        if family == "annotate":
            return AnnotateRequest(texts=tuple(self.text() for _ in range(size)))
        if family == "fact_rank":
            subject, predicate, _ = self.fact()
            subjects = (subject,) + tuple(
                s for s in self.embedded(size) if s != subject
            )[: size - 1]
            return FactRankRequest(entities=subjects, predicate=predicate)
        if family == "verify":
            candidates = []
            for _ in range(size):
                subject, predicate, obj = self.fact()
                if rng.random() < 0.5:
                    obj = self.embedded(1)[0]
                candidates.append((subject, predicate, obj))
            return VerifyRequest(candidates=tuple(candidates))
        if family == "similarity":
            return SimilarityRequest(
                pairs=tuple(self.embedded(2) for _ in range(size))
            )
        if family == "knn":
            return KnnRequest(entities=self.embedded(size), k=10)
        raise ValueError(f"unknown family {family!r}")


def encode(request, family: str, *, kind: str = "read", tenant: str | None = None) -> Item:
    return Item(kind=kind, family=family, body=encode_request(request, tenant=tenant))


def first_of_each(vocab: Vocabulary) -> list[tuple[str, object]]:
    """One fixed request per family: the set-up probe (lazy layers build)."""
    maker = RequestMaker(vocab, np.random.default_rng(0), skewed=False)
    return [(family, maker.make(family, 1)) for family in FAMILIES]


# -- hot_reads -------------------------------------------------------------------


def hot_key_set(vocab: Vocabulary, seed: int, per_family: int) -> list[tuple[str, object]]:
    """Distinct small cacheable requests whose entities are drawn in
    proportion to their popularity."""
    maker = RequestMaker(vocab, np.random.default_rng([seed, 1]), skewed=True)
    keys: list[tuple[str, object]] = []
    seen: set = set()
    for family in FAMILIES:
        made = 0
        while made < per_family:
            size = 1 if family == "annotate" else int(maker.rng.integers(1, 5))
            request = maker.make(family, size)
            if request in seen:
                continue
            seen.add(request)
            keys.append((family, request))
            made += 1
    return keys


def hot_stream(keys, count: int, rng: np.random.Generator) -> list[Item]:
    """``count`` draws from ``keys``, uniformly: the keys themselves name
    entities in proportion to their popularity (``hot_key_set``), as
    ``kg/query_logs.py`` picks each query's entity."""
    return [encode(keys[int(i)][1], keys[int(i)][0]) for i in rng.integers(len(keys), size=count)]


# -- cold_compute ----------------------------------------------------------------


def cold_stream(vocab: Vocabulary, seed: int, count: int, phase: int) -> list[Item]:
    """Unique requests: 4-8 entities per splittable request, 2-6 texts per
    annotation batch — nothing repeats, so nothing is served from cache."""
    rng = np.random.default_rng([seed, 2, phase])
    maker = RequestMaker(vocab, rng, skewed=False)
    items = []
    seen: set = set()
    families = rng.choice(len(FAMILIES), size=count)
    for index in families:
        family = FAMILIES[int(index)]
        while True:
            size = int(rng.integers(2, 7)) if family == "annotate" else int(rng.integers(4, 9))
            request = maker.make(family, size)
            if request not in seen:
                break
        seen.add(request)
        items.append(encode(request, family))
    return items


# -- grow_tenants ----------------------------------------------------------------


def tenant_id(n: int) -> str:
    return f"tenant-{n:03d}"


def personal_record(tenant: int, index: int, link: str, sequence: int) -> PersonalRecord:
    return PersonalRecord(
        record_id=f"r{index:04d}",
        source="contacts",
        fields=(
            ("first_name", f"Person{tenant:03d}x{index:04d}"),
            ("last_name", "Bench"),
            ("linked_entity", link),
        ),
        sequence=sequence,
    )


def tenant_write(maker: RequestMaker, tenant: int, index: int, sequence: int, sync: bool):
    link = maker.entities(1)[0]
    record = personal_record(tenant, index, link, sequence)
    if sync:
        return "tenant_sync", TenantSyncRequest(records=(record,), epsilon=1.0)
    return "tenant_upsert", TenantUpsertRequest(records=(record,))
