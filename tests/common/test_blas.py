"""The OpenBLAS thread-count helper and the one-thread serving worker.

Setting the count is process-global and unsafe while another thread is
inside a BLAS call, so every test that sets it does so in a forked child
and leaves this process's count alone.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro.common import blas
from repro.kg.generator import SyntheticKGConfig, generate_kg
from repro.kg.persistence import save_snapshot
from repro.serving.worker import WorkerConfig, _process_initializer
from repro.services.related_entities import TraversalRelatedEntities


def _in_fork(work):
    """``work()`` run in a forked child; its return value, sent back over a pipe."""
    context = multiprocessing.get_context("fork")
    # One way: the child only sends its result back.
    receive, send = context.Pipe(duplex=False)

    def child() -> None:
        send.send(work())

    process = context.Process(target=child)
    process.start()
    send.close()
    try:
        assert receive.poll(120), "forked child sent nothing"
        result = receive.recv()
    finally:
        process.join(timeout=30)
    assert not process.is_alive() and process.exitcode == 0
    return result


def _threads_after_capping() -> tuple[int | None, int]:
    """OpenBLAS's count and this process's OS thread count, after capping."""
    return blas.blas_threads(), len(os.listdir("/proc/self/task"))


def _numpy_uses_openblas() -> bool:
    blas_info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas_info.get("name", "")).lower()


needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="numpy's BLAS is not a readable OpenBLAS"
)


def test_openblas_builds_can_be_capped():
    """A numpy whose OpenBLAS exports none of the setter names, or no
    longer lets the pool be sized before it starts, would silently bring
    back a spinning worker thread; fail instead."""
    if not _numpy_uses_openblas():
        pytest.skip("numpy is not built against OpenBLAS")

    def capped():
        assert blas.set_blas_threads(1)
        return _threads_after_capping()

    # One BLAS thread, and no idle pool thread beside the main thread.
    assert _in_fork(capped) == (1, 1)


@needs_openblas
def test_process_worker_runs_one_blas_thread(tmp_path):
    bundle = tmp_path / "bundle"
    save_snapshot(generate_kg(SyntheticKGConfig(seed=7, scale=0.05)).store, bundle)
    before = blas.blas_threads()

    def initialized_worker() -> tuple[int | None, int]:
        _process_initializer(str(bundle), WorkerConfig(verify=False))
        return _threads_after_capping()

    assert _in_fork(initialized_worker) == (1, 1)
    assert blas.blas_threads() == before  # this (gateway-side) process keeps its count


@needs_openblas
def test_related_vectors_do_not_depend_on_the_thread_count(kg):
    def vectors_digest(threads: int | None) -> tuple[int | None, str]:
        if threads is not None:
            blas.set_blas_threads(threads)
        config = WorkerConfig()
        backend = TraversalRelatedEntities(
            kg.store,
            dim=config.related_dim,
            walk_length=config.related_walk_length,
            walks_per_entity=config.related_walks_per_entity,
            window=config.related_window,
            seed=config.related_seed,
        )
        return blas.blas_threads(), hashlib.sha256(backend._vectors.tobytes()).hexdigest()

    one_count, one = _in_fork(lambda: vectors_digest(1))
    default_count, default = _in_fork(lambda: vectors_digest(None))
    assert one_count == 1 and default_count == blas.blas_threads()
    assert one == default


def test_without_openblas_nothing_changes(monkeypatch):
    before = blas.blas_threads()
    monkeypatch.setattr(blas, "_openblas_path", lambda: None)
    assert blas.set_blas_threads(1) is False
    assert blas.blas_threads() is None
    monkeypatch.undo()
    assert blas.blas_threads() == before


@needs_openblas
@pytest.mark.parametrize("pool_started", [False, True])
def test_a_capped_pool_can_grow_again(pool_started):
    def regrow():
        if pool_started:
            np.ones((256, 256)) @ np.ones((256, 256))
        blas.set_blas_threads(1)
        blas.set_blas_threads(2)
        return _threads_after_capping()

    assert _in_fork(regrow) == (2, 2)


def test_rejects_a_count_below_one():
    with pytest.raises(ValueError):
        blas.set_blas_threads(0)
