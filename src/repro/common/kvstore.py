"""Key-value stores used as caches throughout the platform.

Section 3.2 of the paper caches precomputed entity embeddings in a
"low-latency key-value store" so the reranker only embeds the query at
request time.  We provide two implementations behind one interface:

* :class:`MemoryKVStore` — a dict with optional LRU capacity, the default.
* :class:`DiskKVStore`  — JSON-lines segments on disk with an in-memory
  index, for cache contents that outlive a process (used by the on-device
  pipeline whose memory budget is bounded).

Values must be JSON-serialisable; NumPy arrays are handled transparently.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np


def _encode(value: Any) -> Any:
    """Convert ``value`` into a JSON-serialisable payload."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    return value


def _decode(payload: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(payload, dict) and "__ndarray__" in payload:
        return np.asarray(payload["__ndarray__"], dtype=payload["dtype"])
    return payload


class KVStore:
    """Abstract key-value store interface."""

    def get(self, key: str, default: Any = None) -> Any:
        raise NotImplementedError

    def put(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry (hit/miss statistics, where kept, survive)."""
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError


class MemoryKVStore(KVStore):
    """In-memory store with optional LRU eviction.

    ``capacity=None`` means unbounded.  Thread-safe: the annotation service
    shares one store across worker shards.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self._capacity = capacity
        self._data: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if self._capacity is not None and len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._data.pop(key, _MISSING) is not _MISSING

    def pop(self, key: str, default: Any = None) -> Any:
        """Remove and return ``key``'s value (no hit/miss accounting)."""
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._data.keys()))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DiskKVStore(KVStore):
    """Disk-backed store: append-only JSONL segments + in-memory key index.

    Writes append ``{"k": key, "v": value}`` records; deletes append a
    tombstone.  :meth:`compact` rewrites live records into a fresh segment.
    This mirrors how the on-device pipeline spills bounded-memory state.
    """

    _SEGMENT = "segment-{:05d}.jsonl"

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        # key -> (segment_path, byte_offset); None marks a tombstone.
        self._index: dict[str, tuple[Path, int] | None] = {}
        self._segment_no = 0
        self._lock = threading.Lock()
        self._replay()
        self._active = self._dir / self._SEGMENT.format(self._segment_no)

    def _replay(self) -> None:
        """Rebuild the index from existing segments on startup."""
        for path in sorted(self._dir.glob("segment-*.jsonl")):
            offset = 0
            with path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    if record.get("tombstone"):
                        self._index[record["k"]] = None
                    else:
                        self._index[record["k"]] = (path, offset)
                    offset += len(line.encode("utf-8"))
            number = int(path.stem.split("-")[1])
            self._segment_no = max(self._segment_no, number + 1)

    def _append(self, record: dict[str, Any]) -> int:
        line = json.dumps(record, ensure_ascii=False) + "\n"
        with self._active.open("a", encoding="utf-8") as handle:
            offset = handle.tell()
            handle.write(line)
        return offset

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            location = self._index.get(key)
            if location is None:
                return default
            path, offset = location
        with path.open("r", encoding="utf-8") as handle:
            handle.seek(offset)
            record = json.loads(handle.readline())
        return _decode(record["v"])

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            offset = self._append({"k": key, "v": _encode(value)})
            self._index[key] = (self._active, offset)

    def delete(self, key: str) -> bool:
        with self._lock:
            existed = self._index.get(key) is not None
            if existed:
                self._append({"k": key, "tombstone": True})
                self._index[key] = None
            return existed

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return self._index.get(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for loc in self._index.values() if loc is not None)

    def keys(self) -> Iterator[str]:
        with self._lock:
            live = [key for key, loc in self._index.items() if loc is not None]
        return iter(live)

    def clear(self) -> None:
        with self._lock:
            for path in self._dir.glob("segment-*.jsonl"):
                path.unlink()
            self._index.clear()
            self._segment_no += 1
            self._active = self._dir / self._SEGMENT.format(self._segment_no)

    def compact(self) -> None:
        """Rewrite live records into a new segment and drop old segments."""
        with self._lock:
            live: dict[str, Any] = {}
            for key, location in self._index.items():
                if location is None:
                    continue
                path, offset = location
                with path.open("r", encoding="utf-8") as handle:
                    handle.seek(offset)
                    live[key] = json.loads(handle.readline())["v"]
            for path in self._dir.glob("segment-*.jsonl"):
                path.unlink()
            self._segment_no += 1
            self._active = self._dir / self._SEGMENT.format(self._segment_no)
            self._index.clear()
            for key, value in live.items():
                offset = self._append({"k": key, "v": value})
                self._index[key] = (self._active, offset)


_MISSING = object()
