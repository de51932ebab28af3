"""JSON-lines serialization helpers.

Datasets, checkpoints and sync deltas are exchanged as JSONL: one record per
line, UTF-8, append-friendly.  Dataclass instances are serialized via their
``to_dict`` / ``from_dict`` protocol when available.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write ``records`` (dicts or objects with ``to_dict``) to ``path``.

    Returns the number of records written.  Parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            payload = record.to_dict() if hasattr(record, "to_dict") else record
            handle.write(json.dumps(payload, ensure_ascii=False, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(
    path: str | Path, factory: Callable[[dict[str, Any]], T] | None = None
) -> Iterator[Any]:
    """Yield records from ``path``; apply ``factory`` to each dict if given."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            yield factory(record) if factory is not None else record
