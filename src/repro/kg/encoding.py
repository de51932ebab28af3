"""Dictionary encoding: string node ids -> dense int32 ids.

The physical layer under the graph engine (Saga-style "columnar, not
object-per-edge"): every node string (entity ids, plus literal renderings
that appear in object position) is interned once into a dense id space so
adjacency can live in flat numpy arrays instead of dict-of-set objects.

The dictionary is append-only and bidirectional: ids are assigned in
insertion order, never reused, and both directions are O(1).  Snapshots
(:mod:`repro.kg.adjacency`) embed the dictionary they were built with, so a
decoded result is always consistent with the encoding that produced it.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.common.errors import StoreError
from repro.common.snapshot_io import pack_strings, unpack_strings

MAX_ID = 2**31 - 1  # ids must fit int32 (CSR ``indices`` dtype)


class Dictionary:
    """Append-only bidirectional string <-> int32 interner."""

    __slots__ = ("_id_of", "_strings")

    def __init__(self, strings: Iterable[str] = ()) -> None:
        self._id_of: dict[str, int] = {}
        self._strings: list[str] = []
        for string in strings:
            self.intern(string)

    def intern(self, string: str) -> int:
        """Id of ``string``, assigning the next dense id on first sight."""
        node_id = self._id_of.get(string)
        if node_id is None:
            node_id = len(self._strings)
            if node_id > MAX_ID:
                raise StoreError("dictionary exceeds int32 id space")
            self._id_of[string] = node_id
            self._strings.append(string)
        return node_id

    def get(self, string: str) -> int | None:
        """Id of ``string``, or ``None`` when never interned."""
        return self._id_of.get(string)

    def id_of(self, string: str) -> int:
        """Id of ``string`` (raises for unknown strings)."""
        try:
            return self._id_of[string]
        except KeyError:
            raise StoreError(f"string not in dictionary: {string!r}") from None

    def string_of(self, node_id: int) -> str:
        """String interned as ``node_id`` (raises for out-of-range ids)."""
        if 0 <= node_id < len(self._strings):
            return self._strings[node_id]
        raise StoreError(f"id not in dictionary: {node_id!r}")

    def strings(self) -> list[str]:
        """All interned strings, id order (a copy)."""
        return list(self._strings)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(blob, offsets) flat-array form for snapshot persistence."""
        return pack_strings(self._strings)

    @classmethod
    def from_arrays(cls, blob: np.ndarray, offsets: np.ndarray) -> "Dictionary":
        """Rebuild from :meth:`to_arrays` output (ids preserved exactly).

        The string list and reverse map are materialised eagerly — both
        are O(n) dict/list work, orders of magnitude cheaper than the
        store scan a fresh build pays — and the dictionary stays
        append-only afterwards: interning a new string after a load
        assigns the next dense id exactly as a built dictionary would.
        """
        dictionary = cls()
        strings = unpack_strings(blob, offsets)
        if len(strings) > MAX_ID:
            raise StoreError("dictionary exceeds int32 id space")
        dictionary._strings = strings
        dictionary._id_of = {string: i for i, string in enumerate(strings)}
        if len(dictionary._id_of) != len(strings):
            raise StoreError("corrupt dictionary snapshot: duplicate strings")
        return dictionary

    def _strings_view(self) -> list[str]:
        """Internal zero-copy view for hot paths; callers must not mutate."""
        return self._strings

    def __contains__(self, string: str) -> bool:
        return string in self._id_of

    def __len__(self) -> int:
        return len(self._strings)
