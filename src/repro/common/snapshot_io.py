"""Zero-copy snapshot persistence: versioned flat-array files + manifest.

The serving story of the paper (§4) assumes immutable graph snapshots that
workers can load near-instantly and share read-only.  Our columnar layers
(dictionary, CSR adjacency, annotation context matrix) are each a handful
of flat numpy arrays, so persistence is deliberately dumb: one ``.npy``
file per array next to a ``manifest.json`` that records

* ``format_version`` — bumped when the file layout changes;
* ``kind`` — which layer this directory holds (``"adjacency"``, ...);
* ``store_version`` — the :attr:`TripleStore.version` the arrays were
  built at, the same invalidation token ``AliasTable.refresh`` and
  ``AdjacencyIndex`` use;
* per-array ``shape``/``dtype``/``sha256`` so corruption and truncation
  are detected at load instead of surfacing as garbage query results;
* free-form ``extra`` metadata for the owning layer.

Loading goes through ``np.load(..., mmap_mode="r")`` by default: cold
start maps pages instead of rebuilding Python structures, and many worker
processes share one page-cache copy.  Mapped arrays are read-only — every
consumer treats snapshots as immutable, and growable wrappers copy on
first write.

String columns (the dictionary, the context row map) are packed as a
UTF-8 byte blob plus an int64 offsets array (:func:`pack_strings`).
Small non-array sidecars (the alias-table state) are marshalled blobs
written through :func:`write_marshal`/:func:`read_marshal`, checksummed
the same way.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import sys
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.common.errors import StoreError

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

# marshal data is only guaranteed stable for one (python, marshal) pair;
# a mismatch at load is a *stale* condition (rebuild), never an error.
_MARSHAL_COMPAT = [sys.version_info[0], sys.version_info[1], marshal.version]


class SnapshotStaleError(StoreError):
    """A snapshot exists but was built for a different store version.

    Callers treat this as "rebuild from the live store", not as a failure —
    the same contract as a stale :class:`~repro.kg.adjacency.AdjacencyIndex`.
    """


def file_sha256(path: Path) -> str:
    """Hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def pack_strings(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a string list into (uint8 blob, int64 offsets) arrays.

    ``offsets`` has ``len(strings) + 1`` entries; string ``i`` is
    ``blob[offsets[i]:offsets[i + 1]]`` decoded as UTF-8.
    """
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of :func:`pack_strings`."""
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[start:stop].decode("utf-8")
        for start, stop in zip(bounds, bounds[1:])
    ]


def write_arrays(
    directory: str | Path,
    arrays: dict[str, np.ndarray],
    *,
    kind: str,
    store_version: int,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Write ``arrays`` as ``<name>.npy`` files + a manifest; returns it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict[str, Any]] = {}
    for name, array in arrays.items():
        path = directory / f"{name}.npy"
        np.save(path, np.ascontiguousarray(array), allow_pickle=False)
        files[name] = {
            "file": path.name,
            "shape": list(array.shape),
            "dtype": str(array.dtype),
            "sha256": file_sha256(path),
        }
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "store_version": store_version,
        "arrays": files,
        "extra": extra or {},
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return manifest


def read_manifest(directory: str | Path, *, kind: str) -> dict[str, Any]:
    """Read and validate a layer manifest (format + kind)."""
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise StoreError(f"not a snapshot layer: {directory} (missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt snapshot manifest {path}: {exc}") from None
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported snapshot format {manifest.get('format_version')!r} "
            f"in {directory} (supported: {FORMAT_VERSION})"
        )
    if manifest.get("kind") != kind:
        raise StoreError(
            f"snapshot kind mismatch in {directory}: "
            f"expected {kind!r}, found {manifest.get('kind')!r}"
        )
    return manifest


def load_arrays(
    directory: str | Path,
    *,
    kind: str,
    expected_store_version: int | None = None,
    mmap: bool = True,
    verify: bool = True,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Load a layer written by :func:`write_arrays`.

    Returns ``(manifest, arrays)``.  Raises :class:`StoreError` for
    missing/corrupt/truncated files or checksum mismatches, and
    :class:`SnapshotStaleError` when ``expected_store_version`` is given
    and the manifest was built for a different store version (callers
    fall back to a rebuild in that case).
    """
    directory = Path(directory)
    manifest = read_manifest(directory, kind=kind)
    if (
        expected_store_version is not None
        and manifest.get("store_version") != expected_store_version
    ):
        raise SnapshotStaleError(
            f"snapshot {directory} built at store version "
            f"{manifest.get('store_version')!r}, expected {expected_store_version}"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, spec in manifest["arrays"].items():
        path = directory / spec["file"]
        if not path.exists():
            raise StoreError(f"snapshot array missing: {path}")
        if verify and file_sha256(path) != spec["sha256"]:
            raise StoreError(f"snapshot checksum mismatch: {path}")
        try:
            array = np.load(
                path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (ValueError, OSError, EOFError) as exc:
            raise StoreError(f"corrupt snapshot array {path}: {exc}") from None
        if list(array.shape) != spec["shape"] or str(array.dtype) != spec["dtype"]:
            raise StoreError(
                f"snapshot array {path} does not match its manifest: "
                f"shape {list(array.shape)} dtype {array.dtype}, "
                f"expected {spec['shape']} {spec['dtype']}"
            )
        arrays[name] = array
    return manifest, arrays


class LayerPayload(NamedTuple):
    """One generation's diff of one bundle layer, as a delta persists it
    (one :func:`write_arrays` directory).  The layer owner decides what
    ``arrays``/``extra`` mean."""

    store_version: int
    arrays: dict[str, np.ndarray]
    extra: dict[str, Any]


def load_payload(
    directory: str | Path,
    *,
    kind: str,
    expected_store_version: int | None = None,
    mmap: bool = True,
    verify: bool = True,
) -> LayerPayload:
    """A :class:`LayerPayload` directory, with :func:`load_arrays`' errors."""
    manifest, arrays = load_arrays(
        directory,
        kind=kind,
        expected_store_version=expected_store_version,
        mmap=mmap,
        verify=verify,
    )
    return LayerPayload(int(manifest["store_version"]), arrays, manifest["extra"])


def write_marshal(path: str | Path, payload: Any) -> dict[str, Any]:
    """Write a marshalled sidecar blob; returns its manifest entry."""
    path = Path(path)
    path.write_bytes(marshal.dumps(payload))
    return {
        "file": path.name,
        "sha256": file_sha256(path),
        "marshal_compat": _MARSHAL_COMPAT,
    }


def read_marshal(path: str | Path, spec: dict[str, Any]) -> Any:
    """Read a marshalled sidecar written by :func:`write_marshal`.

    Raises :class:`SnapshotStaleError` when the blob was written by an
    incompatible python/marshal version (rebuild instead of guessing),
    and :class:`StoreError` for corruption.
    """
    path = Path(path)
    if not spec or "sha256" not in spec:
        # A manifest without a sidecar spec is corrupt, not stale — the
        # compat check below must not mask it as a silent rebuild.
        raise StoreError(f"snapshot sidecar spec missing for {path}")
    if spec.get("marshal_compat") != _MARSHAL_COMPAT:
        raise SnapshotStaleError(
            f"marshal sidecar {path} written by incompatible python "
            f"{spec.get('marshal_compat')!r} (running {_MARSHAL_COMPAT})"
        )
    if not path.exists():
        raise StoreError(f"snapshot sidecar missing: {path}")
    if file_sha256(path) != spec.get("sha256"):
        raise StoreError(f"snapshot checksum mismatch: {path}")
    try:
        return marshal.loads(path.read_bytes())
    except (ValueError, EOFError, TypeError) as exc:
        raise StoreError(f"corrupt snapshot sidecar {path}: {exc}") from None
