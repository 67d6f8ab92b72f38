"""Disk persistence for vector indexes: ``np.savez`` + a JSON payload codec.

A snapshot is a single ``.npz`` file holding the numeric state (embedding
matrix, and for the partitioned backend its centroids and partition
assignment) alongside JSON-encoded keys, texts, payloads and metadata.  No
pickling is involved: payloads go through a :class:`PayloadCodec`, so a
snapshot written on one machine loads anywhere and survives refactors of the
payload class.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.index.base import EXACT, PARTITIONED, VectorIndex
from repro.index.exact import ExactIndex
from repro.index.partitioned import PartitionedIndex

SNAPSHOT_VERSION = 1


class SnapshotError(RuntimeError):
    """A snapshot file is missing, unreadable or structurally invalid."""


class PayloadCodec(Protocol):
    """Translates payload objects to and from JSON-serialisable data."""

    def encode(self, payload: Any) -> Any:
        ...  # pragma: no cover - protocol stub

    def decode(self, data: Any) -> Any:
        ...  # pragma: no cover - protocol stub


class JsonPayloadCodec:
    """Identity codec for payloads that are already JSON-serialisable."""

    def encode(self, payload: Any) -> Any:
        return payload

    def decode(self, data: Any) -> Any:
        return data


def snapshot_path(path: str) -> str:
    """``np.savez`` appends ``.npz``; normalise so save and load agree."""
    return path if path.endswith(".npz") else f"{path}.npz"


def save_index(
    index: VectorIndex,
    path: str,
    texts: Sequence[str] = (),
    codec: Optional[PayloadCodec] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Persist ``index`` (plus the stored texts and caller metadata) to ``path``."""
    codec = codec or JsonPayloadCodec()
    state = index.state()
    header: Dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "backend": state["backend"],
        "meta": meta or {},
    }
    arrays: Dict[str, np.ndarray] = {
        "matrix": np.asarray(state["matrix"]),
        "keys_json": np.array(json.dumps(state["keys"])),
        "texts_json": np.array(json.dumps(list(texts))),
        "payloads_json": np.array(
            json.dumps([codec.encode(payload) for payload in state["payloads"]])
        ),
    }
    if state["backend"] == PARTITIONED:
        for knob in ("num_partitions", "nprobe", "seed", "kmeans_iterations",
                     "retrain_growth", "trained_rows"):
            header[knob] = state[knob]
        if "centroids" in state:
            arrays["centroids"] = np.asarray(state["centroids"])
            arrays["assignment"] = np.asarray(state["assignment"])
    arrays["header_json"] = np.array(json.dumps(header))
    target = snapshot_path(path)
    directory = os.path.dirname(target)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(target, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return target


def load_index(
    path: str,
    codec: Optional[PayloadCodec] = None,
) -> Tuple[VectorIndex, List[str], Dict[str, Any]]:
    """Load a snapshot, returning ``(index, texts, caller metadata)``."""
    codec = codec or JsonPayloadCodec()
    target = snapshot_path(path)
    if not os.path.exists(target):
        raise SnapshotError(f"No index snapshot at {target}")
    try:
        with np.load(target, allow_pickle=False) as archive:
            header = json.loads(str(archive["header_json"]))
            if header.get("version") != SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"Unsupported snapshot version {header.get('version')!r} in {target}"
                )
            state: Dict[str, Any] = {
                "backend": header["backend"],
                "matrix": archive["matrix"],
                "keys": json.loads(str(archive["keys_json"])),
                "payloads": [
                    codec.decode(data) for data in json.loads(str(archive["payloads_json"]))
                ],
            }
            texts = json.loads(str(archive["texts_json"]))
            if header["backend"] == PARTITIONED:
                for knob, default in (
                    ("num_partitions", 0),
                    ("nprobe", 8),
                    ("seed", 13),
                    ("kmeans_iterations", 8),
                    ("retrain_growth", 0.5),
                    ("trained_rows", 0),
                ):
                    state[knob] = header.get(knob, default)
                if "centroids" in archive:
                    state["centroids"] = archive["centroids"]
                    state["assignment"] = archive["assignment"]
    except (KeyError, ValueError, OSError, zipfile.BadZipFile, json.JSONDecodeError) as error:
        # OSError/BadZipFile: truncated or partially written archives must
        # surface as SnapshotError so best-effort loaders rebuild instead of crashing
        raise SnapshotError(f"Corrupt index snapshot at {target}: {error}") from error
    backend = header["backend"]
    if backend == EXACT:
        index: VectorIndex = ExactIndex.from_state(state)
    elif backend == PARTITIONED:
        index = PartitionedIndex.from_state(state)
    else:
        raise SnapshotError(f"Unknown index backend {backend!r} in {target}")
    return index, texts, header.get("meta", {})
