"""Versioned serialization of solver-cache contents for replication.

The fleet cache tier (:mod:`repro.fleet.cachetier`) ships
:class:`~repro.knapsack.cache.SolverCache` entries and resumable
:class:`~repro.knapsack.delta.DeltaState` objects between replicas, so
both need a wire form that is

* **versioned** — every record carries ``CACHE_WIRE_VERSION`` and a
  ``kind`` tag; a receiver speaking a different version rejects the
  record instead of mis-reconstructing it;
* **exact** — cache keys are structural fingerprints with deliberate
  exact-float equality, so the codec must round-trip every float
  bit-for-bit.  JSON text does (Python serializes floats via
  ``repr``); numpy arrays travel as raw little-endian bytes (base64 in
  the JSON text) with dtype and shape, so a decoded
  :class:`DeltaState` resumes the *identical* ``_run_dp`` instruction
  stream the originating replica would have executed;
* **bounded** — :func:`encoded_size` measures a record's serialized
  footprint so the sync protocol can enforce a per-record size cap.

Replication is an optimization, never an authority: a decoded entry is
only ever *looked up* under the same canonical key the local solver
would compute, so a corrupt or foreign record can waste a slot but can
never change an admission.  Decode failures raise
:class:`CacheCodecError` (a ``ValueError``) and are counted, not
propagated, by the sync layer.
"""

from __future__ import annotations

import base64
import hashlib
import json
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .delta import DeltaState

__all__ = [
    "CACHE_WIRE_VERSION",
    "CacheCodecError",
    "encode_key",
    "decode_key",
    "encode_entry",
    "decode_entry",
    "encode_state",
    "decode_state",
    "encoded_size",
    "key_fingerprint",
]

#: Bump on any incompatible change to the record layout below.
CACHE_WIRE_VERSION = 1


class CacheCodecError(ValueError):
    """A cache record failed to encode or decode."""


#: ``bool`` before ``int``: ``isinstance(True, int)`` is true and we
#: want booleans preserved as booleans.
_SCALARS = (bool, int, float, str)


def _scalar(value, what: str):
    if value is None or isinstance(value, _SCALARS):
        return value
    raise CacheCodecError(
        f"{what} must be a JSON scalar, got {type(value).__name__}"
    )


def _encode_items(items) -> list:
    return [[float(v), float(w)] for v, w in items]


def _decode_items(record) -> Tuple[Tuple[float, float], ...]:
    return tuple((float(v), float(w)) for v, w in record)


def encode_key(key: Tuple) -> Dict[str, object]:
    """One cache key → a codec-neutral record.

    Keys are ``(solver_name, sorted kwargs items, (capacity, classes))``
    — see :meth:`SolverCache.key_for`.  Pairs are encoded as lists (not
    dicts): JSON silently stringifies non-string object keys, which
    would corrupt non-string class ids on the round trip.
    """
    try:
        solver_name, kwargs_items, (capacity, classes) = key
        return {
            "solver": str(solver_name),
            "kwargs": [
                [str(k), _scalar(v, "kwarg value")] for k, v in kwargs_items
            ],
            "capacity": float(capacity),
            "classes": [
                [_scalar(cid, "class id"), _encode_items(items)]
                for cid, items in classes
            ],
        }
    except CacheCodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CacheCodecError(f"malformed cache key: {exc}") from exc


def decode_key(record) -> Tuple:
    try:
        return (
            str(record["solver"]),
            tuple(
                (str(k), _scalar(v, "kwarg value"))
                for k, v in record["kwargs"]
            ),
            (
                float(record["capacity"]),
                tuple(
                    (_scalar(cid, "class id"), _decode_items(items))
                    for cid, items in record["classes"]
                ),
            ),
        )
    except CacheCodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheCodecError(f"malformed key record: {exc}") from exc


@lru_cache(maxsize=8192)
def key_fingerprint(key: Tuple) -> str:
    """Short stable digest of one cache key (sync digests / ``have`` lists).

    Computed over the canonical *encoded* form, so both sides of a sync
    derive identical fingerprints from equal keys regardless of which
    replica solved the instance first.  Collisions or false negatives
    only cost a redundant (or skipped) transfer, never correctness —
    absorption always re-keys by the full structural key.

    Memoized: gossip recomputes digests every round over mostly
    unchanged hot entries, and keys are immutable canonical tuples, so
    the fingerprint is a pure function safe to cache (without this the
    per-round encode+hash work saturates the event loop on fleets with
    warm caches).
    """
    blob = json.dumps(
        encode_key(key), sort_keys=True, separators=(",", ":")
    )
    return hashlib.blake2b(
        blob.encode("utf-8"), digest_size=16
    ).hexdigest()


def _check_header(record, kind: str) -> None:
    if not isinstance(record, dict):
        raise CacheCodecError("cache record must be a mapping")
    version = record.get("v")
    if version != CACHE_WIRE_VERSION:
        raise CacheCodecError(
            f"unsupported cache wire version {version!r} "
            f"(this build speaks {CACHE_WIRE_VERSION})"
        )
    if record.get("kind") != kind:
        raise CacheCodecError(
            f"expected a {kind!r} record, got {record.get('kind')!r}"
        )


# ----------------------------------------------------------------------
# cache entries (key -> choices)
# ----------------------------------------------------------------------
def encode_entry(
    key: Tuple, choices: Optional[Dict[str, int]]
) -> Dict[str, object]:
    """One solved cache entry → record (``choices=None`` = infeasible)."""
    return {
        "v": CACHE_WIRE_VERSION,
        "kind": "entry",
        "key": encode_key(key),
        "choices": (
            None
            if choices is None
            else [
                [_scalar(cid, "choice class id"), int(index)]
                for cid, index in choices.items()
            ]
        ),
    }


def decode_entry(record) -> Tuple[Tuple, Optional[Dict[str, int]]]:
    _check_header(record, "entry")
    key = decode_key(record.get("key"))
    raw = record.get("choices")
    if raw is None:
        return key, None
    try:
        choices = {
            _scalar(cid, "choice class id"): int(index)
            for cid, index in raw
        }
    except CacheCodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CacheCodecError(f"malformed choices: {exc}") from exc
    return key, choices


# ----------------------------------------------------------------------
# numpy arrays (DeltaState payloads)
# ----------------------------------------------------------------------
def _encode_array(array: np.ndarray) -> Dict[str, object]:
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(record) -> np.ndarray:
    try:
        dtype = np.dtype(str(record["dtype"]))
        shape = tuple(int(n) for n in record["shape"])
        raw = base64.b64decode(str(record["data"]), validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheCodecError(f"malformed array record: {exc}") from exc
    if any(n < 0 for n in shape):
        raise CacheCodecError("array shape must be non-negative")
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if dtype.itemsize == 0 or len(raw) != count * dtype.itemsize:
        raise CacheCodecError(
            f"array payload of {len(raw)} bytes does not match "
            f"dtype {dtype.str} shape {shape}"
        )
    # .copy(): frombuffer views are read-only; resumed states must be
    # indistinguishable from locally built ones.
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _decode_pair(record) -> Tuple[np.ndarray, np.ndarray]:
    try:
        first, second = record
    except (TypeError, ValueError) as exc:
        raise CacheCodecError(
            f"layer record must hold two arrays: {exc}"
        ) from exc
    return _decode_array(first), _decode_array(second)


# ----------------------------------------------------------------------
# delta states (resumable DP layers)
# ----------------------------------------------------------------------
def encode_state(key: Tuple, state: DeltaState) -> Dict[str, object]:
    """One resumable :class:`DeltaState` (with its cache key) → record."""
    return {
        "v": CACHE_WIRE_VERSION,
        "kind": "state",
        "key": encode_key(key),
        "capacity": float(state.capacity),
        "resolution": int(state.resolution),
        "class_keys": [_encode_items(ck) for ck in state.class_keys],
        "prepared": [
            None if prep is None else [_encode_array(a) for a in prep]
            for prep in state.prepared
        ],
        "history": [
            [_encode_array(a) for a in layer] for layer in state.history
        ],
        "frontiers": [
            [_encode_array(a) for a in layer]
            for layer in state.frontiers
        ],
    }


def decode_state(record) -> Tuple[Tuple, DeltaState]:
    _check_header(record, "state")
    key = decode_key(record.get("key"))
    try:
        class_keys = tuple(
            _decode_items(ck) for ck in record["class_keys"]
        )
        prepared = [
            None
            if prep is None
            else tuple(_decode_array(a) for a in prep)
            for prep in record["prepared"]
        ]
        history = [_decode_pair(layer) for layer in record["history"]]
        frontiers = [
            _decode_pair(layer) for layer in record["frontiers"]
        ]
        state = DeltaState(
            capacity=float(record["capacity"]),
            resolution=int(record["resolution"]),
            class_keys=class_keys,
            prepared=prepared,
            history=history,
            frontiers=frontiers,
        )
    except CacheCodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheCodecError(f"malformed state record: {exc}") from exc
    if len(state.frontiers) != len(state.history):
        raise CacheCodecError(
            "state frontiers and history must cover the same layers"
        )
    if len(state.frontiers) > len(state.class_keys):
        raise CacheCodecError(
            "state cannot hold more folded layers than classes"
        )
    return key, state


def encoded_size(record: Dict[str, object]) -> int:
    """Serialized footprint (bytes) used for size-cap enforcement.

    Measured on the compact JSON text the wire carries, so a cap
    checked here holds on the wire.
    """
    return len(
        json.dumps(record, separators=(",", ":")).encode("utf-8")
    )
