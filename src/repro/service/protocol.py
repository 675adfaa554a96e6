"""Length-prefixed binary wire framing for the ODM service (wire v2).

Every message between :func:`~repro.service.server.serve_tcp` and
:class:`~repro.service.server.ServiceClient`, each way, is one frame.

Frame layout (struct-packed, big-endian)::

    0      1      2        3        4               8
    +------+------+--------+--------+---------------+------------ - -
    | 'O'  | 'D'  | version| flags  | payload length| payload ...
    +------+------+--------+--------+---------------+------------ - -
      magic (2B)     u8       u8         u32           length bytes

* ``magic`` is the ASCII pair ``OD``.  Anything else — a newline-JSON
  line included — is a bad header: framing is lost, so the server
  answers with one error frame and closes the connection.
* ``version`` is :data:`WIRE_VERSION`; the version byte of every frame
  is validated, so a future v3 client fails loudly instead of being
  mis-parsed.  (Version 1 was the retired newline-JSON framing.)
* ``flags`` bit 0 (:data:`FLAG_MSGPACK`) is reserved for a msgpack
  payload codec this build does not speak: payloads are compact JSON
  (no whitespace, UTF-8), and a received frame with the bit set
  produces a structured error — never a crash.
* ``length`` is the payload byte count.  Receivers enforce their own
  maximum and can skip an oversized frame *exactly* (the length is
  known), keeping the connection usable.

The payload of every frame is one JSON-able ``{"op": ...}`` record;
the golden tests in ``tests/service/test_protocol.py`` pin the bytes.
:class:`AdmitEncoder` builds the client's ``admit`` and ``admit_batch``
frames from per-task JSON fragments, so a task that recurs across
admissions is encoded once; its frames equal :func:`encode_frame`'s.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from ..core.task import Task
from .request import AdmissionRequest, task_to_dict

__all__ = [
    "AdmitEncoder",
    "FrameError",
    "HEADER",
    "FLAG_MSGPACK",
    "MAGIC",
    "WIRE_VERSION",
    "decode_frame",
    "decode_header",
    "decode_payload",
    "encode_frame",
]

MAGIC = b"OD"
WIRE_VERSION = 2
FLAG_MSGPACK = 0x01

#: magic(2s) + version(B) + flags(B) + payload length(I), big-endian.
HEADER = struct.Struct(">2sBBI")

#: The payload codec: compact JSON, ASCII-escaped (``json.dumps`` with
#: compact separators, without building an encoder per call).
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


class FrameError(ValueError):
    """A frame violated the wire format (bad magic/version/codec)."""


def decode_payload(flags: int, payload: bytes) -> Dict[str, object]:
    """Deserialize one frame payload according to its ``flags``."""
    if flags & FLAG_MSGPACK:
        raise FrameError(
            "peer sent a msgpack payload; this build speaks JSON only"
        )
    try:
        record = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: json.loads decodes bytes itself, so
        # non-UTF-8 payloads fail before JSON parsing even starts
        raise FrameError(f"bad JSON payload: {exc}") from exc
    if not isinstance(record, dict):
        raise FrameError("frame payload must encode an object")
    return record


def encode_frame(record: Dict[str, object]) -> bytes:
    """One complete v2 frame for ``record`` (compact-JSON payload)."""
    return _frame(_compact_json(record))


def _frame(payload: str) -> bytes:
    data = payload.encode("utf-8")
    return HEADER.pack(MAGIC, WIRE_VERSION, 0, len(data)) + data


class AdmitEncoder:
    """``admit`` / ``admit_batch`` frames, each distinct task encoded once.

    ``admit(request)`` equals ``encode_frame({"op": "admit", "request":
    request.to_dict()})`` byte for byte, and ``admit_batch`` likewise.
    The compact JSON of every task is kept in a bounded LRU keyed by
    the task's identity.  Tasks are frozen (their benefit functions
    hold tuples of frozen points), so a fragment stays valid while its
    task lives, and each entry holds its task so the ``id`` cannot be
    reused while cached.  A :class:`~repro.core.task.TaskSet` is
    mutable, so nothing is keyed on the set: the task list is re-read
    on every call.
    """

    #: tasks whose fragments stay resident, least recently used out
    capacity = 1024

    def __init__(self) -> None:
        self._fragments: "OrderedDict[int, Tuple[Task, str]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._fragments)

    def admit(self, request: AdmissionRequest) -> bytes:
        return _frame(
            '{"op":"admit","request":' + self._request(request) + "}"
        )

    def admit_batch(self, requests: Sequence[AdmissionRequest]) -> bytes:
        return _frame(
            '{"op":"admit_batch","requests":['
            + ",".join(map(self._request, requests))
            + "]}"
        )

    def _request(self, request: AdmissionRequest) -> str:
        # AdmissionRequest.to_dict's keys, in its order
        return (
            '{"request_id":'
            + _compact_json(request.request_id)
            + ',"tasks":['
            + ",".join(map(self._task, request.tasks))
            + '],"server_estimates":'
            + _compact_json(dict(request.server_estimates))
            + "}"
        )

    def _task(self, task: Task) -> str:
        fragments = self._fragments
        held = fragments.get(id(task))
        if held is not None:
            fragments.move_to_end(id(task))
            return held[1]
        fragment = _compact_json(task_to_dict(task))
        fragments[id(task)] = (task, fragment)
        if len(fragments) > self.capacity:
            fragments.popitem(last=False)
        return fragment


def decode_header(header: bytes) -> Tuple[int, int, int]:
    """Parse and validate a packed header → ``(version, flags, length)``."""
    if len(header) != HEADER.size:
        raise FrameError(
            f"short header: {len(header)} bytes, need {HEADER.size}"
        )
    magic, version, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise FrameError(
            f"unsupported wire version {version} "
            f"(this build speaks {WIRE_VERSION})"
        )
    return version, flags, length


def decode_frame(
    buffer: bytes,
) -> Tuple[Optional[Dict[str, object]], int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(record, bytes_consumed)``; ``(None, 0)`` when the buffer
    holds only an incomplete frame.  Malformed frames raise
    :class:`FrameError`.  This is the synchronous mirror of the
    server's streaming reader, used by the golden/adversarial tests.
    """
    if len(buffer) < HEADER.size:
        return None, 0
    _, flags, length = decode_header(buffer[: HEADER.size])
    end = HEADER.size + length
    if len(buffer) < end:
        return None, 0
    return decode_payload(flags, buffer[HEADER.size:end]), end
