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
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Optional, Tuple

__all__ = [
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
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(MAGIC, WIRE_VERSION, 0, len(payload)) + payload


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
