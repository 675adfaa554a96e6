"""Content-keyed memo of parsed admission requests (the wire path's).

Online clients re-submit the same believed task set over and over, and
each repeat used to pay :meth:`AdmissionRequest.from_dict` and
:func:`~repro.service.request.build_request_instance` again before its
solver-cache hit.  :class:`RequestMemo` lets :func:`serve_tcp`'s
``admit`` / ``admit_batch`` handlers parse each repeated content once:

* **Key.**  A record's content without its ``request_id``: the
  ``marshal`` (format version 2) bytes of ``(tasks, server_estimates)``
  exactly as the JSON decoder produced them.  Version 2 writes every
  float as its 8 IEEE bytes and tags every value with its type, and
  writes no object back-references, so equal keys mean equal parses:
  ``1``, ``1.0``, ``true`` and ``"1"`` differ, as do ``0.0`` and
  ``-0.0`` and floats one ulp apart.  The key is one ``bytes`` object
  (not tracked by the garbage collector), built from one tuple.
* **Residency.**  The memo remembers the last ``capacity`` distinct
  contents.  A first sighting is kept as a bare hash; parsed objects
  are kept only for content seen at least twice within that window,
  so never-repeating traffic leaves nothing parsed behind.
* **Exactness.**  A hit compares the full key, not only its hash.
  Misses take :meth:`AdmissionRequest.from_dict` unchanged, so
  validation and wire errors are exactly the parser's; a record the
  parser rejects is never stored.

A hit shares the validated :class:`~repro.core.task.TaskSet` and
estimates, and the entry carries the MCKP instance last built for one
allowed-server tuple.  Solving is untouched: every admission still
probes the solver cache and re-verifies Theorem 3 on its own.
"""

from __future__ import annotations

import marshal
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

from .request import AdmissionRequest

__all__ = ["MemoEntry", "RequestMemo", "content_key"]

#: ``marshal`` format with binary floats and no back-references
_KEY_FORMAT = 2


def content_key(record: object) -> Optional[bytes]:
    """The memo key of one wire request record, or ``None`` if it has
    no key (not an object, or not marshallable)."""
    if not isinstance(record, dict):
        return None
    try:
        return marshal.dumps(
            (record.get("tasks"), record.get("server_estimates")),
            _KEY_FORMAT,
        )
    except ValueError:
        return None


class MemoEntry:
    """One resident content: its key, the parsed task set and
    estimates, and the instance built for ``allowed`` (``None`` until
    the batch loop builds one)."""

    __slots__ = ("key", "tasks", "estimates", "allowed", "instance")

    def __init__(self, key: bytes, request: AdmissionRequest) -> None:
        self.key = key
        self.tasks = request.tasks
        self.estimates = request.server_estimates
        self.allowed: Optional[Tuple[str, ...]] = None
        self.instance = None


class RequestMemo:
    """Bounded memo from request content to its parsed objects.

    ``capacity`` distinct contents are remembered (LRU); ``lookups``,
    ``hits`` and ``resident`` (contents holding parsed objects) are
    mirrored into a metrics registry by :meth:`bind_metrics`.
    """

    __slots__ = (
        "capacity", "lookups", "hits", "resident", "_seen",
        "_m_lookups", "_m_hits", "_m_resident",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.lookups = 0
        self.hits = 0
        self.resident = 0
        # hash(key) -> MemoEntry, or None for a first sighting
        self._seen: "OrderedDict[int, Optional[MemoEntry]]" = OrderedDict()
        self._m_lookups = self._m_hits = self._m_resident = None

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "resident": self.resident,
        }

    def bind_metrics(self, registry) -> None:
        """Mirror the counters into ``registry`` as ``request_memo.*``
        from now on (back-filled, like :meth:`SolverCache.bind_metrics`)."""
        self._m_lookups = registry.counter("request_memo.lookups")
        self._m_hits = registry.counter("request_memo.hits")
        self._m_resident = registry.gauge("request_memo.resident")
        self._m_lookups.inc(self.lookups)
        self._m_hits.inc(self.hits)
        self._m_resident.set(self.resident)

    def parse(
        self, record: Mapping[str, object]
    ) -> Tuple[AdmissionRequest, Optional[MemoEntry]]:
        """``AdmissionRequest.from_dict(record)`` through the memo.

        Returns the request and the resident entry it came from or now
        lives in (``None`` while its content is not resident).  Raises
        exactly what :meth:`AdmissionRequest.from_dict` raises.
        """
        self.lookups += 1
        if self._m_lookups is not None:
            self._m_lookups.inc()
        key = content_key(record)
        if key is None:
            return AdmissionRequest.from_dict(record), None
        seen = self._seen
        digest = hash(key)
        if digest not in seen:
            seen[digest] = None
            if len(seen) > self.capacity:
                if seen.popitem(last=False)[1] is not None:
                    self._set_resident(self.resident - 1)
            return AdmissionRequest.from_dict(record), None
        seen.move_to_end(digest)
        entry = seen[digest]
        if entry is not None and entry.key == key:
            # the same validation from_dict runs on the request id
            request = AdmissionRequest(
                request_id=str(record["request_id"]),
                tasks=entry.tasks,
                server_estimates=entry.estimates,
            )
            self.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return request, entry
        request = AdmissionRequest.from_dict(record)
        if entry is None:
            entry = seen[digest] = MemoEntry(key, request)
            self._set_resident(self.resident + 1)
            return request, entry
        return request, None  # a hash collision keeps the resident entry

    def _set_resident(self, value: int) -> None:
        self.resident = value
        if self._m_resident is not None:
            self._m_resident.set(value)
