"""Online ODM service: async batching, cached solves, safe degradation.

The paper's Offloading Decision Manager is a batch algorithm: given a
task set and per-server response-time bounds, solve one MCKP.  This
package turns it into an *online admission service*:

* :mod:`repro.service.request` — the request/response model and the
  per-request multi-server MCKP reduction (estimates as ``R_i`` scale
  factors);
* :mod:`repro.service.batching` — micro-batching + bounded-queue
  backpressure;
* :mod:`repro.service.sharding` — cache-probed, deduplicated,
  delta-warm-started batch solving (bit-identical to serial);
* :mod:`repro.service.degradation` — the exact → heuristic →
  local-only ladder (cheaper under load, never less safe);
* :mod:`repro.service.protocol` — the length-prefixed binary wire
  framing, the service's one wire;
* :mod:`repro.service.memo` — the content-keyed memo through which
  the wire handlers parse repeated admissions once;
* :mod:`repro.service.server` — the :class:`ODMService` orchestrator,
  the TCP front-end behind ``repro serve`` and :class:`ServiceClient`,
  its one client;
* :mod:`repro.service.loadgen` — reproducible bursty traffic with an
  online differential audit, behind ``repro loadgen``.

Every admitted response passes Theorem 3 before its future resolves,
whatever the degradation rung — the service trades *benefit* under
load, never the deadline guarantee.
"""

from .audit import audit_response
from .batching import BatchPolicy, MicroBatcher
from .degradation import DegradationLevel, DegradationPolicy
from .loadgen import (
    LoadGenConfig,
    LoadGenReport,
    OpenLoopConfig,
    OpenLoopReport,
    generate_bursts,
    generate_open_loop,
    run_loadgen,
    run_open_loop,
)
from .protocol import (
    FLAG_MSGPACK,
    HEADER,
    MAGIC,
    WIRE_VERSION,
    FrameError,
    decode_frame,
    encode_frame,
)
from .request import (
    REQUEST_STATUSES,
    AdmissionRequest,
    AdmissionResponse,
    build_request_instance,
    task_from_dict,
    task_to_dict,
)
from .server import (
    ConnectionLost,
    ODMService,
    ServiceClient,
    TcpServerControl,
    serve_tcp,
)
from .sharding import ShardSolver

__all__ = [
    "AdmissionRequest",
    "AdmissionResponse",
    "REQUEST_STATUSES",
    "build_request_instance",
    "task_to_dict",
    "task_from_dict",
    "BatchPolicy",
    "MicroBatcher",
    "DegradationLevel",
    "DegradationPolicy",
    "ShardSolver",
    "ODMService",
    "ConnectionLost",
    "TcpServerControl",
    "serve_tcp",
    "FrameError",
    "FLAG_MSGPACK",
    "HEADER",
    "MAGIC",
    "WIRE_VERSION",
    "decode_frame",
    "encode_frame",
    "LoadGenConfig",
    "LoadGenReport",
    "OpenLoopConfig",
    "OpenLoopReport",
    "ServiceClient",
    "generate_bursts",
    "generate_open_loop",
    "audit_response",
    "run_loadgen",
    "run_open_loop",
]
