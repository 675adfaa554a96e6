#!/usr/bin/env python
"""Drive the online ODM service end to end, in one process.

Starts `ODMService`, serves it over a loopback TCP socket
(`serve_tcp`), then runs the seeded load generator against it through
`ServiceClient` — Poisson request bursts, a mid-run chaos window that
degrades one server (its circuit breaker opens, traffic re-routes,
the breaker re-closes after recovery), and a per-response audit
against the serial reference solver.

Run:  python examples/serve_and_loadgen.py
"""

import asyncio
import socket

from repro.service import (
    BatchPolicy,
    LoadGenConfig,
    ODMService,
    ServiceClient,
    run_loadgen,
    serve_tcp,
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def main() -> int:
    port = free_port()
    service = ODMService(
        batch_policy=BatchPolicy(
            max_batch=16, max_wait=0.002, queue_capacity=256
        ),
    )
    serve_task = asyncio.create_task(
        serve_tcp(service, port=port, duration=60.0)
    )
    await asyncio.sleep(0.2)  # let the listener come up

    config = LoadGenConfig(seed=7, bursts=24)
    async with ServiceClient(port=port) as client:
        report = await run_loadgen(
            client.submit,
            config,
            record_outcome=client.record_outcome,
            close_window=client.close_window,
            stats=client.stats,
        )
        await client.shutdown()
    await serve_task

    latency = report.to_dict()["latency"]
    print(f"requests      : {report.requests}")
    print(
        f"admitted      : {report.admitted}"
        f"  rejected: {report.rejected}  shed: {report.shed}"
    )
    print(f"rungs seen    : {sorted(report.rungs_seen)}")
    print(
        f"breaker       : opened={report.breaker_opened}"
        f" reclosed={report.breaker_reclosed}"
    )
    print(
        f"service p99   : {latency['service_p99'] * 1e3:.2f} ms"
        " (enqueue to resolve, inside the service)"
    )
    print(f"anomalies     : {len(report.anomalies)}")
    if not report.ok:
        for anomaly in report.anomalies:
            print(f"  !! {anomaly}")
        return 1
    print("verification  : every admission Theorem-3-certified, "
          "exact answers match the serial reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(asyncio.run(main()))
