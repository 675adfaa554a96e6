"""TCP wire protocol: serve_tcp <-> ServiceClient round-trips over a
real socket, including error replies and clean shutdown — plus the
binary-framing golden corpus and adversarial frame suite.

The golden constants below are COMMITTED BYTES, not recomputed: they
pin the wire format itself.  If a refactor changes them, old clients
break — bump :data:`~repro.service.WIRE_VERSION` instead of editing
the constants.
"""

import asyncio
import dataclasses
import gc
import json
import math
import socket
import weakref

import numpy as np
import pytest

from repro.core.benefit import BenefitFunction, BenefitPoint
from repro.core.task import OffloadableTask, Task, TaskSet
from repro.observability import Observability
from repro.service import (
    FLAG_MSGPACK,
    HEADER,
    MAGIC,
    WIRE_VERSION,
    AdmissionRequest,
    BatchPolicy,
    ConnectionLost,
    FrameError,
    ODMService,
    ServiceClient,
    TcpServerControl,
    decode_frame,
    encode_frame,
    serve_tcp,
)
from repro.service.protocol import (
    AdmitEncoder,
    decode_header,
    decode_payload,
)
from repro.workloads.generator import random_offloading_task_set

#: Committed frames for ``{"op": "stats"}`` and ``{"op": "shutdown"}``.
GOLDEN_V2_STATS = bytes.fromhex(
    "4f4402000000000e7b226f70223a227374617473227d"
)
GOLDEN_V2_SHUTDOWN = bytes.fromhex(
    "4f440200000000117b226f70223a2273687574646f776e227d"
)
#: Committed ``admit`` frame of :func:`golden_admit_request` (a
#: non-ASCII task id, a negative zero, a plain task, two servers).
GOLDEN_V2_ADMIT = bytes.fromhex(
    "4f440200000002567b226f70223a2261646d6974222c2272657175657374223a"
    "7b22726571756573745f6964223a22672d31222c227461736b73223a5b7b2274"
    "61736b5f6964223a225c753033633431222c2277636574223a322e302c227065"
    "72696f64223a31302e302c22646561646c696e65223a382e302c227765696768"
    "74223a312e352c226f66666c6f616461626c65223a747275652c227365747570"
    "5f74696d65223a302e352c22636f6d70656e736174696f6e5f74696d65223a31"
    "2e32352c22706f73745f74696d65223a302e32352c227365727665725f726573"
    "706f6e73655f626f756e64223a6e756c6c2c2262656e65666974223a5b7b2272"
    "6573706f6e73655f74696d65223a302e302c2262656e65666974223a312e302c"
    "2273657475705f74696d65223a6e756c6c2c22636f6d70656e736174696f6e5f"
    "74696d65223a6e756c6c2c226c6162656c223a226c6f63616c222c22656e6572"
    "6779223a6e756c6c7d2c7b22726573706f6e73655f74696d65223a332e302c22"
    "62656e65666974223a342e352c2273657475705f74696d65223a302e37352c22"
    "636f6d70656e736174696f6e5f74696d65223a6e756c6c2c226c6162656c223a"
    "22222c22656e65726779223a2d302e307d5d7d2c7b227461736b5f6964223a22"
    "7432222c2277636574223a312e302c22706572696f64223a32302e302c226465"
    "61646c696e65223a32302e302c22776569676874223a312e302c226f66666c6f"
    "616461626c65223a66616c73657d5d2c227365727665725f657374696d617465"
    "73223a7b2265646765223a312e302c22636c6f7564223a312e32357d7d7d"
)
#: What a newline-JSON client would send: not a frame, so not served.
NEWLINE_JSON_STATS = b'{"op":"stats"}\n'


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_request(request_id="r1", seed=1):
    tasks = random_offloading_task_set(
        np.random.default_rng(seed), num_tasks=3, total_utilization=0.5
    )
    return AdmissionRequest(
        request_id=request_id,
        tasks=tasks,
        server_estimates={"edge": 1.0},
    )


def golden_admit_request():
    return AdmissionRequest(
        request_id="g-1",
        tasks=TaskSet([
            OffloadableTask(
                task_id="\u03c41", wcet=2.0, period=10.0, deadline=8.0,
                weight=1.5, setup_time=0.5, compensation_time=1.25,
                post_time=0.25,
                benefit=BenefitFunction([
                    BenefitPoint(0.0, 1.0, label="local"),
                    BenefitPoint(3.0, 4.5, setup_time=0.75, energy=-0.0),
                ]),
            ),
            Task(task_id="t2", wcet=1.0, period=20.0),
        ]),
        server_estimates={"edge": 1.0, "cloud": 1.25},
    )


def make_service():
    return ODMService(
        batch_policy=BatchPolicy(max_batch=8, max_wait=0.001,
                                 queue_capacity=32),
    )


async def serving(port, service=None, **kwargs):
    """Start serve_tcp in the background; return the serve task."""
    kwargs.setdefault("duration", 30.0)
    task = asyncio.create_task(
        serve_tcp(
            service if service is not None else make_service(),
            port=port,
            ready_message=False,
            **kwargs,
        )
    )
    # wait for the listener to come up
    for _ in range(200):
        try:
            _r, w = await asyncio.open_connection("127.0.0.1", port)
            w.close()
            await w.wait_closed()
            return task
        except OSError:
            await asyncio.sleep(0.01)
    raise RuntimeError("server never came up")


def test_full_client_round_trip():
    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        async with ServiceClient(port=port) as client:
            responses = await asyncio.gather(
                *(
                    client.submit(make_request(f"r{i}", seed=i))
                    for i in range(5)
                )
            )
            await client.record_outcome("edge", True, 1.0)
            await client.record_outcome("edge", False, 2.0)
            breakers = await client.close_window()
            stats = await client.stats()
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return responses, breakers, stats

    responses, breakers, stats = asyncio.run(scenario())
    assert [r.request_id for r in responses] == [
        f"r{i}" for i in range(5)
    ]
    assert all(r.admitted for r in responses)
    assert breakers == {"edge": "closed"}
    assert stats["requests"] == 5
    assert stats["admitted"] == 5
    assert "cache" in stats and "breakers" in stats


async def framed_exchange(port, payloads):
    """Send each raw frame payload in order on one connection and
    collect one reply frame per payload."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    for payload in payloads:
        writer.write(
            HEADER.pack(MAGIC, WIRE_VERSION, 0, len(payload)) + payload
        )
        await writer.drain()
        replies.append(await read_v2_frame(reader))
    writer.close()
    await writer.wait_closed()
    return replies


def test_wire_errors_do_not_kill_the_connection():
    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        request = make_request("alive")
        replies = await framed_exchange(
            port,
            [
                b"{not json",
                b'{"op": "frobnicate"}',
                b'{"op": "admit"}',
                # the connection survives all three and still serves
                json.dumps(
                    {"op": "admit", "request": request.to_dict()}
                ).encode(),
                b'{"op": "shutdown"}',
            ],
        )
        await asyncio.wait_for(serve_task, timeout=10.0)
        return replies

    bad_json, unknown, bad_admit, good, bye = asyncio.run(scenario())
    assert bad_json["op"] == "error"
    assert unknown["op"] == "error"
    assert "frobnicate" in unknown["error"]
    assert bad_admit["op"] == "error"
    assert good["op"] == "response"
    assert good["request_id"] == "alive"
    assert good["status"] == "admitted"
    assert bye["op"] == "bye"


def test_non_object_json_record_is_a_wire_error():
    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        replies = await framed_exchange(
            port, [b"[1, 2, 3]", b'"admit"', b'{"op": "shutdown"}']
        )
        await asyncio.wait_for(serve_task, timeout=10.0)
        return replies

    array, scalar, bye = asyncio.run(scenario())
    assert array["op"] == "error"
    assert "object" in array["error"]
    assert scalar["op"] == "error"
    assert bye["op"] == "bye"


def test_gossip_op_returns_the_replica_beacon():
    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        async with ServiceClient(port=port) as client:
            await client.record_outcome("edge", True, 1.0)
            reply = await client.gossip()
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return reply

    reply = asyncio.run(scenario())
    beacon = reply["beacon"]
    assert reply["cache_digest"]["entries"] == 0
    assert beacon["replica_id"] == "replica-0"
    assert beacon["seq"] >= 1
    assert beacon["breakers"] == {"edge": "closed"}
    assert "queue_depth" in beacon and "queue_capacity" in beacon


def test_abort_fails_in_flight_requests_fast():
    async def scenario():
        port = free_port()
        service = make_service()
        control = TcpServerControl()
        serve_task = await serving(
            port, service=service, control=control
        )
        await control.ready.wait()
        client = await ServiceClient(port=port).connect()
        original = service.shard_solver.solve_batch

        def slow(entries):
            import time

            time.sleep(0.5)
            return original(entries)

        service.shard_solver.solve_batch = slow
        submit = asyncio.create_task(client.submit(make_request("doomed")))
        await asyncio.sleep(0.05)
        control.abort()  # RST every live connection, as a crash would
        try:
            # bounded by the reset, not by any request timeout
            await asyncio.wait_for(submit, timeout=5.0)
        except ConnectionLost:
            lost = True
        else:
            lost = False
        await client.close()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return lost

    assert asyncio.run(scenario())


def test_per_request_timeout_raises_without_killing_the_client():
    async def scenario():
        port = free_port()
        service = make_service()
        serve_task = await serving(port, service=service)
        original = service.shard_solver.solve_batch
        stall = {"seconds": 0.5}

        def slow(entries):
            import time

            time.sleep(stall["seconds"])
            return original(entries)

        service.shard_solver.solve_batch = slow
        async with ServiceClient(port=port) as client:
            timed_out = False
            try:
                await client.submit(make_request("slow"), timeout=0.05)
            except asyncio.TimeoutError:
                timed_out = True
            # the connection itself is still healthy for later calls
            stall["seconds"] = 0.0
            response = await client.submit(
                make_request("quick", seed=2), timeout=5.0
            )
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return timed_out, response

    timed_out, response = asyncio.run(scenario())
    assert timed_out
    assert response.request_id == "quick"
    assert response.admitted


def test_duration_cap_stops_a_quiet_server():
    async def scenario():
        port = free_port()
        service = make_service()
        await asyncio.wait_for(
            serve_tcp(
                service, port=port, duration=0.2, ready_message=False
            ),
            timeout=10.0,
        )
        return service

    service = asyncio.run(scenario())
    assert not service.started  # stopped cleanly on the way out


# ----------------------------------------------------------------------
# wire v2: golden corpus
# ----------------------------------------------------------------------
async def read_v2_frame(reader):
    """One v2 frame off a raw stream → decoded record."""
    header = await reader.readexactly(HEADER.size)
    _, flags, length = decode_header(header)
    return decode_payload(flags, await reader.readexactly(length))


class TestGoldenFrames:
    def test_header_layout_is_pinned(self):
        assert MAGIC == b"OD"
        assert WIRE_VERSION == 2
        assert FLAG_MSGPACK == 0x01
        assert HEADER.size == 8
        assert HEADER.format == ">2sBBI"

    def test_encoder_reproduces_the_committed_bytes(self):
        assert encode_frame({"op": "stats"}) == GOLDEN_V2_STATS
        assert encode_frame({"op": "shutdown"}) == GOLDEN_V2_SHUTDOWN

    def test_golden_frames_decode(self):
        record, consumed = decode_frame(GOLDEN_V2_STATS)
        assert record == {"op": "stats"}
        assert consumed == len(GOLDEN_V2_STATS)
        # trailing bytes of the next frame are not consumed
        record, consumed = decode_frame(
            GOLDEN_V2_STATS + GOLDEN_V2_SHUTDOWN
        )
        assert record == {"op": "stats"}
        assert consumed == len(GOLDEN_V2_STATS)

    def test_incomplete_buffers_decode_to_none(self):
        for cut in range(len(GOLDEN_V2_STATS)):
            assert decode_frame(GOLDEN_V2_STATS[:cut]) == (None, 0)

    def test_bad_magic_raises(self):
        with pytest.raises(FrameError):
            decode_frame(b"OX" + GOLDEN_V2_STATS[2:])

    def test_future_version_raises(self):
        doctored = bytearray(GOLDEN_V2_STATS)
        doctored[2] = WIRE_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(doctored))

    def test_non_object_payload_raises(self):
        with pytest.raises(FrameError, match="object"):
            decode_frame(encode_frame({})[:4] + b"\x00\x00\x00\x03[1]")


# ----------------------------------------------------------------------
# wire v2: adversarial frames
# ----------------------------------------------------------------------
class TestAdversarialFrames:
    def run_raw(self, payload_bytes, *, max_frame=1 << 20, reads=1):
        """Send raw bytes to a live server; collect ``reads`` v2
        replies, then check the server still serves a fresh client."""

        async def scenario():
            port = free_port()
            serve_task = await serving(port, max_frame=max_frame)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 21
            )
            writer.write(payload_bytes)
            await writer.drain()
            # half-close: the server sees EOF after our bytes, so a
            # frame truncated *at EOF* is distinguishable from one the
            # server should keep waiting for
            writer.write_eof()
            replies = [
                await asyncio.wait_for(read_v2_frame(reader), 10.0)
                for _ in range(reads)
            ]
            eof = await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()
            await writer.wait_closed()
            # a brand-new client must still get service
            async with ServiceClient(port=port) as client:
                stats = await client.stats()
                await client.shutdown()
            await asyncio.wait_for(serve_task, timeout=10.0)
            return replies, eof, stats

        return asyncio.run(scenario())

    def test_truncated_header_closes_quietly(self):
        replies, eof, stats = self.run_raw(MAGIC + b"\x02", reads=0)
        assert replies == [] and eof
        assert "requests" in stats

    def test_truncated_payload_closes_quietly(self):
        short = HEADER.pack(MAGIC, WIRE_VERSION, 0, 100) + b"x" * 10
        replies, eof, stats = self.run_raw(short, reads=0)
        assert replies == [] and eof
        assert "requests" in stats

    def test_bad_magic_errors_and_closes(self):
        frame = b"OX" + GOLDEN_V2_STATS[2:]
        replies, eof, _ = self.run_raw(frame, reads=1)
        assert replies[0]["op"] == "error"
        assert "magic" in replies[0]["error"]
        assert eof  # binary garbage cannot be resynced: close

    def test_unsupported_version_errors_and_closes(self):
        frame = HEADER.pack(MAGIC, 9, 0, 2) + b"{}"
        replies, eof, _ = self.run_raw(frame, reads=1)
        assert replies[0]["op"] == "error"
        assert "version 9" in replies[0]["error"]
        assert eof

    def test_oversized_frame_is_skipped_exactly(self):
        """The declared length lets the server hop over the junk and
        land exactly on the next frame — connection stays usable."""
        junk = HEADER.pack(MAGIC, WIRE_VERSION, 0, 65536) + b"j" * 65536
        replies, eof, _ = self.run_raw(
            junk + GOLDEN_V2_STATS, max_frame=8192, reads=2
        )
        assert replies[0]["op"] == "error"
        assert "maximum length" in replies[0]["error"]
        assert replies[1]["op"] == "stats"

    def test_garbage_payload_in_a_valid_frame_survives(self):
        garbage = HEADER.pack(MAGIC, WIRE_VERSION, 0, 9) + b"\xffnot-json"
        replies, _, _ = self.run_raw(garbage + GOLDEN_V2_STATS, reads=2)
        assert replies[0]["op"] == "error"
        assert replies[1]["op"] == "stats"

    def test_newline_json_gets_one_bad_magic_error_and_eof(self):
        """The server speaks frames only: a newline-JSON request is a
        bad header, answered by one error frame before the close."""
        replies, eof, _ = self.run_raw(NEWLINE_JSON_STATS, reads=1)
        assert replies[0]["op"] == "error"
        assert "magic" in replies[0]["error"]
        assert eof

    def test_msgpack_flag_without_msgpack_is_a_structured_error(self):
        frame = HEADER.pack(MAGIC, WIRE_VERSION, FLAG_MSGPACK, 2) + b"{}"
        replies, _, _ = self.run_raw(frame + GOLDEN_V2_STATS, reads=2)
        assert replies[0]["op"] == "error"
        assert "msgpack" in replies[0]["error"]
        assert replies[1]["op"] == "stats"


# ----------------------------------------------------------------------
# client round trips + batch admission
# ----------------------------------------------------------------------
def test_client_round_trip_counts_frames():
    async def scenario():
        port = free_port()
        obs = Observability.enabled(profile=False)
        service = ODMService(
            batch_policy=BatchPolicy(
                max_batch=8, max_wait=0.001, queue_capacity=32
            ),
            observability=obs,
        )
        serve_task = await serving(port, service=service)
        async with ServiceClient(port=port) as client:
            response = await client.submit(make_request("pinned"))
            stats = await client.stats()
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return response, stats, obs.metrics.value("service.wire_frames")

    response, stats, frames = asyncio.run(scenario())
    assert response.request_id == "pinned"
    assert response.admitted
    assert stats["requests"] == 1
    assert frames == 3  # admit, stats, shutdown


def test_submit_batch_round_trip():
    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        async with ServiceClient(port=port) as client:
            empty = await client.submit_batch([])
            requests = [
                make_request(f"b{i}", seed=i) for i in range(6)
            ]
            responses = await client.submit_batch(requests)
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return empty, responses

    empty, responses = asyncio.run(scenario())
    assert empty == []
    assert [r.request_id for r in responses] == [
        f"b{i}" for i in range(6)
    ]
    assert all(r.admitted for r in responses)


def test_admit_batch_rejects_malformed_batches():
    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        async def call(record):
            writer.write(encode_frame(record))
            await writer.drain()
            return await read_v2_frame(reader)

        not_a_list = await call(
            {"op": "admit_batch", "requests": "nope"}
        )
        empty = await call({"op": "admit_batch", "requests": []})
        bad_entry = await call(
            {"op": "admit_batch", "requests": [{"bogus": 1}]}
        )
        bye = await call({"op": "shutdown"})
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return not_a_list, empty, bad_entry, bye

    not_a_list, empty, bad_entry, bye = asyncio.run(scenario())
    assert not_a_list["op"] == "error"
    assert empty["op"] == "error"
    assert bad_entry["op"] == "error"
    assert bye == {"op": "bye"}


def test_a_long_lived_connection_retains_no_finished_admissions():
    """Each admit runs as its own handler task; once answered, the
    connection must not keep it (nor its request and response)."""
    tasks = TaskSet([Task("t0", wcet=1.0, period=10.0, deadline=10.0)])

    def finished_admissions():
        gc.collect()
        return sum(
            1
            for obj in gc.get_objects()
            if isinstance(obj, asyncio.Task)
            and obj.done()
            and obj.get_coro().__qualname__.endswith(
                "handle.<locals>.admit"
            )
        )

    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        async with ServiceClient(port=port) as client:
            for chunk in range(80):  # 25 in flight: below the queue cap
                responses = await asyncio.gather(*(
                    client.submit(
                        AdmissionRequest(f"leak-{chunk}-{i}", tasks, {})
                    )
                    for i in range(25)
                ))
                assert all(r.admitted for r in responses)
            await asyncio.sleep(0.05)
            retained = finished_admissions()  # connection still open
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return retained

    assert asyncio.run(scenario()) == 0


# ----------------------------------------------------------------------
# wire v2: encode-once admit frames
# ----------------------------------------------------------------------
def reference_admit(request):
    return encode_frame({"op": "admit", "request": request.to_dict()})


def reference_admit_batch(requests):
    return encode_frame(
        {"op": "admit_batch", "requests": [r.to_dict() for r in requests]}
    )


def captured_frame(call):
    """The frame bytes ``call(client)`` writes, captured unsent."""
    client = ServiceClient()
    frames = []

    async def capture(data):
        frames.append(data)
        raise ConnectionLost("captured")

    client._send = capture
    with pytest.raises(ConnectionLost):
        asyncio.run(call(client))
    return frames[0]


def varied_requests(rng):
    """Seeded admissions over a shared task pool, each varied one way:
    non-ASCII ids, negative zeros, one-ulp changes, fresh estimates."""
    pool = [
        list(
            random_offloading_task_set(
                rng, num_tasks=int(rng.integers(1, 6)),
                total_utilization=0.5,
            )
        )
        for _ in range(6)
    ]
    requests = []
    for number in range(120):
        tasks = list(pool[int(rng.integers(len(pool)))])
        index = int(rng.integers(len(tasks)))
        roll = number % 4
        if roll == 1:
            tasks[index] = dataclasses.replace(
                tasks[index], task_id=f"τ-ü漢-{number}"
            )
        elif roll == 2 and isinstance(tasks[index], OffloadableTask):
            tasks[index] = dataclasses.replace(tasks[index], post_time=-0.0)
        elif roll == 3:
            tasks[index] = dataclasses.replace(
                tasks[index],
                wcet=math.nextafter(tasks[index].wcet, math.inf),
            )
        requests.append(
            AdmissionRequest(
                request_id=f"请求-{number}",
                tasks=TaskSet(tasks),
                server_estimates={
                    "edge": float(rng.uniform(0.5, 2.0)),
                    "云": math.nextafter(1.0, 2.0),
                },
            )
        )
    return requests


class TestAdmitFrames:
    def test_golden_admit_frame(self):
        request = golden_admit_request()
        assert reference_admit(request) == GOLDEN_V2_ADMIT
        encoder = AdmitEncoder()
        assert encoder.admit(request) == GOLDEN_V2_ADMIT
        assert encoder.admit(request) == GOLDEN_V2_ADMIT  # from fragments
        record, consumed = decode_frame(GOLDEN_V2_ADMIT)
        assert consumed == len(GOLDEN_V2_ADMIT)
        assert record["request"] == request.to_dict()

    def test_client_submit_writes_the_golden_frame(self):
        request = golden_admit_request()
        frame = captured_frame(lambda client: client.submit(request))
        assert frame == GOLDEN_V2_ADMIT

    def test_randomized_frames_equal_encode_frame(self):
        encoder = AdmitEncoder()
        requests = varied_requests(np.random.default_rng(28))
        frames = [encoder.admit(request) for request in requests]
        assert frames == [reference_admit(r) for r in requests]
        # the variations really reach the wire
        assert any(b'"post_time":-0.0' in frame for frame in frames)
        assert any(b'"task_id":"\\u03c4-' in frame for frame in frames)
        for start in range(0, len(requests), 7):
            batch = requests[start:start + 7]
            assert encoder.admit_batch(batch) == reference_admit_batch(batch)

    def test_one_ulp_changes_the_frame(self):
        request = golden_admit_request()
        encoder = AdmitEncoder()
        first = encoder.admit(request)
        tasks = list(request.tasks)
        tasks[1] = dataclasses.replace(
            tasks[1], period=math.nextafter(tasks[1].period, math.inf)
        )
        changed = dataclasses.replace(request, tasks=TaskSet(tasks))
        assert encoder.admit(changed) == reference_admit(changed) != first

    def test_a_task_added_between_submits_is_in_the_next_frame(self):
        request = golden_admit_request()
        encoder = AdmitEncoder()
        before = encoder.admit(request)
        request.tasks.add(Task(task_id="t3", wcet=0.5, period=40.0))
        after = encoder.admit(request)
        assert after != before
        assert after == reference_admit(request)
        assert json.loads(after[HEADER.size:])["request"]["tasks"][-1][
            "task_id"
        ] == "t3"

    def test_client_submit_batch_frame_equals_encode_frame(self):
        requests = varied_requests(np.random.default_rng(5))[:9]
        frame = captured_frame(
            lambda client: client.submit_batch(requests)
        )
        assert frame == reference_admit_batch(requests)

    def test_residency_stays_bounded_and_evicted_tasks_are_freed(self):
        encoder = AdmitEncoder()
        first = Task(task_id="t-first", wcet=1.0, period=10.0)
        encoder.admit(
            AdmissionRequest(request_id="r-first", tasks=TaskSet([first]))
        )
        freed = weakref.ref(first)
        del first
        for number in range(10_000):
            task = Task(task_id=f"t{number}", wcet=1.0, period=10.0)
            request = AdmissionRequest(
                request_id=f"r{number}", tasks=TaskSet([task])
            )
            assert encoder.admit(request) == reference_admit(request)
            assert len(encoder) <= encoder.capacity
        assert len(encoder) == encoder.capacity
        assert freed() is None
