"""The wire path's request memo: exact keys, unchanged errors, bounded
residency, and decisions identical to a service that never hits it."""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.service import (
    AdmissionRequest,
    BatchPolicy,
    ODMService,
    OpenLoopConfig,
    ServiceClient,
    decode_frame,
    encode_frame,
    generate_open_loop,
    task_to_dict,
)
from repro.service.memo import RequestMemo, content_key
from repro.service.protocol import HEADER, decode_header
from repro.workloads.generator import random_offloading_task_set
from tests.service.test_protocol import free_port, serving


def wire_record(request):
    """``request.to_dict()`` as the server decodes it off the wire."""
    return json.loads(encode_frame(request.to_dict())[HEADER.size:])


def make_request(request_id="m1", seed=1, num_tasks=3):
    tasks = random_offloading_task_set(
        np.random.default_rng(seed),
        num_tasks=num_tasks,
        total_utilization=0.5,
    )
    return AdmissionRequest(
        request_id=request_id,
        tasks=tasks,
        server_estimates={"edge": 1.0, "cloud": 1.25},
    )


def tiny_record(request_id, wcet=1.0, task_id="t0"):
    """A one-task, local-only request (no solver on its path)."""
    return {
        "request_id": request_id,
        "tasks": [
            {"task_id": task_id, "wcet": wcet, "period": 10.0,
             "deadline": 10.0, "weight": 1.0, "offloadable": False}
        ],
        "server_estimates": {},
    }


async def read_raw_frame(reader):
    """One whole frame off a raw stream, as bytes."""
    header = await reader.readexactly(HEADER.size)
    _, _, length = decode_header(header)
    return header + await reader.readexactly(length)


def make_service(**kwargs):
    kwargs.setdefault(
        "batch_policy",
        BatchPolicy(max_batch=8, max_wait=0.001, queue_capacity=256),
    )
    return ODMService(**kwargs)


def resident_memo(record):
    """A memo that has seen ``record`` twice, so its content is
    resident and the next sighting is a hit."""
    memo = RequestMemo(256)
    memo.parse(record)
    _, entry = memo.parse(record)
    assert entry is not None and memo.resident == 1
    return memo


def float_paths(node, path=()):
    """Every path to a float leaf of a decoded JSON record."""
    if isinstance(node, float):
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from float_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from float_paths(value, path + (index,))


def replaced(record, path, value):
    copy = json.loads(json.dumps(record))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


# ----------------------------------------------------------------------
# key exactness
# ----------------------------------------------------------------------
def test_equal_but_differently_parsed_task_ids_never_share_an_entry():
    variants = [1, 1.0, True, "1"]
    records = [tiny_record("x", task_id=v) for v in variants]
    keys = {content_key(r) for r in records}
    assert len(keys) == len(variants)
    for record in records:
        memo = resident_memo(record)
        for other in records:
            request, _ = memo.parse(dict(other, request_id="y"))
            expected = AdmissionRequest.from_dict(dict(other, request_id="y"))
            assert request.tasks[0].task_id == expected.tasks[0].task_id
        assert memo.hits == 1  # only the record's own content hit


def test_signed_zero_is_part_of_the_key():
    plus = tiny_record("x")
    plus["tasks"][0]["weight"] = 0.0
    minus = tiny_record("x")
    minus["tasks"][0]["weight"] = -0.0
    assert content_key(plus) != content_key(minus)
    memo = resident_memo(plus)
    request, _ = memo.parse(minus)
    assert memo.hits == 0
    assert math.copysign(1.0, request.tasks[0].weight) == -1.0


def test_one_ulp_in_any_float_misses_the_memo():
    record = wire_record(make_request())
    memo = resident_memo(record)
    paths = list(float_paths(record))
    assert len(paths) > 20
    for path in paths:
        node = record
        for step in path:
            node = node[step]
        bumped = replaced(record, path, math.nextafter(node, math.inf))
        assert content_key(bumped) != content_key(record), path
        try:
            memo.parse(bumped)
        except ValueError:
            pass  # e.g. the local point moved off r=0
    assert memo.hits == 0
    # and the unchanged content still hits
    memo.parse(record)
    assert memo.hits == 1


def test_request_id_is_not_part_of_the_key():
    record = wire_record(make_request("a"))
    memo = resident_memo(record)
    request, entry = memo.parse(dict(record, request_id="b"))
    assert memo.hits == 1
    assert request.request_id == "b"
    assert request.tasks is entry.tasks


def test_hit_validates_the_request_id_like_the_parser():
    record = wire_record(make_request())
    memo = resident_memo(record)
    for bad in ({k: v for k, v in record.items() if k != "request_id"},
                dict(record, request_id="")):
        with pytest.raises((KeyError, ValueError)) as memo_exc:
            memo.parse(bad)
        with pytest.raises((KeyError, ValueError)) as parser_exc:
            AdmissionRequest.from_dict(bad)
        assert type(memo_exc.value) is type(parser_exc.value)
        assert str(memo_exc.value) == str(parser_exc.value)


# ----------------------------------------------------------------------
# residency
# ----------------------------------------------------------------------
def test_never_repeating_contents_leave_nothing_parsed():
    memo = RequestMemo(256)
    for i in range(10_000):
        memo.parse(tiny_record(f"r{i}", wcet=1.0 + i * 1e-4))
    assert memo.lookups == 10_000
    assert memo.hits == 0
    assert memo.resident == 0
    assert len(memo._seen) == 256
    assert all(entry is None for entry in memo._seen.values())


def test_resident_entries_never_exceed_the_capacity():
    memo = RequestMemo(8)
    rng = np.random.default_rng(3)
    for i in range(2_000):
        content = int(rng.integers(0, 20))
        memo.parse(tiny_record(f"r{i}", wcet=1.0 + 0.1 * content))
        resident = sum(e is not None for e in memo._seen.values())
        assert memo.resident == resident <= memo.capacity
        assert len(memo._seen) <= memo.capacity
    assert memo.hits > 0


def test_the_service_sizes_its_memo_like_its_solver_cache():
    service = make_service()
    assert service.request_memo.capacity == service.cache.maxsize


# ----------------------------------------------------------------------
# through the service
# ----------------------------------------------------------------------
def test_shared_task_set_is_unchanged_after_a_thousand_hits():
    async def scenario():
        service = make_service()
        record = wire_record(make_request())
        async with service:
            service.request_memo.parse(record)
            _, entry = service.request_memo.parse(record)
            before = (
                [task_to_dict(t) for t in entry.tasks],
                dict(entry.estimates),
            )
            for chunk in range(10):
                parsed = [
                    service.request_memo.parse(
                        dict(record, request_id=f"h{chunk}-{i}")
                    )
                    for i in range(100)
                ]
                responses = await asyncio.gather(
                    *(service.submit(r, memo=m) for r, m in parsed)
                )
                assert all(r.admitted for r in responses)
                assert all(r.tasks is entry.tasks for r, _ in parsed)
            after = (
                [task_to_dict(t) for t in entry.tasks],
                dict(entry.estimates),
            )
        return service.request_memo.stats, before, after

    stats, before, after = asyncio.run(scenario())
    assert stats["hits"] == 1000
    assert before == after


def test_differential_against_a_service_that_never_hits():
    config = OpenLoopConfig(
        seed=11, requests=72, unique_sets=3, num_tasks=4,
        churn_rate=0.4, audit=False,
    )
    trace = [request for _, request in generate_open_loop(config)]

    async def served():
        port = free_port()
        service = make_service()
        serve_task = await serving(port, service=service)
        async with ServiceClient(port=port) as client:
            single = [
                await client.submit(request) for request in trace[:48]
            ]
            batched = await client.submit_batch(trace[48:])
            stats = await client.stats()
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return single + batched, stats

    async def fresh(request):
        async with make_service() as service:
            return await service.submit(request)

    async def reference():
        return [await fresh(request) for request in trace]

    responses, stats = asyncio.run(served())
    expected = asyncio.run(reference())
    memo = stats["request_memo"]
    assert memo["lookups"] == stats["requests"] == len(trace)
    assert memo["hits"] > 0

    def comparable(response):
        record = response.to_dict()
        del record["latency"], record["batch_size"]
        return record

    assert [comparable(r) for r in responses] == [
        comparable(r) for r in expected
    ]


MALFORMED = [
    ("wrong type", {"request_id": "x", "tasks": 5}),
    ("not an object", [1, 2, 3]),
    ("missing field", {"request_id": "x", "tasks": [{"task_id": "t"}]}),
    ("non-numeric wcet", tiny_record("x", wcet="slow")),
    ("NaN wcet", tiny_record("x", wcet=float("nan"))),
    ("NaN estimate", dict(tiny_record("x"), server_estimates={
        "edge": float("nan")})),
    ("infinite estimate", dict(tiny_record("x"), server_estimates={
        "edge": float("inf")})),
    ("non-list benefit", {
        "request_id": "x",
        "tasks": [dict(
            tiny_record("x")["tasks"][0], offloadable=True,
            setup_time=0.1, compensation_time=0.2, benefit=7,
        )],
    }),
    ("string benefit", {
        "request_id": "x",
        "tasks": [dict(
            tiny_record("x")["tasks"][0], offloadable=True,
            setup_time=0.1, compensation_time=0.2, benefit="ab",
        )],
    }),
]


@pytest.mark.parametrize(
    "record", [r for _, r in MALFORMED], ids=[n for n, _ in MALFORMED]
)
def test_malformed_records_get_the_parser_error_and_are_never_stored(record):
    with pytest.raises((KeyError, TypeError, ValueError)) as parser_exc:
        AdmissionRequest.from_dict(record)
    expected_single = encode_frame(
        {"op": "error", "error": f"bad admit request: {parser_exc.value}"}
    )
    expected_batch = encode_frame(
        {"op": "error",
         "error": f"bad admit_batch request: {parser_exc.value}"}
    )

    async def scenario():
        port = free_port()
        service = make_service()
        serve_task = await serving(port, service=service)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        frames = []
        for op in ("admit", "admit", "admit", "admit_batch", "admit_batch"):
            if op == "admit":
                message = {"op": op, "request": record}
            else:
                message = {"op": op, "requests": [record]}
            writer.write(encode_frame(message))
            await writer.drain()
            frames.append(await read_raw_frame(reader))
        writer.write(encode_frame({"op": "shutdown"}))
        await writer.drain()
        await read_raw_frame(reader)
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return frames, service.request_memo

    frames, memo = asyncio.run(scenario())
    assert frames == [expected_single] * 3 + [expected_batch] * 2
    assert memo.lookups == 5
    assert memo.hits == 0
    assert memo.resident == 0


def test_a_non_finite_estimate_spares_the_requests_batched_with_it():
    """A NaN or infinite estimate is refused at parse time with an
    ``error`` frame; a valid admission sent in the same write, and so
    batched with it, is still answered."""
    good = wire_record(make_request("good"))
    bad_estimates = [float("nan"), float("inf"), float("nan")]

    async def scenario():
        port = free_port()
        service = make_service()
        serve_task = await serving(port, service=service)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        rounds = []
        for lap, scale in enumerate(bad_estimates):
            bad = dict(good, request_id=f"bad-{lap}",
                       server_estimates={"edge": scale, "cloud": 1.25})
            writer.write(
                encode_frame({"op": "admit",
                              "request": dict(good, request_id=f"g-{lap}")})
                + encode_frame({"op": "admit", "request": bad})
            )
            await writer.drain()
            frames = [
                decode_frame(await asyncio.wait_for(
                    read_raw_frame(reader), timeout=10.0))[0]
                for _ in range(2)
            ]
            rounds.append(sorted(frames, key=lambda f: f["op"]))
        writer.write(encode_frame({"op": "shutdown"}))
        await writer.drain()
        await read_raw_frame(reader)
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return rounds, service.request_memo

    rounds, memo = asyncio.run(scenario())
    for lap, (error, response) in enumerate(rounds):
        assert error["op"] == "error"
        assert "must be finite and positive" in error["error"]
        assert response["op"] == "response"
        assert response["request_id"] == f"g-{lap}"
        assert response["status"] == "admitted"
    # the valid content is resident; the poisoned one never is
    assert memo.lookups == 6
    assert memo.resident == 1


def test_admit_batch_goes_through_the_memo():
    request = make_request()

    async def scenario():
        port = free_port()
        serve_task = await serving(port)
        async with ServiceClient(port=port) as client:
            for lap in range(3):
                await client.submit_batch([
                    AdmissionRequest(f"b{lap}-{i}", request.tasks,
                                     request.server_estimates)
                    for i in range(4)
                ])
            stats = await client.stats()
            await client.shutdown()
        await asyncio.wait_for(serve_task, timeout=10.0)
        return stats

    stats = asyncio.run(scenario())
    assert stats["request_memo"] == {
        "lookups": 12, "hits": 10, "resident": 1,
    }
    assert stats["requests"] == 12


def test_memo_counters_are_mirrored_into_the_registry():
    service = make_service()
    record = wire_record(make_request())
    for i in range(3):
        service.request_memo.parse(dict(record, request_id=f"r{i}"))
    metrics = service.observability.metrics
    assert metrics.value("request_memo.lookups") == 3
    assert metrics.value("request_memo.hits") == 1
    assert metrics.value("request_memo.resident") == 1
