"""MicroBatcher: bounded admission, coalescing, shedding, canonical order."""

import asyncio

import pytest

from repro.serve import BatcherConfig, InferenceRequest, MicroBatcher, OfferRejected


def request(rid, deadline=None):
    return InferenceRequest(graph=object(), request_id=rid, deadline=deadline)


def test_config_validation():
    with pytest.raises(ValueError):
        BatcherConfig(max_batch=0)
    with pytest.raises(ValueError):
        BatcherConfig(capacity=0)
    with pytest.raises(ValueError):
        BatcherConfig(batch_window=-0.001)


def test_admission_is_bounded_and_typed():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig(capacity=3))
        for index in range(3):
            batcher.offer(request(f"r{index}"))
        with pytest.raises(OfferRejected) as excinfo:
            batcher.offer(request("r3"))
        assert excinfo.value.retry_after > 0.0
        assert excinfo.value.depth == 3
        assert batcher.rejected_total == 1
        assert batcher.depth() == 3

    asyncio.run(scenario())


def test_idle_poll_returns_empty_batch():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig(idle_poll=0.01))
        live, expired = await batcher.next_batch()
        assert live == [] and expired == []

    asyncio.run(scenario())


def test_batch_collects_up_to_max_batch():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig(max_batch=4, batch_window=0.02))
        for index in range(6):
            batcher.offer(request(f"r{index}"))
        live, expired = await batcher.next_batch()
        assert len(live) == 4 and not expired
        live2, _ = await batcher.next_batch()
        assert len(live2) == 2

    asyncio.run(scenario())


def test_expired_requests_are_shed_before_compute():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig(batch_window=0.0))
        now = batcher.clock()
        batcher.offer(request("r0", deadline=now - 1.0))
        batcher.offer(request("r1", deadline=now + 60.0))
        live, expired = await batcher.next_batch()
        assert [r.request_id for r in live] == ["r1"]
        assert [r.request_id for r in expired] == ["r0"]
        assert batcher.shed_expired_total == 1

    asyncio.run(scenario())


def test_canonical_request_id_ordering():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig(max_batch=8, batch_window=0.02))
        for rid in ["r5", "r1", "r9", "r0", "r3"]:
            batcher.offer(request(rid))
        live, _ = await batcher.next_batch()
        assert [r.request_id for r in live] == ["r0", "r1", "r3", "r5", "r9"]

    asyncio.run(scenario())


def test_drain_nowait_empties_queue():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig())
        for index in range(5):
            batcher.offer(request(f"r{index}"))
        drained = batcher.drain_nowait()
        assert len(drained) == 5 and batcher.depth() == 0

    asyncio.run(scenario())


def test_retry_after_scales_with_backlog():
    async def scenario():
        batcher = MicroBatcher(BatcherConfig(max_batch=2, capacity=64))
        batcher.record_service_time(0.01)
        empty_hint = batcher.retry_after()
        for index in range(8):
            batcher.offer(request(f"r{index}"))
        assert batcher.retry_after() > empty_hint

    asyncio.run(scenario())


def test_queued_requests_are_taken_without_a_wait_each(monkeypatch):
    """A full queue costs at most one ``wait_for`` (the window's last wait)."""
    entered = []
    wait_for = asyncio.wait_for

    def counted(awaitable, timeout):
        entered.append(timeout)
        return wait_for(awaitable, timeout)

    monkeypatch.setattr(asyncio, "wait_for", counted)

    async def scenario():
        batcher = MicroBatcher(BatcherConfig(max_batch=32, batch_window=0.01))
        rids = [f"r{index:02d}" for index in range(16)]
        for rid in reversed(rids):
            batcher.offer(request(rid))
        live, expired = await batcher.next_batch()
        assert [r.request_id for r in live] == rids and not expired
        assert batcher.depth() == 0

    asyncio.run(scenario())
    assert len(entered) <= 1
