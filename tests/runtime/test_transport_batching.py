"""The per-tick flush: write coalescing, its byte cap and backpressure.

Everything here talks to a real loopback listener and reads the hub's
public counters — nothing reaches into the channel objects.  TCP does
not preserve write boundaries, so *how* frames were grouped is read from
``hub.stats`` (``batches_sent`` / ``batched_frames`` /
``max_batch_frames``) and *what* arrived from the listener's bytes.

The cap regression these exist for: a coalescing loop that checks the
size *before* taking the next frame overshoots the cap by one whole
frame per write.  An over-the-cap frame must open the next write
instead (and a frame bigger than the cap on its own still goes out,
alone).
"""

import asyncio

from helpers import Loopback
from repro.runtime import transport

DST = Loopback.DST


def _post_in_one_tick(frames: list[bytes], cap: int, monkeypatch):
    """Post ``frames`` within one event-loop tick over a connection that
    is already up; return (bytes received, stats deltas of that tick)."""
    monkeypatch.setattr(transport, "MAX_BATCH_BYTES", cap)

    async def run():
        link = Loopback()
        await link.listen()
        hub = link.hub
        try:
            hub.post_frame(DST, b"!")  # dial; the frames below find it up
            await hub.drain()
            await link.until_received(1)
            stats = hub.stats
            before = (stats.batches_sent, stats.batched_frames)
            for frame in frames:
                hub.post_frame(DST, frame)
            await hub.drain()
            await link.until_received(1 + sum(map(len, frames)))
            assert hub.errors == []
            assert stats.messages_dropped == 0
            return (link.received[1:], stats.batches_sent - before[0],
                    stats.batched_frames - before[1],
                    stats.max_batch_frames)
        finally:
            await link.close()

    return asyncio.run(run())


def test_writes_never_exceed_the_byte_cap(monkeypatch):
    frames = [bytes([i]) * 40 for i in range(6)]  # 40B each, cap fits 2
    received, writes, batched, biggest = _post_in_one_tick(
        frames, 100, monkeypatch)
    # Nothing lost, nothing reordered: the concatenation is unchanged.
    assert received == b"".join(frames)
    assert (writes, batched, biggest) == (3, 6, 2)


def test_over_cap_frame_opens_the_next_write(monkeypatch):
    # 70 + 70 > cap: the second frame must open the next write, and the
    # 30B frame then rides with it (70 + 30 == cap, allowed), leaving
    # the last one a write of its own.  An overshooting loop would group
    # [70, 70] [30, 10]: two writes, four batched frames.
    frames = [b"a" * 70, b"b" * 70, b"c" * 30, b"d" * 10]
    received, writes, batched, biggest = _post_in_one_tick(
        frames, 100, monkeypatch)
    assert received == b"".join(frames)
    assert (writes, batched, biggest) == (3, 2, 2)


def test_single_oversized_frame_still_goes_out_alone(monkeypatch):
    frames = [b"x" * 250, b"y" * 10, b"z" * 10]
    received, writes, batched, biggest = _post_in_one_tick(
        frames, 100, monkeypatch)
    # The oversized frame is a write of its own; the rest coalesce.
    assert received == b"".join(frames)
    assert (writes, batched, biggest) == (2, 2, 2)


def test_boundary_frame_exactly_filling_the_cap_rides_along(monkeypatch):
    frames = [b"a" * 60, b"b" * 40]  # 60 + 40 == cap: not an overshoot
    received, writes, batched, _ = _post_in_one_tick(frames, 100, monkeypatch)
    assert received == b"".join(frames)
    assert (writes, batched) == (1, 2)


def test_frames_posted_before_the_dial_completes_arrive_first_in_order():
    """A channel that is still dialing (here: its peer has not even
    bound its port yet) keeps frames in post order across ticks and
    sends them ahead of anything posted once the connection is up."""

    async def run() -> None:
        link = Loopback()
        hub = link.hub
        try:
            early = [b"first ", b"second ", b"third "]
            hub.post_frame(DST, early[0])
            await asyncio.sleep(0.01)           # a later tick, still no peer
            hub.post_frame(DST, early[1])
            hub.post_frame(DST, early[2])
            await asyncio.sleep(0.01)
            assert hub.stats.batches_sent == 0  # nowhere to write yet
            await link.listen()
            await link.until_received(len(b"".join(early)))
            hub.post_frame(DST, b"fourth")
            await hub.drain()
            await link.until_received(len(b"".join(early)) + 6)
            assert link.received == b"first second third fourth"
            assert hub.stats.messages_dropped == 0
            assert hub.errors == []
        finally:
            await link.close()

    asyncio.run(run())


def _stalled_link() -> tuple[Loopback, list[bytes]]:
    # A listener that does not read, on a socket with a small receive
    # buffer: its window closes at once, and 8 MiB cannot fit in the
    # sender's kernel buffer either (autotuned up to the tcp_wmem
    # maximum, 4 MiB by default), so the transport must push back.
    link = Loopback(stalled=True, rcvbuf_bytes=65536)
    frames = [bytes([i]) * 32768 for i in range(256)]  # 8 MiB
    return link, frames


def test_paused_transport_keeps_frames_pending_and_flushes_in_order():
    async def run() -> None:
        link, frames = _stalled_link()
        await link.listen()
        hub = link.hub
        try:
            for frame in frames:
                hub.post_frame(DST, frame)
            await asyncio.sleep(0.2)
            # The socket backed up long before 8 MiB (32 cap-sized
            # writes) were handed over; the rest stays with the hub.
            stuck_at = hub.stats.batches_sent
            assert 0 < stuck_at < 32
            late = [b"late-%d;" % i for i in range(5)]
            for frame in late:
                hub.post_frame(DST, frame)
            await asyncio.sleep(0.1)
            assert hub.stats.batches_sent == stuck_at  # held, not written
            for connection in link.connections:
                connection.resume_reading()
            await hub.drain()
            expected = b"".join(frames + late)
            await link.until_received(len(expected))
            assert link.received == expected
            assert hub.stats.messages_dropped == 0
            assert hub.errors == []
        finally:
            await link.close()

    asyncio.run(run())


def test_drain_waits_for_the_transport_write_buffer(monkeypatch):
    # With no cap in the way everything leaves the hub in one write, so
    # nothing is pending — the bytes sit in the transport's own buffer.
    monkeypatch.setattr(transport, "MAX_BATCH_BYTES", 1 << 30)

    async def run() -> None:
        link, frames = _stalled_link()
        await link.listen()
        hub = link.hub
        try:
            for frame in frames:
                hub.post_frame(DST, frame)
            try:
                await asyncio.wait_for(hub.drain(), timeout=0.3)
            except asyncio.TimeoutError:
                pass
            else:
                raise AssertionError("drain() returned with bytes unsent")
            for connection in link.connections:
                connection.resume_reading()
            await asyncio.wait_for(hub.drain(), timeout=10.0)
            assert hub.stats.batches_sent == 1
            expected = b"".join(frames)
            await link.until_received(len(expected))
            assert link.received == expected
            assert hub.errors == []
        finally:
            await link.close()

    asyncio.run(run())
