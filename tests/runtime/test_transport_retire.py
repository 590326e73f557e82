"""Channel retirement and re-dial: graves stay quiet, crashed peers return.

The failure mode retirement pins: after a removal commits, the leaver's
process stops for good, but background fan-outs (heartbeats, GC
broadcasts, view gossip) keep addressing the full topology.  Without
retirement every tick burns a full connect-retry budget against the
dead listener and records a transport error, which a clean shutdown
treats as a failure.  ``LiveHub.retire`` makes the grave explicit:
frames to it are counted in ``stats.retired_frames`` and dropped, the
open channel (if any) is torn down, and nothing ever re-dials — while
the *implicit* dead-channel path keeps its opposite behavior (re-dial
fresh), because a crashed peer that restarted from its WAL must be
reachable again.

Like the batching tests these run against a real loopback listener and
read only the hub's public surface.
"""

import asyncio
from dataclasses import replace

from helpers import Loopback, until
from repro.common.types import server_address

DST = Loopback.DST


def test_frames_to_a_retired_peer_are_dropped_and_counted():
    hub = Loopback().hub
    assert not hub.is_retired(DST)
    hub.retire(DST)
    assert hub.is_retired(DST)
    for _ in range(3):
        hub.post_frame(DST, b"gossip")
    assert hub.stats.retired_frames == 3
    # Dropped frames never count as sent and never open a channel —
    # that is the whole point: no dial, no retry budget, no error.
    assert hub.stats.messages_sent == 0
    assert hub.stats.connect_attempts == 0
    assert hub.errors == []


def test_unretire_restores_delivery():
    async def run() -> None:
        link = Loopback()
        await link.listen()
        hub = link.hub
        try:
            hub.retire(DST)
            hub.post_frame(DST, b"dropped")
            hub.unretire(DST)
            assert not hub.is_retired(DST)
            hub.post_frame(DST, b"delivered")
            await link.until_received(len(b"delivered"))
            assert link.received == b"delivered"
            assert hub.stats.retired_frames == 1
            assert hub.stats.messages_sent == 1
        finally:
            await link.close()

    asyncio.run(run())


def test_retire_tears_down_the_open_channel():
    async def run() -> None:
        link = Loopback()
        await link.listen()
        hub = link.hub
        try:
            hub.post_frame(DST, b"live traffic")
            await link.until_received(len(b"live traffic"))
            hub.retire(DST)
            (peer_side,) = link.connections
            await until(peer_side.is_closing)  # the hub hung up
            hub.post_frame(DST, b"into the grave")
            await asyncio.sleep(0.05)
            assert link.received == b"live traffic"
            assert hub.stats.retired_frames == 1  # only *future* frames
            assert hub.stats.connect_attempts == 1
            assert hub.errors == []
        finally:
            await link.close()

    asyncio.run(run())


def test_dead_channel_is_redialed_not_retired():
    """The implicit path keeps its opposite contract: a channel whose
    connection died (peer crashed) is replaced with a fresh dial on the
    next frame, because a WAL-recovered peer must be reachable again.
    Only the explicit ``retire`` call makes a destination permanent."""

    async def run() -> None:
        link = Loopback()
        await link.listen()
        hub = link.hub
        try:
            hub.post_frame(DST, b"before the crash;")
            await link.until_received(len(b"before the crash;"))
            link.connections[0].abort()  # the peer dies without goodbye
            await asyncio.sleep(0.05)
            hub.post_frame(DST, b"after recovery")
            await link.until_received(
                len(b"before the crash;after recovery"))
            assert link.received == b"before the crash;after recovery"
            assert len(link.connections) == 2  # a fresh connection
            assert hub.stats.reconnects == 1
            assert hub.stats.retired_frames == 0
            assert hub.stats.messages_dropped == 0
            assert not hub.is_retired(DST)
        finally:
            await link.close()

    asyncio.run(run())


def test_undelivered_frames_of_a_dead_channel_are_dropped_exactly_once():
    """Frames a channel still held when it died are counted in
    ``messages_dropped`` once — not again on the re-dial, and never
    carried over into the fresh connection."""

    async def run() -> None:
        link = Loopback()  # nobody listening yet
        hub = link.hub
        hub.connect_policy = replace(hub.connect_policy, max_elapsed_s=0.1)
        try:
            for _ in range(3):
                hub.post_frame(DST, b"lost;")
            await until(lambda: hub.errors)  # the dial's budget ends
            assert len(hub.errors) == 1
            assert "could not connect" in hub.errors[0]
            assert hub.stats.messages_dropped == 3
            await link.listen()  # the peer is back
            hub.post_frame(DST, b"fresh")
            await link.until_received(len(b"fresh"))
            await asyncio.sleep(0.05)
            assert link.received == b"fresh"  # nothing resurrected
            assert hub.stats.reconnects == 1
            assert hub.stats.messages_dropped == 3
            assert hub.stats.messages_sent == 4
        finally:
            await link.close()

    asyncio.run(run())


def test_handler_failure_closes_that_connection_only():
    """An exception out of ``core.on_message`` lands in ``hub.errors``
    and closes the connection it arrived on; every other connection —
    and a fresh one to the same endpoint — keeps delivering."""
    from repro.protocols import messages as m
    from repro.runtime import codec
    from repro.runtime.transport import AddressBook, LiveHub

    class Core:
        def __init__(self, runtime, poison=None):
            self.seen: list[int] = []
            self.poison = poison
            runtime.bind(self)

        def on_message(self, msg) -> None:
            if msg.ts == self.poison:
                raise RuntimeError("boom")
            self.seen.append(msg.ts)

    async def run() -> None:
        fragile, sturdy = server_address(0, 0), server_address(0, 1)
        book = AddressBook()
        book.set(fragile, "127.0.0.1", 0)
        book.set(sturdy, "127.0.0.1", 0)
        hub = LiveHub(book)
        a = Core(hub.runtime(fragile), poison=13)
        b = Core(hub.runtime(sturdy))
        await hub.start()

        def post(dst, ts: int) -> None:
            hub.post_frame(
                dst, codec.encode_frame(m.Heartbeat(ts=ts, src_dc=0)))

        try:
            post(fragile, 1)
            post(sturdy, 2)
            post(fragile, 13)
            post(fragile, 3)  # same read
            await until(lambda: hub.errors)
            assert len(hub.errors) == 1
            assert "handler failed" in hub.errors[0]
            assert "boom" in hub.errors[0]
            assert a.seen == [1]  # the stream ended at the failure
            await asyncio.sleep(0.05)  # the hub learns its channel died
            post(sturdy, 4)
            post(fragile, 5)
            await until(lambda: b.seen == [2, 4] and a.seen == [1, 5])
            assert hub.stats.reconnects == 1
            assert len(hub.errors) == 1
        finally:
            await hub.close()

    asyncio.run(run())


def test_runtime_retire_peer_delegates_to_the_hub():
    hub = Loopback().hub
    runtime = hub.runtime(server_address(0, 1))
    runtime.retire_peer(DST)
    assert hub.is_retired(DST)
    hub.post_frame(DST, b"view gossip")
    assert hub.stats.retired_frames == 1
