"""The asyncio TCP transport behind the live backend.

One process runs one :class:`LiveHub`: the shared event-loop state — the
monotonic epoch every endpoint's ``now`` is measured from, the address
book mapping :class:`repro.common.types.Address` to ``(host, port)``, the
outgoing connection cache and the transfer statistics.  Each protocol
core gets a :class:`LiveRuntime`, the per-endpoint
:class:`repro.protocols.core.ProtocolRuntime` adapter: its listener
decodes length-prefixed frames into ``core.on_message``, its ``send``
posts frames to the hub, and its timers are ``loop.call_later``
callbacks.

Everything runs on a single event loop (no locks), in plain callbacks:
protocol handlers are synchronous functions invoked from
``data_received`` and timers, just as they are invoked from engine events
in the simulation, and one per-tick flush hands outgoing frames to their
sockets.  The only tasks are short-lived: one per connection being dialed.

Differences from the simulated substrate, by design:

* modeled CPU service times are **not** charged (``submit`` runs the
  handler immediately) — real CPUs charge themselves;
* per-channel FIFO comes from TCP: all traffic from this process to one
  destination shares one ordered connection;
* crashes are injected for real (kill the process); *network* chaos is
  injectable in-process via per-channel :class:`LinkFault` hooks —
  delay and probabilistic drop per directed DC pair, mirroring the
  simulation's slow/lossy links so the same chaos scenarios run on both
  backends.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.common.errors import ReproError
from repro.common.types import Address, reshard_controller_address
from repro.cluster.topology import Topology
from repro.protocols.core import FOREGROUND, modeled_message_size
from repro.runtime import codec


@dataclass(frozen=True)
class ConnectRetryPolicy:
    """Exponential backoff with jitter for outgoing connections.

    Replaces the old fixed budget (40 tries x 0.25 s); the default
    ``max_elapsed_s`` preserves that 10-second cap while probing much
    faster at first (a peer that boots 100 ms later costs ~100 ms, not a
    quarter second) and backing off once the peer looks genuinely down.
    Jitter decorrelates the dial storms of many channels retrying at
    once after a peer restart.
    """

    initial_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    #: Each sleep is scaled by ``1 + uniform(-jitter, +jitter)``.
    jitter: float = 0.2
    #: Total time budget before the hub records a transport error.
    max_elapsed_s: float = 10.0

    def next_delay(self, delay_s: float) -> float:
        return min(delay_s * self.multiplier, self.max_delay_s)

    def jittered(self, delay_s: float, rng: random.Random) -> float:
        if self.jitter <= 0:
            return delay_s
        return delay_s * (1.0 + rng.uniform(-self.jitter, self.jitter))


class LinkFault:
    """Chaos parameters for one directed DC-pair channel (live backend).

    ``delay_s`` adds fixed latency to every frame; ``drop_rate`` drops
    frames probabilistically.  Delayed frames release in post order
    (strictly increasing release times per destination), so per-channel
    FIFO survives the detour through the event loop's timer heap.
    """

    __slots__ = ("delay_s", "drop_rate", "rng", "dropped", "delayed",
                 "dropped_by_type")

    def __init__(self, delay_s: float = 0.0, drop_rate: float = 0.0,
                 seed: int | None = None):
        if not 0.0 <= drop_rate <= 1.0:
            raise TransportError("drop_rate must be in [0, 1]")
        if delay_s < 0:
            raise TransportError("delay_s must be >= 0")
        self.delay_s = delay_s
        self.drop_rate = drop_rate
        self.rng = random.Random(seed)
        self.dropped = 0
        self.delayed = 0
        #: Message-type name -> drops, mirroring the simulated network's
        #: ``NetworkStats.dropped_by_type`` so chaos cells assert the
        #: fault hit the traffic it targeted on either backend.
        self.dropped_by_type: dict[str, int] = {}

#: Per-channel write coalescing cap: the per-tick flush hands a channel
#: every frame pending for its destination — everything posted during
#: the tick, plus whatever waited out a dial or a backed-up socket — in
#: ``writelines`` calls of at most this many bytes each; frames beyond
#: the cap simply start the next write.  Framing on the wire is unchanged
#: (concatenated length-prefixed frames), so receivers need no batching
#: awareness.
MAX_BATCH_BYTES = 256 * 1024

#: The live backend's time origin: 2026-01-01T00:00:00Z as Unix seconds.
#: ``now`` is measured from this *shared* wall-clock epoch — not from
#: process start — so independently started processes of one deployment
#: (``repro-serve --dc 0`` here, ``--dc 1`` there) produce comparable
#: timestamps; a per-process epoch would skew their clocks by the boot
#: gap, far beyond the modeled clock offsets.  Per-node strict
#: monotonicity is enforced by :class:`~repro.clocks.physical.
#: PhysicalClock` on top, so small OS clock slews stay harmless.
LIVE_EPOCH_UNIX_S = 1_767_225_600


class TransportError(ReproError):
    """Raised on address-book or connection misuse."""


class AddressBook:
    """Address → ``(host, port)`` for every endpoint of one deployment.

    Port assignment is deterministic: servers take ``base_port + i`` in
    :meth:`Topology.all_servers` order, clients the ports after them —
    so independently started processes sharing the same config file agree
    on the whole map without coordination.  ``base_port=0`` assigns
    ephemeral ports instead (single-process deployments only: the actual
    port is recorded when the listener binds).
    """

    def __init__(self) -> None:
        self._entries: dict[Address, tuple[str, int]] = {}

    @classmethod
    def for_topology(
        cls,
        topology: Topology,
        clients_per_partition: int = 0,
        host: str = "127.0.0.1",
        base_port: int = 7400,
    ) -> "AddressBook":
        book = cls()
        port = base_port
        for address in topology.all_servers():
            book.set(address, host, port if base_port else 0)
            if base_port:
                port += 1
        for dc in range(topology.num_dcs):
            for partition in range(topology.num_partitions):
                for index in range(clients_per_partition):
                    address = topology.client(dc, partition, index)
                    book.set(address, host, port if base_port else 0)
                    if base_port:
                        port += 1
        # The reshard driver's well-known endpoint takes the next slot:
        # every process derives it, so servers can dial ViewAck /
        # MigrateDone replies without the driver being configured in.
        book.set(reshard_controller_address(), host,
                 port if base_port else 0)
        return book

    def set(self, address: Address, host: str, port: int) -> None:
        self._entries[address] = (host, port)

    def lookup(self, address: Address) -> tuple[str, int]:
        try:
            return self._entries[address]
        except KeyError:
            raise TransportError(f"no address-book entry for {address}") \
                from None


def metrics_port_map(
    topology: Topology,
    base_port: int,
    host: str = "127.0.0.1",
) -> dict[Address, tuple[str, int]]:
    """The deterministic metrics-endpoint map of one deployment.

    Mirrors :meth:`AddressBook.for_topology` port assignment: server
    ``i`` in :meth:`Topology.all_servers` order scrapes at
    ``base_port + i`` — so a process hosting several servers binds its
    one endpoint at its *first* hosted server's slot, and external
    observers (``repro-top``) derive the whole map from the shared
    config without coordination.  ``base_port=0`` maps everything to an
    ephemeral port (single-process deployments; the bound port is
    reported at startup and recorded in supervisor ``children.json``).
    """
    ports: dict[Address, tuple[str, int]] = {}
    for index, address in enumerate(topology.all_servers()):
        ports[address] = (host, base_port + index if base_port else 0)
    return ports


class LiveTimer:
    """A cancellable wall-clock timer (TimerHandle over asyncio).

    Callback exceptions are recorded in ``hub.errors``: on the sim
    backend they would crash the run visibly, so the live backend must
    not let asyncio swallow them into a log line while ``clean_shutdown``
    stays true (a dead periodic tick never reschedules itself).
    """

    __slots__ = ("_hub", "_fn", "_args", "_handle", "_fired")

    def __init__(self, hub: "LiveHub", delay: float, fn, args: tuple):
        self._hub = hub
        self._fn = fn
        self._args = args
        self._fired = False
        loop = hub._loop or hub.loop
        # Zero delay (the closed-loop driver's next issue) skips the heap.
        self._handle = (loop.call_later(delay, self._fire) if delay > 0
                        else loop.call_soon(self._fire))

    def _fire(self) -> None:
        self._fired = True
        try:
            self._fn(*self._args)
        except Exception as exc:
            name = getattr(self._fn, "__qualname__", self._fn)
            self._hub.errors.append(f"timer callback {name!r} failed: {exc!r}")

    def cancel(self) -> bool:
        if self._fired or self._handle.cancelled():
            return False
        self._handle.cancel()
        return True

    @property
    def active(self) -> bool:
        return not self._fired and not self._handle.cancelled()


class LiveStats:
    """Transfer accounting for one hub (frame bytes, not modeled bytes)."""

    __slots__ = ("messages_sent", "messages_delivered", "bytes_sent",
                 "decode_errors", "messages_dropped", "reconnects",
                 "truncated_streams", "batches_sent", "batched_frames",
                 "max_batch_frames", "connect_attempts", "chaos_dropped",
                 "chaos_delayed", "retired_frames")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        self.decode_errors = 0
        #: Frames discarded because their destination's channel died with
        #: them still pending (the peer stayed down past the retry budget).
        self.messages_dropped = 0
        #: Channels re-dialed after their connection died — a crashed peer
        #: coming back (kill/restart recovery) shows up here.
        self.reconnects = 0
        #: Inbound connections that ended mid-frame (peer killed between
        #: frames' bytes).  Distinguished from decode_errors: a torn tail
        #: is an abrupt disconnect, not stream corruption.
        self.truncated_streams = 0
        #: Writes handed to transports (each carries >= 1 frame);
        #: ``messages_sent / batches_sent`` is the mean coalescing factor.
        self.batches_sent = 0
        #: Frames that shared their write with at least one other frame.
        self.batched_frames = 0
        self.max_batch_frames = 0
        #: Dial attempts (successful or not); minus the number of
        #: channels ever opened, this is how much retrying happened.
        self.connect_attempts = 0
        #: Frames dropped / delayed by injected link faults.
        self.chaos_dropped = 0
        self.chaos_delayed = 0
        #: Frames discarded because their destination was retired (a
        #: peer resharded out of the cluster and shut down for good).
        self.retired_frames = 0


class _Channel(asyncio.Protocol):
    """The one ordered connection from this process to a destination.

    Frames wait in ``pending`` for the hub's per-tick flush; while the
    channel is still dialing or the socket is backed up they keep
    waiting, in post order, and go out from ``connection_made`` /
    ``resume_writing``.  Once its connection is gone a channel is
    ``dead`` and the hub dials a fresh one on the next post.
    """

    __slots__ = ("hub", "dst", "pending", "transport", "paused", "dead",
                 "dialer")

    def __init__(self, hub: "LiveHub", dst: Address):
        self.hub = hub
        self.dst = dst
        self.pending: list[bytes] = []
        self.transport: asyncio.Transport | None = None
        self.paused = False
        self.dead = False
        self.dialer = hub.loop.create_task(self._dial())

    async def _dial(self) -> None:
        """Connect, retrying per the hub's policy until its budget ends."""
        hub, loop = self.hub, self.hub.loop
        policy = hub.connect_policy
        rng = random.Random()
        deadline = loop.time() + policy.max_elapsed_s
        delay = policy.initial_delay_s
        try:
            while True:
                # Re-resolve each attempt: an ephemeral-port peer records
                # its real port only once its listener has bound.
                host, port = hub.book.lookup(self.dst)
                if port != 0:
                    hub.stats.connect_attempts += 1
                    try:
                        await loop.create_connection(lambda: self, host, port)
                        return
                    except OSError:
                        pass
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                pause = policy.jittered(delay, rng)
                await asyncio.sleep(min(pause, remaining))
                delay = policy.next_delay(delay)
            self._abandon(f"could not connect to {self.dst} at {host}:{port}")
        except Exception as exc:  # e.g. no address-book entry
            self._abandon(f"sender to {self.dst} failed: {exc!r}")

    def _abandon(self, error: str | None) -> None:
        """Nothing more will be written here: what is still pending is
        counted dropped, once; ``error`` is None for the hub's own doing."""
        if self.dead:
            return
        self.dead = True
        self.hub.stats.messages_dropped += len(self.pending)
        self.pending.clear()
        if error is not None:
            self.hub.errors.append(error)

    def close(self) -> None:
        """Tear the channel down (hub shutdown, retirement)."""
        self._abandon(None)
        self.dialer.cancel()
        if self.transport is not None:
            self.transport.close()

    def busy(self) -> bool:
        """True while a posted frame has not reached the socket."""
        return bool(self.pending or (
            self.transport and self.transport.get_write_buffer_size()))

    def connection_made(self, transport) -> None:
        if self.dead:  # closed while the dial was completing
            transport.abort()
            return
        self.transport = transport
        self.flush()

    def connection_lost(self, exc: Exception | None) -> None:
        # A clean close is what a peer's graceful shutdown looks like
        # from here; only a reset or a failed write is an error.
        self._abandon(None if exc is None
                      else f"sender to {self.dst} failed: {exc!r}")

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()

    def flush(self) -> None:
        """Hand pending frames to the transport, in writes of at most
        ``MAX_BATCH_BYTES`` (a bigger frame goes alone), until it pauses."""
        transport, frames, stats = self.transport, self.pending, self.hub.stats
        if transport is None:
            return
        start, total = 0, len(frames)
        while start < total and not self.paused:
            size = len(frames[start])
            end = start + 1
            while end < total:
                size += len(frames[end])
                if size > MAX_BATCH_BYTES:
                    break
                end += 1
            count = end - start
            if count == 1:
                transport.write(frames[start])
            else:
                # One write per batch: the selector transport joins the
                # list in C (3.12+ hands it to sendmsg unjoined).
                transport.writelines(frames[start:end])
                stats.batched_frames += count
                if count > stats.max_batch_frames:
                    stats.max_batch_frames = count
            stats.batches_sent += 1
            start = end
        del frames[:start]


class LiveHub:
    """Per-process live-backend state: epoch, loop, connections, errors."""

    def __init__(self, book: AddressBook):
        self.book = book
        self.stats = LiveStats()
        #: Outgoing-connection retry behavior (chaos runs tighten it).
        self.connect_policy = ConnectRetryPolicy()
        #: Chaos hooks: directed (src DC, dst DC) -> LinkFault.  Applied
        #: by every LiveRuntime of this process on its outbound frames.
        self._link_faults: dict[tuple[int, int], LinkFault] = {}
        #: Fatal transport problems (connect exhaustion, writer crashes);
        #: a clean shutdown requires this to stay empty.
        self.errors: list[str] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        # Anchor the epoch once against the wall clock, then advance on
        # the monotonic clock: cross-process alignment comes from the
        # anchor, while NTP steps can never make `now` regress (the
        # TimeSource contract every rt.now consumer relies on).
        self._mono_anchor = (time.time() - LIVE_EPOCH_UNIX_S
                             - time.monotonic())
        #: dst -> the per-destination channel.
        self._channels: dict[Address, _Channel] = {}
        #: Channels that got their first pending frame this tick.
        self._dirty: list[_Channel] = []
        #: Destinations retired for good (peer resharded out and shut
        #: down): frames to them are silently discarded instead of
        #: burning a connect-retry budget — and recording a transport
        #: error — per background tick, forever.
        self._retired: set[Address] = set()
        self._runtimes: list["LiveRuntime"] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since :data:`LIVE_EPOCH_UNIX_S` (the backend's time
        axis, shared by every process of a deployment), monotonic within
        this process."""
        return time.monotonic() + self._mono_anchor

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def runtime(self, address: Address) -> "LiveRuntime":
        """Create the runtime adapter for one endpoint of this process."""
        runtime = LiveRuntime(self, address)
        self._runtimes.append(runtime)
        return runtime

    async def start(self) -> None:
        """Bind every endpoint's listener (ephemeral ports get recorded)."""
        for runtime in self._runtimes:
            await runtime.start()

    # ------------------------------------------------------------------
    # Link faults (chaos)
    # ------------------------------------------------------------------
    def set_link_fault(
        self, src_dc: int, dst_dc: int, *,
        delay_s: float = 0.0, drop_rate: float = 0.0,
        seed: int | None = None,
    ) -> LinkFault:
        """Install delay/drop chaos on frames ``src_dc`` -> ``dst_dc``
        sent by this process's endpoints; returns the fault for its
        counters."""
        fault = LinkFault(delay_s=delay_s, drop_rate=drop_rate, seed=seed)
        self._link_faults[(src_dc, dst_dc)] = fault
        return fault

    def clear_link_fault(self, src_dc: int, dst_dc: int) -> None:
        self._link_faults.pop((src_dc, dst_dc), None)

    def link_fault(self, src_dc: int, dst_dc: int) -> LinkFault | None:
        """The fault on one directed channel (fast None when no chaos)."""
        if not self._link_faults:
            return None
        return self._link_faults.get((src_dc, dst_dc))

    # ------------------------------------------------------------------
    # Outgoing frames
    # ------------------------------------------------------------------
    def retire(self, dst: Address) -> None:
        """Stop delivering to ``dst`` permanently.

        Called when a peer was resharded out of the cluster and its
        process stopped: its channel (if any) is torn down and every
        future frame to it is counted in ``stats.retired_frames`` and
        discarded — no re-dial, no retry budget, no transport error.
        Background fan-outs (heartbeats, GC broadcasts, view gossip)
        keep addressing the full topology; retirement is what keeps
        them from dialing a grave once per tick.
        """
        self._retired.add(dst)
        channel = self._channels.pop(dst, None)
        if channel is not None:
            channel.close()

    def unretire(self, dst: Address) -> None:
        """Allow delivery to ``dst`` again (it rejoined the cluster)."""
        self._retired.discard(dst)

    def is_retired(self, dst: Address) -> bool:
        return dst in self._retired

    def post_frame(self, dst: Address, frame: bytes) -> None:
        """Queue one pre-encoded frame (fan-outs encode the frame once).

        The first frame of a tick arms one ``_flush`` for the next, so
        everything posted to a destination within a tick shares a write.
        """
        if self._closed:
            return
        if self._retired and dst in self._retired:
            self.stats.retired_frames += 1
            return
        channel = self._channels.get(dst)
        if channel is not None and channel.dead:
            # The connection to this peer died (its undelivered frames
            # are already counted dropped).  Dial fresh: a crashed peer
            # that restarted from its WAL must be reachable again, and
            # the new dial's retry budget bounds how long a still-dead
            # peer can accumulate pending frames.
            self.stats.reconnects += 1
            channel = None
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(frame)
        if channel is None:
            channel = self._channels[dst] = _Channel(self, dst)
        pending = channel.pending
        if not pending:
            if not self._dirty:
                self.loop.call_soon(self._flush)
            self._dirty.append(channel)
        pending.append(frame)

    def _flush(self) -> None:
        """The per-tick write; a channel that cannot write yet keeps its
        frames and flushes itself once connected / resumed."""
        dirty, self._dirty = self._dirty, []
        for channel in dirty:
            channel.flush()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self, timeout_s: float = 10.0) -> None:
        """Wait until every posted outgoing frame has reached its socket.

        Channel by channel: nothing pending and an empty transport write
        buffer, so close() cannot cut a frame short after a clean drain.
        Bounded, skips dead channels (their failure is already in
        :attr:`errors`), and polls: this is a shutdown path.
        """
        deadline = self.loop.time() + timeout_s
        for dst, channel in list(self._channels.items()):
            while not channel.dead and channel.busy():
                if self.loop.time() >= deadline:
                    self.errors.append(f"drain timeout: {len(channel.pending)}"
                                       f" frame(s) still pending for {dst}")
                    return
                await asyncio.sleep(0.001)

    async def close(self) -> None:
        """Stop channels and listeners; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        for channel in self._channels.values():
            channel.close()
        await asyncio.gather(*(c.dialer for c in self._channels.values()),
                             return_exceptions=True)
        for runtime in self._runtimes:
            await runtime.close()

    @property
    def clean(self) -> bool:
        """True while no transport/dispatch error has been recorded."""
        return not self.errors


class _Inbound(asyncio.Protocol):
    """One accepted connection: socket bytes -> frames -> the core."""

    __slots__ = ("runtime", "decoder", "transport", "closing")

    def __init__(self, runtime: "LiveRuntime"):
        self.runtime = runtime
        self.decoder = codec.FrameDecoder()
        self.transport: asyncio.Transport | None = None
        self.closing = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.runtime._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        runtime, hub = self.runtime, self.runtime.hub
        try:
            for msg in self.decoder.feed(data):
                hub.stats.messages_delivered += 1
                runtime.core.on_message(msg)
        except codec.CodecError as exc:
            hub.stats.decode_errors += 1
            hub.errors.append(f"{runtime.address}: {exc}")
            self.close()
        except Exception as exc:
            hub.errors.append(f"{runtime.address}: handler failed: {exc!r}")
            self.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.runtime._inbound.discard(self)
        if not self.closing and self.decoder.pending_bytes:
            # The peer vanished mid-frame (SIGKILL, cut cable): the whole
            # frames before it were already dispatched, and the torn tail
            # is an abrupt disconnect to count, not corruption to die on.
            self.runtime.hub.stats.truncated_streams += 1

    def close(self) -> None:
        self.closing = True
        self.transport.close()


class LiveRuntime:
    """ProtocolRuntime over asyncio TCP: one endpoint of a live cluster.

    Durability barrier: under WAL group commit with ``fsync: always``
    (:mod:`repro.persistence`), a version handed to :meth:`persist` is
    *buffered* until the end of the event-loop tick and made durable by
    one batched write+fsync.  The persist-before-ack contract of the
    protocol cores must survive that deferral, so every frame this
    endpoint sends after an un-synced persist — the acknowledgement the
    core emits right after persisting, and anything behind it in the
    endpoint's FIFO — is *held* here and released to the hub only by the
    covering batch's post-sync callback.  Held frames are tagged with the
    batch they wait for, and batches complete in order, so release is a
    prefix pop.  Endpoints that never persist (clients, ``fsync:
    interval/off``) pay one dict miss per send.
    """

    #: Observability hooks (class defaults: off).  The cluster boot sets
    #: instance attributes when :class:`repro.common.config.
    #: TelemetryConfig` enables them: ``telemetry`` is the process's
    #: :class:`repro.obs.telemetry.Telemetry` registry (protocol cores
    #: cache it at bind time for per-message counters), ``trace`` the
    #: process's :class:`repro.obs.tracing.TraceLog` (this adapter emits
    #: the ``wal_synced`` span; cores emit the rest).  ``None`` keeps
    #: both paths one attribute check — the byte-identity guarantee.
    telemetry = None
    trace = None

    def __init__(self, hub: LiveHub, address: Address):
        self.hub = hub
        self._address = address
        self.core = None
        #: The endpoint's durability sink (a
        #: :class:`repro.persistence.manager.PartitionDurability`), set
        #: by the cluster boot for persistent partition servers; None
        #: keeps ``persist`` a no-op (clients, ephemeral deployments).
        self.durability = None
        self._server: asyncio.AbstractServer | None = None
        self._inbound: set[_Inbound] = set()
        #: (required batch id, dst, frame, kind) awaiting a group-commit
        #: sync (kind is the message-type name, for per-type chaos drop
        #: accounting at the eventual post).
        self._held: deque[tuple[int, Address, bytes, str]] = deque()
        #: (required batch id, sr, ut) of sampled traced writes whose
        #: ``wal_synced`` span awaits the covering group-commit sync.
        self._trace_pending: deque[tuple[int, int, int]] = deque()
        self._wait_batch = 0      # newest batch a persist() must wait for
        self._durable_batch = 0   # newest batch known synced
        #: Per-destination floor for chaos-delayed releases: strictly
        #: increasing release times keep the channel FIFO through the
        #: timer heap (equal deadlines have no order guarantee there).
        self._release_floor: dict[Address, float] = {}

    def bind(self, core) -> None:
        if self.core is not None:
            raise TransportError(
                f"{self._address}: adapter already bound to {self.core!r}"
            )
        self.core = core

    # ------------------------------------------------------------------
    # Listener
    # ------------------------------------------------------------------
    async def start(self) -> None:
        host, port = self.hub.book.lookup(self._address)
        self._server = await self.hub.loop.create_server(
            lambda: _Inbound(self), host=host, port=port
        )
        if port == 0:  # record the ephemeral port for later dialers
            bound = self._server.sockets[0].getsockname()[1]
            self.hub.book.set(self._address, host, bound)

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        for connection in list(self._inbound):
            connection.close()
        await self._server.wait_closed()
        self._server = None

    # ------------------------------------------------------------------
    # ProtocolRuntime: identity and time
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return self._address

    @property
    def now(self) -> float:
        return self.hub.now

    # ------------------------------------------------------------------
    # ProtocolRuntime: timers
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn, *args) -> LiveTimer:
        return LiveTimer(self.hub, delay, fn, args)

    def schedule_at(self, time_s: float, fn, *args) -> LiveTimer:
        return LiveTimer(self.hub, time_s - self.hub.now, fn, args)

    #: Flush deadlines (replication batcher) are loop timers like any
    #: other; the policy's cancel-on-threshold keeps them one-shot.
    schedule_flush = schedule

    # ------------------------------------------------------------------
    # ProtocolRuntime: sends
    # ------------------------------------------------------------------
    def send(self, dst: Address, msg: Any, size: int | None = None) -> None:
        self._post_frame(dst, codec.encode_frame(msg),
                         type(msg).__name__)

    def send_fanout(self, dsts: Iterable[Address], msg: Any) -> None:
        # Same discipline as the sim adapter: serialize the immutable
        # payload once, not once per peer.
        frame = codec.encode_frame(msg)
        kind = type(msg).__name__
        for dst in dsts:
            self._post_frame(dst, frame, kind)

    def _post_frame(self, dst: Address, frame: bytes,
                    kind: str = "") -> None:
        """Hand a frame to the hub — or hold it behind a pending sync.

        Holding *everything* sent while a batch is un-synced (not just
        the frames causally after the persist) keeps the endpoint's
        per-destination FIFO intact: a GET reply overtaking a held PUT
        acknowledgement to the same client would reorder the channel.
        """
        if self._wait_batch > self._durable_batch:
            self._held.append((self._wait_batch, dst, frame, kind))
        else:
            self._hub_post(dst, frame, kind)

    def _hub_post(self, dst: Address, frame: bytes,
                  kind: str = "") -> None:
        """The chaos choke point: every frame this endpoint hands to the
        hub — immediate sends and group-commit releases alike — passes
        the channel's :class:`LinkFault` (if any) first."""
        fault = self.hub.link_fault(self._address.dc, dst.dc)
        if fault is None:
            self.hub.post_frame(dst, frame)
            return
        if fault.drop_rate > 0 and fault.rng.random() < fault.drop_rate:
            fault.dropped += 1
            if kind:
                by_type = fault.dropped_by_type
                by_type[kind] = by_type.get(kind, 0) + 1
            self.hub.stats.chaos_dropped += 1
            return
        if fault.delay_s <= 0:
            self.hub.post_frame(dst, frame)
            return
        fault.delayed += 1
        self.hub.stats.chaos_delayed += 1
        loop = self.hub.loop
        release = loop.time() + fault.delay_s
        floor = self._release_floor.get(dst)
        if floor is not None and release <= floor:
            release = floor + 1e-6
        self._release_floor[dst] = release
        loop.call_at(release, self.hub.post_frame, dst, frame)

    def message_size(self, msg: Any) -> int:
        return modeled_message_size(msg)

    # ------------------------------------------------------------------
    # ProtocolRuntime: local work (real CPUs charge themselves)
    # ------------------------------------------------------------------
    def submit(self, cost_s: float, fn, *args,
               priority: int = FOREGROUND) -> None:
        fn(*args)

    # ------------------------------------------------------------------
    # ProtocolRuntime: durability.  The append happens before this
    # returns (so the log write precedes the acknowledgement in program
    # order); under group commit the *sync* is deferred to the end of
    # the tick, and the acknowledgement frames are held with it.
    # ------------------------------------------------------------------
    def persist(self, version: Any) -> None:
        durability = self.durability
        if durability is None:
            return
        batch = durability.append_version(version)
        trace = self.trace
        if trace is not None and trace.sampled(version.ut):
            # The ``wal_synced`` span: under group commit it belongs to
            # the covering batch's post-sync callback; other fsync
            # policies count the append as "as durable as promised".
            if batch is None:
                trace.span("wal_synced", version.sr, version.ut,
                           node=self._node_label())
            else:
                self._trace_pending.append((batch, version.sr,
                                            version.ut))
        if batch is not None and batch != self._wait_batch:
            # First persist into this batch from this endpoint: register
            # exactly one release callback for it.
            self._wait_batch = batch
            durability.notify_durable(self._on_batch_durable)

    def persist_view(self, epoch: int, members, vnodes: int) -> None:
        """WAL-log a committed cluster view (elastic membership).

        Rides the open group-commit batch like version persists, so the
        view record's durability ordering matches the versions of its
        tick.  No frame holding is needed beyond what those versions
        already impose — adopting a view sends no acknowledgement whose
        loss could strand state.
        """
        durability = self.durability
        if durability is not None:
            durability.append_view(epoch, members, vnodes)

    def retire_peer(self, dst: Address) -> None:
        """Membership hook: stop dialing a peer that left for good."""
        self.hub.retire(dst)

    def _on_batch_durable(self, batch_id: int) -> None:
        """Group-commit sync completed: release the frames it covered."""
        if batch_id > self._durable_batch:
            self._durable_batch = batch_id
        pending = self._trace_pending
        if pending:
            trace, node = self.trace, self._node_label()
            while pending and pending[0][0] <= batch_id:
                _, sr, ut = pending.popleft()
                if trace is not None:
                    trace.span("wal_synced", sr, ut, node=node)
        held = self._held
        post = self._hub_post
        while held and held[0][0] <= batch_id:
            _, dst, frame, kind = held.popleft()
            post(dst, frame, kind)

    def _node_label(self) -> str:
        address = self._address
        return f"dc{address.dc}-p{address.partition}"
