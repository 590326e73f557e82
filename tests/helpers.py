"""Shared test utilities: tiny clusters and synchronous-looking op drivers."""

from __future__ import annotations

import asyncio
import socket
from dataclasses import replace
from typing import Any

from repro.common.config import (
    ClockConfig,
    ClusterConfig,
    ExperimentConfig,
    WorkloadConfig,
)
from repro.common.types import server_address
from repro.harness.builders import BuiltCluster, build_cluster
from repro.runtime.transport import AddressBook, LiveHub


def make_cluster(
    protocol: str = "pocc",
    num_dcs: int = 3,
    num_partitions: int = 2,
    keys_per_partition: int = 50,
    clients_per_partition: int = 1,
    seed: int = 7,
    verify: bool = False,
    zero_skew: bool = False,
    cluster_overrides: dict[str, Any] | None = None,
) -> BuiltCluster:
    """A small deployment with manually drivable clients.

    Drivers are *not* started: tests issue operations directly on
    ``built.clients`` and advance ``built.sim`` themselves.
    """
    clocks = ClockConfig(max_offset_us=0, max_drift_ppm=0.0) if zero_skew \
        else ClockConfig()
    cluster = ClusterConfig(
        num_dcs=num_dcs,
        num_partitions=num_partitions,
        keys_per_partition=keys_per_partition,
        protocol=protocol,
        clocks=clocks,
    )
    if cluster_overrides:
        cluster = replace(cluster, **cluster_overrides)
    config = ExperimentConfig(
        cluster=cluster,
        workload=WorkloadConfig(
            clients_per_partition=clients_per_partition,
        ),
        warmup_s=0.0,
        duration_s=1.0,
        seed=seed,
        verify=verify,
    )
    return build_cluster(config)


class OpResult:
    """Captures one operation's completion."""

    def __init__(self) -> None:
        self.reply = None
        self.done = False

    def __call__(self, reply) -> None:
        self.reply = reply
        self.done = True


def run_op(built: BuiltCluster, issue, timeout_s: float = 5.0):
    """Issue one operation and run the simulator until it completes.

    ``issue`` is called with a completion callback; returns the reply.
    Raises AssertionError if the op does not complete within ``timeout_s``
    of simulated time (e.g. blocked forever by a partition).
    """
    result = OpResult()
    issue(result)
    deadline = built.sim.now + timeout_s
    # Step in small increments so we stop soon after completion.
    while not result.done and built.sim.now < deadline:
        built.sim.run(until=min(built.sim.now + 0.01, deadline))
    assert result.done, "operation did not complete within the timeout"
    return result.reply


def get(built: BuiltCluster, client, key: str, timeout_s: float = 5.0):
    return run_op(built, lambda cb: client.get(key, cb), timeout_s)


def put(built: BuiltCluster, client, key: str, value,
        timeout_s: float = 5.0):
    return run_op(built, lambda cb: client.put(key, value, cb), timeout_s)


def ro_tx(built: BuiltCluster, client, keys, timeout_s: float = 5.0):
    return run_op(built, lambda cb: client.ro_tx(keys, cb), timeout_s)


def client_at(built: BuiltCluster, dc: int, partition: int = 0, index: int = 0):
    """The client collocated with server (dc, partition)."""
    for client in built.clients:
        address = client.address
        if (address.dc, address.partition, address.index) == (
            dc, partition, index
        ):
            return client
    raise AssertionError(f"no client at dc={dc} partition={partition}")


def key_on_partition(built: BuiltCluster, partition: int, rank: int = 0) -> str:
    """A workload key that hashes to the given partition."""
    return built.pools.key(partition, rank)


def settle(built: BuiltCluster, seconds: float = 1.0) -> None:
    """Advance simulated time (replication / heartbeats / stabilization)."""
    built.sim.run(until=built.sim.now + seconds)


# ----------------------------------------------------------------------
# Live transport: a hub against a raw loopback listener
# ----------------------------------------------------------------------
async def until(predicate, timeout_s: float = 10.0) -> None:
    """Poll ``predicate`` on the running loop until it holds."""
    async def poll() -> None:
        while not predicate():
            await asyncio.sleep(0.005)
    await asyncio.wait_for(poll(), timeout=timeout_s)


class Sink(asyncio.Protocol):
    """A raw TCP listener: records every socket read, can stall reading."""

    def __init__(self, link: "Loopback"):
        self.link = link

    def connection_made(self, transport) -> None:
        self.link.connections.append(transport)
        if self.link.stalled:
            transport.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.link.reads.append(data)


class Loopback:
    """A live hub whose one destination is a :class:`Sink` on 127.0.0.1.

    Transport tests observe behaviour through it: what the listener
    received, and the hub's public counters.
    """

    DST = server_address(0, 0)

    def __init__(self, stalled: bool = False, rcvbuf_bytes: int = 0):
        self.book = AddressBook()
        self.book.set(self.DST, "127.0.0.1", 0)
        self.hub = LiveHub(self.book)
        self.reads: list[bytes] = []
        self.connections: list[asyncio.Transport] = []
        self.stalled = stalled
        #: ``SO_RCVBUF`` of the listening socket (0 = kernel default).
        #: Set before ``listen()``, so accepted sockets inherit it and
        #: advertise a window no larger than it.
        self.rcvbuf_bytes = rcvbuf_bytes
        self._server = None

    async def listen(self) -> None:
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if self.rcvbuf_bytes:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                            self.rcvbuf_bytes)
        sock.bind(("127.0.0.1", 0))
        self._server = await loop.create_server(
            lambda: Sink(self), sock=sock)
        port = self._server.sockets[0].getsockname()[1]
        self.book.set(self.DST, "127.0.0.1", port)

    @property
    def received(self) -> bytes:
        return b"".join(self.reads)

    async def until_received(self, size: int) -> None:
        await until(lambda: sum(map(len, self.reads)) >= size)

    async def close(self) -> None:
        await self.hub.close()
        for connection in self.connections:
            connection.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
