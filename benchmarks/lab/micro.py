"""Isolated micro-benches: one layer at a time, seeded fixed inputs.

Each bench is a function returning ``{metric name: value}``; a value is
the median over :data:`BATCHES` batches of (batch time / units of work).
Inputs are built outside the timed region from a fixed seed, results are
consumed inside it.  The numbers sit beside the traced run's in-situ
``budget.*`` rows so that isolated and in-situ costs can be reconciled;
they are per-layer metrics and carry no bound.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
import time
from statistics import median
from typing import Callable

from .live import OUT_DIR
from .stats import percentile

BATCHES = 5
SEED = 20170605


def _us_per_unit(batch: Callable[..., int], prepare=None) -> float:
    """Median µs per unit of work over :data:`BATCHES` batches.

    ``batch`` does the work and returns how many units it did; with
    ``prepare`` each batch first gets fresh inputs built outside the
    timed region (``batch(prepare())``)."""
    samples = []
    for _ in range(BATCHES):
        args = () if prepare is None else (prepare(),)
        started = time.perf_counter()
        units = batch(*args)
        samples.append((time.perf_counter() - started) / units * 1e6)
    return median(samples)


# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------
def _topology(dcs: int = 2, partitions: int = 2):
    from repro.cluster.topology import KeyPools, Topology
    topology = Topology(dcs, partitions)
    return topology, KeyPools(topology, 1000)


def frame_mix(count: int = 400) -> list:
    """Messages in the proportions ``mixed_sat`` puts on the wire: per
    100 ops 85 GET and 5 PUT round trips (each PUT also one Replicate),
    10 RO-TXs (request, one remote slice round trip, reply), and the
    idle-partition heartbeats in between."""
    from repro.protocols import messages as m
    from repro.storage.version import Version
    rng = random.Random(SEED)
    topology, pools = _topology()
    client = topology.client(0, 0, 0)
    server = topology.server(0, 1)

    def vec():
        base = rng.randrange(10**15, 2 * 10**15)
        return [base + rng.randrange(1000) for _ in range(2)]

    def key():
        return pools.key(rng.randrange(2), rng.randrange(1000))

    def reply():
        return m.GetReply(key=key(), value=("c", rng.randrange(10**6)),
                          ut=vec()[0], dv=tuple(vec()), sr=rng.randrange(2),
                          op_id=0)

    makers = (
        (85, lambda: m.GetReq(key=key(), rdv=vec(), client=client,
                              op_id=rng.randrange(10**6))),
        (85, reply),
        (5, lambda: m.PutReq(key=key(), value=("c", rng.randrange(10**6)),
                             dv=vec(), client=client, op_id=7)),
        (5, lambda: m.PutReply(ut=vec()[0], op_id=7)),
        (5, lambda: m.Replicate(version=Version(
            key=key(), value=("c", 1), sr=0, ut=vec()[0], dv=vec()))),
        (10, lambda: m.RoTxReq(keys=(key(), key()), rdv=vec(),
                               client=client, op_id=9)),
        (10, lambda: m.SliceReq(keys=(key(),), tv=vec(), coordinator=server,
                                tx_id=rng.randrange(10**6))),
        (10, lambda: m.SliceResp(versions=[reply()], tx_id=3)),
        (10, lambda: m.RoTxReply(versions=[reply(), reply()], op_id=9)),
        (20, lambda: m.Heartbeat(ts=vec()[0], src_dc=rng.randrange(2))),
    )
    weights = [w for w, _ in makers]
    return [rng.choices(makers, weights)[0][1]() for _ in range(count)]


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def bench_codec() -> dict:
    from repro.runtime import codec
    messages = frame_mix()
    frames = [codec.encode_frame(msg) for msg in messages]
    payloads = [frame[4:] for frame in frames]
    stream = b"".join(frames) * 4
    chunks = [stream[i:i + 65536] for i in range(0, len(stream), 65536)]

    def encode() -> int:
        for msg in messages:       # distinct objects: the memo never hits
            codec.encode_frame(msg)
        return len(messages)

    def decode() -> int:
        for payload in payloads:
            codec.loads(payload)
        return len(payloads)

    def feed() -> int:
        decoder = codec.FrameDecoder()
        done = 0
        for chunk in chunks:
            done += len(decoder.feed(chunk))
        return done

    return {
        "codec.encode_us": _us_per_unit(encode),
        "codec.decode_us": _us_per_unit(decode),
        "codec.feed_us": _us_per_unit(feed),
        "codec.bytes_per_frame": sum(map(len, frames)) / len(frames),
    }


# ----------------------------------------------------------------------
# transport: two LiveRuntimes on one LiveHub over loopback TCP
# ----------------------------------------------------------------------
class _Endpoint:
    """A stub core: counts deliveries, optionally echoes them back."""

    def __init__(self, runtime, echo_to=None) -> None:
        self.runtime = runtime
        self.echo_to = echo_to
        self.received = 0
        self.waiter: asyncio.Future | None = None
        self.target = 0
        runtime.bind(self)

    def on_message(self, msg) -> None:
        self.received += 1
        if self.echo_to is not None:
            self.runtime.send(self.echo_to, msg)
        if self.waiter is not None and self.received >= self.target:
            self.waiter.set_result(None)
            self.waiter = None

    def until(self, count: int) -> asyncio.Future:
        self.target = self.received + count
        self.waiter = asyncio.get_running_loop().create_future()
        return self.waiter


async def _transport() -> dict:
    from repro.protocols import messages as m
    from repro.runtime.transport import AddressBook, LiveHub
    topology, _ = _topology()
    a, b = topology.server(0, 0), topology.server(1, 0)
    book = AddressBook()
    book.set(a, "127.0.0.1", 0)
    book.set(b, "127.0.0.1", 0)
    hub = LiveHub(book)
    near = _Endpoint(hub.runtime(a))
    far = _Endpoint(hub.runtime(b))
    await hub.start()
    burst = [m.Heartbeat(ts=10**15 + i, src_dc=0) for i in range(2000)]
    try:
        oneway = []
        sent0, writes0 = hub.stats.messages_sent, hub.stats.batches_sent
        for _ in range(BATCHES + 1):       # first batch dials the channel
            done = far.until(len(burst))
            started = time.perf_counter()
            for msg in burst:
                near.runtime.send(b, msg)
            await done
            oneway.append((time.perf_counter() - started) / len(burst) * 1e6)
        frames_per_write = ((hub.stats.messages_sent - sent0)
                            / (hub.stats.batches_sent - writes0))
        far.echo_to = a
        trips = []
        for i in range(400):
            done = near.until(1)
            started = time.perf_counter()
            near.runtime.send(b, burst[i])
            await done
            trips.append((time.perf_counter() - started) * 1e6)
    finally:
        await hub.close()
    if hub.errors:
        raise RuntimeError(f"transport micro-bench: {hub.errors}")
    return {
        "transport.oneway_us": median(oneway[1:]),
        "transport.rtt_p50_us": percentile(trips[50:], 50),
        "transport.burst_frames_per_write": frames_per_write,
    }


def bench_transport() -> dict:
    return asyncio.run(_transport())


# ----------------------------------------------------------------------
# protocols: a real server core on a stub ProtocolRuntime
# ----------------------------------------------------------------------
class _Timer:
    active = True

    def cancel(self) -> bool:
        return True


class StubRuntime:
    """Collects sends and timers in lists; ``submit`` runs inline."""

    def __init__(self, address) -> None:
        self._address = address
        self.sent: list = []
        self.timers: list = []

    address = property(lambda self: self._address)
    now = property(lambda self: time.monotonic())

    def bind(self, core) -> None:
        self.core = core

    def schedule(self, delay, fn, *args):
        self.timers.append((delay, fn, args))
        return _Timer()

    schedule_at = schedule_flush = schedule

    def send(self, dst, msg, size=None) -> None:
        self.sent.append(msg)

    def send_fanout(self, dsts, msg) -> None:
        self.sent.append(msg)

    def message_size(self, msg) -> int:
        return 64

    def submit(self, cost_s, fn, *args, priority=0) -> None:
        fn(*args)

    def persist(self, version) -> None:
        pass


def _server(protocol: str, partition: int = 1):
    from repro.clocks.physical import PhysicalClock
    from repro.common.config import ClusterConfig
    from repro.metrics.collectors import MetricsRegistry
    from repro.protocols.registry import server_class
    topology, pools = _topology()
    runtime = StubRuntime(topology.server(0, partition))
    config = ClusterConfig(num_dcs=2, num_partitions=2, protocol=protocol)
    server = server_class(protocol)(runtime, PhysicalClock(runtime),
                                    topology, config, MetricsRegistry())
    keys = list(pools.pool(partition))
    server.store.preload(keys, num_dcs=2)
    return server, runtime, topology, keys


def bench_protocols() -> dict:
    from repro.protocols import messages as m
    from repro.storage.version import Version
    out = {}
    count = 1000
    for protocol in ("pocc", "cure"):
        server, runtime, topology, keys = _server(protocol)
        client = topology.client(0, 1, 0)
        peer = topology.server(0, 0)
        rng = random.Random(SEED)
        remote_ut = iter(range(10**6, 10**9))

        def handle(msgs: list) -> int:
            runtime.sent.clear()
            for msg in msgs:
                server.on_message(msg)
            if not runtime.sent and not isinstance(
                    msgs[0], (m.Replicate, m.Heartbeat)):
                raise RuntimeError(f"{protocol}: no reply to {msgs[0]}")
            return len(msgs)

        zeros = [0, 0]
        # PUTs and remote installs first: the reads then run against the
        # ~11 versions per key those leave behind, not a fresh store.
        benches = {
            "put": lambda i: m.PutReq(key=rng.choice(keys), value=i,
                                      dv=zeros, client=client, op_id=i),
            "replicate": lambda i: m.Replicate(version=Version(
                key=rng.choice(keys), value=i, sr=1, ut=next(remote_ut),
                dv=(0, 0))),
            "get": lambda i: m.GetReq(key=rng.choice(keys), rdv=zeros,
                                      client=client, op_id=i),
            "slice": lambda i: m.SliceReq(
                keys=(rng.choice(keys), rng.choice(keys)), tv=zeros,
                coordinator=peer, tx_id=i),
            "heartbeat": lambda i: m.Heartbeat(ts=next(remote_ut), src_dc=1),
        }
        for op, make in benches.items():
            out[f"protocols.{protocol}.{op}_us"] = _us_per_unit(
                handle, lambda: [make(i) for i in range(count)])

    aggregator, runtime, _, _ = _server("cure", partition=0)
    vv = list(aggregator.vv)

    def stab_round() -> int:
        for _ in range(500):
            for partition in range(2):
                aggregator.on_message(m.StabPush(vv=vv, partition=partition))
        runtime.sent.clear()
        return 500

    out["protocols.cure.stab_round_us"] = _us_per_unit(stab_round)
    return out


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------
def _deep_store(depth: int = 40, keys: int = 100):
    from repro.storage.store import PartitionStore
    from repro.storage.version import Version
    store = PartitionStore()
    names = [f"k{i}" for i in range(keys)]
    store.preload(names, num_dcs=3)
    for level in range(1, depth):
        ut = level * 1000
        for name in names:
            store.insert(Version(key=name, value=level, sr=level % 3, ut=ut,
                                 dv=(ut, ut - 1, ut - 2)))
    return store, names


def bench_storage() -> dict:
    from repro.storage.store import PartitionStore
    from repro.storage.version import Version
    names = [f"k{i}" for i in range(100)]
    uts = iter(range(1, 10**9))

    def fresh_versions() -> list:
        return [Version(key=name, value=0, sr=0, ut=next(uts), dv=(0, 0))
                for _ in range(20) for name in names]

    def insert(versions: list) -> int:
        store = PartitionStore()
        for version in versions:
            store.insert(version)
        return len(versions)

    deep, deep_names = _deep_store()

    def read_head() -> int:
        for _ in range(20):
            for name in deep_names:
                deep.freshest(name)
        return 20 * len(deep_names)

    def read_deep() -> int:
        oldest = lambda version: version.ut == 0
        for name in deep_names:
            found, scanned = deep.chain(name).find_freshest(oldest)
            if scanned != 40:
                raise RuntimeError("deep chain read did not scan 40")
        return len(deep_names)

    def gc(store) -> int:
        return store.collect([10**9] * 3)

    return {
        "storage.insert_us": _us_per_unit(insert, fresh_versions),
        "storage.read_head_us": _us_per_unit(read_head),
        "storage.read_deep_us": _us_per_unit(read_deep),
        "storage.gc_us_per_version": _us_per_unit(
            gc, lambda: _deep_store()[0]),
    }


# ----------------------------------------------------------------------
# wal
# ----------------------------------------------------------------------
def bench_wal() -> dict:
    from repro.persistence.manager import recover_directory
    from repro.persistence.wal import GroupCommit, WriteAheadLog
    from repro.storage.version import Version
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="wal-micro-", dir=OUT_DIR)
    uts = iter(range(10**15, 2 * 10**15))

    def version():
        ut = next(uts)
        return Version(key=f"p0-k{ut % 100}", value=("c", ut % 997), sr=0,
                       ut=ut, dv=(ut - 5, ut - 9))

    try:
        log = WriteAheadLog(f"{scratch}/off", fsync="off")
        records = [version() for _ in range(4000)]

        def append() -> int:
            for record in records[:800]:
                log.append_version(record)
            return 800

        out = {"wal.append_us": _us_per_unit(append)}
        out["wal.bytes_per_record"] = (log.stats.bytes_appended
                                       / log.stats.records_appended)
        for record in records[800:]:
            log.append_version(record)
        appended = log.stats.records_appended
        log.close()

        started = time.perf_counter()
        recovered = recover_directory(f"{scratch}/off")
        elapsed = time.perf_counter() - started
        if recovered.wal_records != appended:
            raise RuntimeError("WAL micro-bench: recovery lost records")
        out["wal.recover_records_per_s"] = appended / elapsed

        durable = WriteAheadLog(f"{scratch}/always", fsync="always")
        syncs: list[float] = []
        durable.sync_timing = syncs.append
        group = GroupCommit(durable, schedule=lambda commit: None)
        for size in (1, 64):
            def commit() -> int:
                for _ in range(10):
                    for _ in range(size):
                        group.append(("v", version()))
                    group.commit()
                return 10 * size
            out[f"wal.commit_us_per_record.b{size}"] = _us_per_unit(commit)
        out["wal.fsync_ms"] = median(syncs) * 1e3
        durable.close()
        return out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self, address) -> None:
        self.address = address

    def on_message(self, msg) -> None:
        pass


def bench_sim() -> dict:
    from repro.cluster.cpu import CpuScheduler
    from repro.common.config import LatencyConfig
    from repro.protocols import messages as m
    from repro.sim.engine import Simulator
    from repro.sim.latency import GeoLatencyModel
    from repro.sim.network import Network

    def engine() -> int:
        sim = Simulator()
        remaining = [50_000]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(0.001, tick)

        for _ in range(5):
            sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    def network() -> int:
        sim = Simulator()
        net = Network(sim, GeoLatencyModel(LatencyConfig(),
                                           random.Random(SEED)))
        topology, _ = _topology(3, 4)
        sinks = [_Sink(address) for address in topology.all_servers()]
        for sink in sinks:
            net.register(sink)
        msg = m.Heartbeat(ts=1, src_dc=0)
        sent = 0
        for round_no in range(800):
            src = sinks[round_no % len(sinks)].address
            for sink in sinks:
                if sink.address != src:
                    net.send(src, sink.address, msg)
                    sent += 1
        sim.run()
        if net.stats.messages_delivered != sent:
            raise RuntimeError("network micro-bench dropped messages")
        return sent

    def cpu() -> int:
        sim = Simulator()
        scheduler = CpuScheduler(sim, 2)
        done = [0]

        def job() -> None:
            done[0] += 1

        for _ in range(10_000):
            scheduler.submit(0.0001, job)
        sim.run()
        return done[0]

    return {
        "sim.engine_events_per_s": 1e6 / _us_per_unit(engine),
        "sim.network_msgs_per_s": 1e6 / _us_per_unit(network),
        "sim.cpu_submit_us": _us_per_unit(cpu),
    }


# ----------------------------------------------------------------------
# workload generator, clocks, checker, histogram
# ----------------------------------------------------------------------
def bench_small() -> dict:
    from repro.clocks.vector import vec_covers, vec_leq, vec_max
    from repro.common.config import WorkloadConfig
    from repro.metrics.histogram import LogHistogram
    from repro.verification.checker import CausalChecker
    from repro.workload.generators import make_workload
    _, pools = _topology()
    workload = make_workload(
        WorkloadConfig(kind="mixed", read_ratio=0.85, tx_ratio=0.10,
                       tx_partitions=2), pools, random.Random(SEED))

    def next_op() -> int:
        for _ in range(5000):
            workload.next_op()
        return 5000

    a, b = [5, 9, 7], [6, 8, 7]

    def vec_ops() -> int:
        for _ in range(5000):
            vec_max(a, b)
            vec_leq(a, b)
            vec_covers(b, a, skip=1)
        return 15000

    # A checker whose clients already depend on 1,000 keys each, as in
    # the middle of a mixed_* window.
    checker = CausalChecker()
    keys = [f"k{i}" for i in range(1000)]
    for client in ("w", "r"):
        checker.register_client(client)
    for ut, key in enumerate(keys, start=1):
        checker.on_write("w", key, (key, 0, ut), 0.0)
    rng = random.Random(SEED)

    def reads() -> int:
        for _ in range(300):
            key = rng.choice(keys)
            checker.on_read("r", key, (key, 0, keys.index(key) + 1), 0.0)
        return 300

    def tx_reads() -> int:
        for _ in range(300):
            pair = rng.sample(keys, 2)
            checker.on_tx_read(
                "r", [(k, (k, 0, keys.index(k) + 1)) for k in pair], 0.0)
        return 300

    hist = LogHistogram()

    def record() -> int:
        for i in range(5000):
            hist.record(0.001 + i * 1e-7)
        return 5000

    out = {
        "workload.next_op_us": _us_per_unit(next_op),
        "clocks.vec_op_us": _us_per_unit(vec_ops),
        "checker.read_us": _us_per_unit(reads),
        "checker.tx_read_us": _us_per_unit(tx_reads),
        "metrics.hist_record_us": _us_per_unit(record),
    }
    if checker.violations:
        raise RuntimeError("checker micro-bench history is not causal")
    return out


BENCHES = (bench_codec, bench_transport, bench_protocols, bench_storage,
           bench_wal, bench_sim, bench_small)


def run_all() -> dict:
    out: dict = {}
    for bench in BENCHES:
        out.update(bench())
    return out
