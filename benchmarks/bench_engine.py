"""Micro-benchmarks of the simulation substrate itself.

These justify the substrate substitution: the event engine must push
hundreds of thousands of events per second for paper-scale sweeps to be
tractable, and zipf sampling / vector ops are on the per-operation hot
path.  The network send/deliver, storage chain-read and full-experiment
benches cover the remaining simulator hot paths, and the frame-decoder
bench pins the batched-chunk decode speedup."""

import random

from repro.clocks.vector import vec_covers, vec_leq, vec_max
from repro.common.config import (
    ExperimentConfig,
    LatencyConfig,
    WorkloadConfig,
    smoke_scale_cluster,
)
from repro.common.types import Address
from repro.harness.experiment import run_experiment
from repro.sim.engine import Simulator
from repro.sim.latency import GeoLatencyModel
from repro.sim.network import Network
from repro.storage.store import PartitionStore
from repro.storage.version import Version
from repro.workload.zipf import ZipfGenerator


def test_engine_event_throughput(benchmark):
    """Schedule-and-run cost of one million chained events."""

    def run() -> int:
        sim = Simulator()
        remaining = [200_000]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(0.001, tick)

        for _ in range(5):
            sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events >= 200_000


def test_zipf_sampling_throughput(benchmark):
    zipf = ZipfGenerator(10_000, 0.99, random.Random(1))

    def run() -> int:
        return sum(zipf.sample() for _ in range(50_000))

    total = benchmark(run)
    assert total > 0


class _Sink:
    """A minimal endpoint: counts deliveries, no CPU model."""

    __slots__ = ("address", "received")

    def __init__(self, address):
        self.address = address
        self.received = 0

    def on_message(self, msg) -> None:
        self.received += 1


class _SizedMsg:
    __slots__ = ()

    def size_bytes(self) -> int:
        return 64


def build_geo_network(num_dcs: int = 3, num_partitions: int = 4):
    """A 3-DC geo network with sink endpoints."""
    sim = Simulator()
    latency = GeoLatencyModel(LatencyConfig(), random.Random(7))
    network = Network(sim, latency)
    endpoints = []
    for dc in range(num_dcs):
        for partition in range(num_partitions):
            endpoint = _Sink(Address(dc=dc, partition=partition))
            network.register(endpoint)
            endpoints.append(endpoint)
    return sim, network, endpoints


def drive_network(sim, network, endpoints, rounds: int = 5_000) -> int:
    """All-to-all sends through the FIFO channels, then drain delivery."""
    msg = _SizedMsg()
    sent = 0
    for round_no in range(rounds):
        src = endpoints[round_no % len(endpoints)]
        for dst in endpoints:
            if dst is not src:
                network.send(src.address, dst.address, msg)
                sent += 1
    sim.run()
    return sent


def test_network_send_deliver_throughput(benchmark):
    """Cost of send (size + byte accounting + FIFO channel bookkeeping +
    latency sample) plus heap-driven delivery, the per-message hot path."""

    def run() -> int:
        sim, network, endpoints = build_geo_network()
        sent = drive_network(sim, network, endpoints)
        assert network.stats.messages_delivered == sent
        return sent

    assert benchmark(run) > 0


def build_loaded_store(num_keys: int = 200, chain_depth: int = 40):
    """A partition store whose chains are ``chain_depth`` versions deep."""
    store = PartitionStore()
    keys = [f"k{i}" for i in range(num_keys)]
    store.preload(keys, num_dcs=3)
    for i in range(1, chain_depth):
        ut = i * 1000
        for key in keys:
            store.insert(Version(key=key, value=i, sr=i % 3, ut=ut,
                                 dv=(ut, ut - 1, ut - 2)))
    return store, keys


def scan_store(store, keys, rounds: int = 50, horizon: int = 20_000) -> int:
    """Chain-head reads plus snapshot scans below ``horizon`` (the Cure*
    read path the paper bills for chain traversal)."""

    def visible(version) -> bool:
        return version.ut <= horizon

    scanned = 0
    for _ in range(rounds):
        for key in keys:
            store.freshest(key)
            _, steps = store.chain(key).find_freshest(visible)
            scanned += steps
    return scanned


def test_storage_chain_read_throughput(benchmark):
    store, keys = build_loaded_store()

    def run() -> int:
        return scan_store(store, keys)

    assert benchmark(run) > 0


def perf_reference_config(seed: int = 42) -> ExperimentConfig:
    """The full-experiment reference point."""
    return ExperimentConfig(
        cluster=smoke_scale_cluster("pocc"),
        workload=WorkloadConfig(kind="get_put", gets_per_put=4,
                                clients_per_partition=8,
                                think_time_s=0.005),
        warmup_s=0.3,
        duration_s=0.8,
        seed=seed,
        name="perf-reference",
    )


def test_full_experiment_wall_clock(benchmark):
    """One small end-to-end experiment: everything above composed."""

    def run() -> int:
        return run_experiment(perf_reference_config()).total_ops

    assert benchmark(run) > 0


def build_batched_chunk(target_bytes: int = 256 * 1024) -> bytes:
    """One coalesced transport write: ~100-byte frames up to the cap.

    This is the worst case for per-frame buffer compaction — thousands
    of small frames arriving as a single ``feed``.
    """
    from repro.common.types import Address as Addr
    from repro.protocols import messages as m
    from repro.runtime import codec

    parts: list[bytes] = []
    size = 0
    op_id = 0
    while size < target_bytes:
        frame = codec.encode_frame(m.PutReq(
            key=f"key-{op_id % 997:06d}", value="x" * 40,
            dv=[op_id, op_id + 1], client=Addr(0, 0), op_id=op_id))
        parts.append(frame)
        size += len(frame)
        op_id += 1
    return b"".join(parts)


class CompactPerFrameDecoder:
    """The pre-PR-8 compaction strategy, pinned as the ≥2x baseline.

    Identical payload-decode stack (``codec.loads``) — the *only*
    variable is buffer compaction: this decoder reclaims the consumed
    prefix after every frame, the shipped ``FrameDecoder`` keeps a read
    offset and compacts once per ``feed``.  Per-frame compaction is
    O(batch²) on a coalesced chunk of small frames.  One honesty note:
    the old code spelled it ``del buffer[:end]``, which CPython ≥3.4
    happens to shield by advancing the bytearray's internal start
    offset; the baseline here spells the same strategy as the slice
    reallocation it costs on any buffer without that CPython-specific
    shield, so the pin captures the algorithmic class being fixed
    rather than one interpreter's escape hatch.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        from repro.runtime import codec

        self._buffer.extend(data)
        buffer = self._buffer
        out: list = []
        while True:
            if len(buffer) < 4:
                return out
            length = int.from_bytes(buffer[:4], "big")
            end = 4 + length
            if len(buffer) < end:
                return out
            out.append(codec.loads(bytes(buffer[4:end])))
            self._buffer = buffer = buffer[end:]


def frame_decoder_speedup(target_bytes: int = 256 * 1024,
                          repeats: int = 3) -> dict:
    """Time one batched chunk through both decoders (best of N)."""
    import time

    from repro.runtime import codec

    chunk = build_batched_chunk(target_bytes)

    def best_of(factory) -> tuple[float, int]:
        best = float("inf")
        frames = 0
        for _ in range(repeats):
            decoder = factory()
            start = time.perf_counter()
            frames = len(decoder.feed(chunk))
            best = min(best, time.perf_counter() - start)
        return best, frames

    new_s, new_frames = best_of(codec.FrameDecoder)
    legacy_s, legacy_frames = best_of(CompactPerFrameDecoder)
    assert new_frames == legacy_frames > 0
    return {
        "chunk_bytes": len(chunk),
        "frames": new_frames,
        "read_offset_s": new_s,
        "compact_per_frame_s": legacy_s,
        "speedup": legacy_s / new_s if new_s else None,
    }


def test_frame_decoder_batched_chunk_speedup(benchmark):
    """PR-8 pin: the read-offset decoder must be ≥2x the per-frame
    compaction baseline on one 256KiB chunk of ~100-byte frames."""
    stats = benchmark.pedantic(frame_decoder_speedup, rounds=1,
                               iterations=1)
    assert stats["speedup"] >= 2.0, stats


def test_vector_ops_throughput(benchmark):
    a = [1_000_000, 2_000_000, 3_000_000]
    b = [2_000_000, 1_000_000, 3_000_001]

    def run() -> int:
        hits = 0
        for _ in range(100_000):
            if vec_leq(a, b):
                hits += 1
            if vec_covers(b, a, skip=1):
                hits += 1
            vec_max(a, b)
        return hits

    assert benchmark(run) >= 0
