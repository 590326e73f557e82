"""``repro-serve``: boot a live key-value cluster over asyncio TCP.

Examples::

    # All servers of a 2-DC x 2-partition POCC cluster in one process:
    repro-serve --protocol pocc --dcs 2 --partitions 2 --base-port 7400

    # One server per process (multi-process deployment; every process
    # derives the same port map from the shared config):
    repro-serve --config cluster.json --dc 0 --partition 1

    # CI mode: serve for 15 seconds, then shut down cleanly:
    repro-serve --protocol cure --dcs 2 --partitions 2 --duration 15

The cluster is driven by ``repro-bench-live`` (same config,
``--external-servers``) or by any client process built on
:class:`repro.runtime.cluster.LiveCluster`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.cluster.topology import Topology
from repro.runtime.cli import add_deployment_args, config_from_args
from repro.runtime.cluster import LiveCluster


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a live geo-replicated causal key-value cluster "
                    "(the paper's protocols over real TCP).",
    )
    add_deployment_args(parser)
    parser.add_argument("--dc", type=int, metavar="D",
                        help="host only servers of this DC "
                             "(with --partition: only that one server)")
    parser.add_argument("--partition", type=int, metavar="P",
                        help="host only servers of this partition "
                             "(requires --dc)")
    parser.add_argument("--duration", type=float, metavar="S",
                        help="serve for S seconds then exit cleanly "
                             "(default: until SIGINT/SIGTERM)")
    return parser


def _served_addresses(args, topology):
    if args.dc is None:
        if args.partition is not None:
            raise SystemExit("--partition requires --dc")
        return None  # every server
    if args.partition is not None:
        return [topology.server(args.dc, args.partition)]
    # Bounds-check the DC (dc_servers does not): a typo'd --dc must fail
    # loudly, not serve zero servers while clients burn connect retries.
    topology.server(args.dc, 0)
    return list(topology.dc_servers(args.dc))


async def _serve(cluster: LiveCluster, duration: float | None) -> int:
    await cluster.start()
    hosted = sorted(str(addr) for addr in cluster.servers)
    print(f"serving {len(hosted)} server(s): {', '.join(hosted)}",
          file=sys.stderr)
    for addr in cluster.servers:
        host, port = cluster.book.lookup(addr)
        print(f"  {addr} listening on {host}:{port}", file=sys.stderr)
    if cluster.metrics_port is not None:
        print(f"  metrics on http://{cluster._host}:"
              f"{cluster.metrics_port}/metrics", file=sys.stderr)
    for addr, recovered in cluster.recovered.items():
        if recovered.had_state:
            print(f"  {addr} recovered {len(recovered.versions)} "
                  f"version(s) ({recovered.wal_records} log records, "
                  f"{recovered.torn_bytes_truncated} torn byte(s) "
                  f"truncated)", file=sys.stderr)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    if duration is not None:
        loop.call_later(duration, stop.set)
    await stop.wait()
    # Shutdown ordering matters: force the WAL onto stable storage while
    # the handlers that might still append to it can no longer run past
    # us (we are on their event loop), *then* take the transport down.
    # An acknowledged write must never outlive its log.
    flushed = cluster.flush_persistence()
    await cluster.stop_telemetry()
    await cluster.hub.close()
    cluster.close_persistence()
    if not cluster.hub.clean or not flushed:
        for error in cluster.hub.errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    print("clean shutdown", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    topology = Topology(config.cluster.num_dcs,
                        config.cluster.num_partitions)
    cluster = LiveCluster(
        config,
        host=args.host,
        base_port=args.base_port,
        serve_addresses=_served_addresses(args, topology),
        with_clients=False,
    )
    return asyncio.run(_serve(cluster, args.duration))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
