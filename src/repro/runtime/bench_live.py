"""``repro-bench-live``: drive a live cluster and verify its history.

The live-mode smoke experiment: boots an N-DC × M-partition cluster
(in-process by default, or dials servers booted elsewhere with
``--external-servers``), drives it with the seeded closed-loop workload
generators for a wall-clock measurement window, runs the independent
causal-consistency checker over the recorded operation history, and
exits non-zero on any violation, transport error or unclean shutdown —
the CI ``live-smoke`` gate.

Examples::

    # Everything in one process, ephemeral ports, 10s of POCC:
    repro-bench-live --protocol pocc --dcs 2 --partitions 2 \
        --duration 10 --base-port 0

    # Drive servers that a repro-serve process already hosts:
    repro-bench-live --config cluster.json --external-servers --duration 10
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys

from repro.runtime.cli import add_deployment_args, config_from_args
from repro.runtime.cluster import LiveCluster


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench-live",
        description="Drive a live causal key-value cluster with the paper's "
                    "workloads and verify the recorded history.",
    )
    add_deployment_args(parser)
    parser.add_argument("--duration", type=float, default=10.0, metavar="S",
                        help="measurement window in wall-clock seconds "
                             "(default: 10)")
    parser.add_argument("--warmup", type=float, default=None, metavar="S",
                        help="warmup before the window (default: config)")
    parser.add_argument("--external-servers", action="store_true",
                        help="host no servers here; dial the port map "
                             "(servers run under repro-serve or "
                             "repro-supervise)")
    parser.add_argument("--driver-processes", type=int, default=1,
                        metavar="N",
                        help="shard the client sessions across N load "
                             "worker processes (default: 1 = everything "
                             "in this process; N>1 needs a fixed "
                             "--base-port)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the verdict line")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    overrides = {"verify": True, "duration_s": args.duration}
    if args.warmup is not None:
        overrides["warmup_s"] = args.warmup
    config = dataclasses.replace(config, **overrides)
    config.validate()

    if args.driver_processes > 1:
        from repro.runtime.loadgen import run_sharded_load
        sharded = run_sharded_load(
            config,
            host=args.host,
            base_port=args.base_port,
            processes=args.driver_processes,
            external_servers=args.external_servers,
        )
        report = sharded.report
        if not args.quiet:
            print(f"driver processes: {sharded.driver_processes} "
                  f"(servers {'external' if not sharded.hosted_servers else 'in-parent'})",
                  file=sys.stderr)
    else:
        cluster = LiveCluster(
            config,
            host=args.host,
            base_port=args.base_port,
            serve_addresses=([] if args.external_servers else None),
        )
        report = asyncio.run(cluster.run())

    if args.quiet:
        print(report.summary_text().splitlines()[0])
    else:
        print(report.summary_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(dataclasses.asdict(report), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
