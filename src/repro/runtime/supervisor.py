"""``repro-supervise``: process-per-partition-server deployments.

A single ``repro-serve`` process multiplexes every hosted server onto
one event loop — and one core.  The supervisor turns the same deployment
description into a *tree* of OS processes: one ``repro-serve`` child per
partition server (optionally one per DC, or a single named server), all
deriving the shared deterministic port map from the same config file, so
the children need no runtime coordination at all.

Responsibilities, in the order they matter:

* **spawn** one child per supervised server, each logging to its own
  file under ``--log-dir`` (``dcD-pP.log``), and publish the placement
  as ``children.json`` (label, pid, log, pinned CPU) so harnesses and
  humans can find the children without parsing stderr;
* **pin** children round-robin across the host's CPUs with
  ``os.sched_setaffinity`` when ``--pin-cpus`` is given (recorded per
  child; a no-op where the platform has no affinity API);
* **fan out SIGTERM**: the supervisor's own SIGTERM/SIGINT terminates
  every child, which runs ``repro-serve``'s graceful shutdown (WAL flush
  before transport teardown) — exit 0 iff every child exited 0;
* **propagate failure**: the first child that dies with a non-zero
  status (or a signal — a SIGKILLed child reports ``128 + signum``)
  stops the remaining children and becomes the supervisor's own exit
  status.  A supervised deployment never half-runs silently;
* **die together**: children arm ``PR_SET_PDEATHSIG`` (Linux), so a
  SIGKILLed *supervisor* takes its children down too — the chaos
  kill/restart gate runs its victim through the supervisor and the
  restart still finds the ports free and the WAL recoverable.

The supervised cluster is driven externally: ``repro-bench-live
--external-servers`` (single- or multi-process via
``--driver-processes``) against the same config and base port.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.cluster.topology import Topology
from repro.runtime.cli import add_deployment_args, config_from_args
from repro.runtime.configfile import save_experiment_config

#: How long the SIGTERM fan-out waits before escalating to SIGKILL.
TERM_TIMEOUT_S = 15.0


def subprocess_env() -> dict[str, str]:
    """The child environment: the caller's, with this source tree on
    ``PYTHONPATH`` so ``python -m repro...`` resolves in the children
    even when the package is not installed."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (src_root + os.pathsep + existing
                             if existing else src_root)
    return env


def _die_with_parent() -> None:  # pragma: no cover — runs in the child
    """PR_SET_PDEATHSIG: the kernel SIGKILLs this child if its parent
    (the supervisor) dies first, however the supervisor died.  Without
    this, a SIGKILLed supervisor would orphan children that keep the
    deterministic ports bound and block any restart."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG = 1
    except Exception:
        pass  # non-Linux: best effort only


@dataclass(slots=True)
class ChildStatus:
    """One supervised ``repro-serve`` process, as reported in
    ``children.json`` and the exit summary."""

    dc: int
    partition: int
    pid: int
    log_path: str
    cpu: int | None = None
    returncode: int | None = None
    #: The child's /metrics port from the deterministic port map (None
    #: when telemetry is off) — ``repro-top --children`` reads this.
    metrics_port: int | None = None

    @property
    def label(self) -> str:
        return f"dc{self.dc}-p{self.partition}"


class Supervisor:
    """Spawn, pin, watch and reap one ``repro-serve`` per server."""

    def __init__(
        self,
        config_path: Path,
        addresses,
        host: str,
        base_port: int,
        log_dir: Path,
        pin_cpus: bool = False,
        duration: float | None = None,
        metrics_ports: dict | None = None,
    ):
        self.config_path = config_path
        self.addresses = list(addresses)
        self.host = host
        self.base_port = base_port
        self.log_dir = log_dir
        self.pin_cpus = pin_cpus
        self.duration = duration
        #: Address -> /metrics port (empty when telemetry is off); the
        #: children derive the same map from the shared config, this
        #: just records it in children.json for scrapers.
        self.metrics_ports = metrics_ports or {}
        self.statuses: list[ChildStatus] = []

    def _command(self, address) -> list[str]:
        command = [
            sys.executable, "-m", "repro.runtime.serve",
            "--config", str(self.config_path),
            "--dc", str(address.dc), "--partition", str(address.partition),
            "--host", self.host, "--base-port", str(self.base_port),
        ]
        if self.duration is not None:
            command += ["--duration", str(self.duration)]
        return command

    def _write_children_file(self) -> None:
        payload = [asdict(status) for status in self.statuses]
        path = self.log_dir / "children.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    def _pin(self, pid: int, index: int) -> int | None:
        if not self.pin_cpus or not hasattr(os, "sched_setaffinity"):
            return None
        cpu = index % (os.cpu_count() or 1)
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            return None  # the child may already be gone; not a gate
        return cpu

    async def _spawn_all(self) -> list:
        procs = []
        for index, address in enumerate(self.addresses):
            log_path = self.log_dir / (
                f"dc{address.dc}-p{address.partition}.log"
            )
            log = open(log_path, "ab")
            try:
                proc = await asyncio.create_subprocess_exec(
                    *self._command(address),
                    stdout=log, stderr=log,
                    env=subprocess_env(),
                    preexec_fn=_die_with_parent,
                )
            finally:
                log.close()  # the child holds its own descriptor
            status = ChildStatus(
                dc=address.dc, partition=address.partition,
                pid=proc.pid, log_path=str(log_path),
                cpu=self._pin(proc.pid, index),
                metrics_port=self.metrics_ports.get(address),
            )
            self.statuses.append(status)
            procs.append((proc, status))
            pin = f", cpu {status.cpu}" if status.cpu is not None else ""
            print(f"  spawned {status.label}: pid {proc.pid}{pin}",
                  file=sys.stderr)
        return procs

    async def run(self) -> int:
        """Spawn the tree, wait it out, aggregate, return the exit code."""
        procs = await self._spawn_all()
        self._write_children_file()
        shutdown_requested = False

        def request_shutdown() -> None:
            nonlocal shutdown_requested
            shutdown_requested = True
            for proc, _ in procs:
                if proc.returncode is None:
                    with contextlib.suppress(ProcessLookupError):
                        proc.terminate()

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, request_shutdown)

        failure_code = 0
        pending = {
            asyncio.ensure_future(proc.wait()): (proc, status)
            for proc, status in procs
        }
        while pending:
            timeout = TERM_TIMEOUT_S if shutdown_requested else None
            done, _ = await asyncio.wait(
                pending, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                # The drain timed out: escalate the stragglers.
                for proc, status in pending.values():
                    print(f"  {status.label} ignored SIGTERM for "
                          f"{TERM_TIMEOUT_S}s; killing", file=sys.stderr)
                    with contextlib.suppress(ProcessLookupError):
                        proc.kill()
                if failure_code == 0:
                    failure_code = 1
                continue
            for task in done:
                proc, status = pending.pop(task)
                code = proc.returncode
                status.returncode = code
                if code != 0:
                    mapped = code if code > 0 else 128 - code
                    if failure_code == 0:
                        failure_code = mapped
                    if not shutdown_requested:
                        print(f"  {status.label} (pid {status.pid}) died "
                              f"with status {code}; stopping the rest",
                              file=sys.stderr)
                        request_shutdown()

        self._write_children_file()  # now with exit codes
        self._print_summary(failure_code)
        return failure_code

    def _print_summary(self, failure_code: int) -> None:
        verdict = "clean" if failure_code == 0 else f"exit {failure_code}"
        print(f"supervised {len(self.statuses)} server(s): {verdict}",
              file=sys.stderr)
        for status in self.statuses:
            tail = _last_log_line(status.log_path)
            pin = f", cpu {status.cpu}" if status.cpu is not None else ""
            line = (f"  {status.label}: pid {status.pid}, "
                    f"exit {status.returncode}{pin}")
            if tail:
                line += f" — {tail}"
            print(line, file=sys.stderr)


def _last_log_line(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError:
        return ""
    lines = [line for line in data.decode("utf-8", "replace").splitlines()
             if line.strip()]
    return lines[-1] if lines else ""


def _supervised_addresses(args, topology: Topology):
    if args.dc is None:
        if args.partition is not None:
            raise SystemExit("--partition requires --dc")
        return list(topology.all_servers())
    if args.partition is not None:
        return [topology.server(args.dc, args.partition)]
    # Bounds-check the DC loudly (mirrors repro-serve).
    topology.server(args.dc, 0)
    return list(topology.dc_servers(args.dc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-supervise",
        description="Run one repro-serve process per partition server of "
                    "a live deployment, with SIGTERM fan-out, failure "
                    "propagation and optional CPU pinning.",
    )
    add_deployment_args(parser)
    parser.add_argument("--dc", type=int, metavar="D",
                        help="supervise only servers of this DC "
                             "(with --partition: only that one server)")
    parser.add_argument("--partition", type=int, metavar="P",
                        help="supervise only this partition "
                             "(requires --dc)")
    parser.add_argument("--duration", type=float, metavar="S",
                        help="children serve for S seconds then exit "
                             "cleanly (default: until SIGINT/SIGTERM)")
    parser.add_argument("--log-dir", metavar="PATH",
                        help="per-child logs, the effective cluster.json "
                             "and children.json land here (default: a "
                             "fresh temp dir, printed at startup)")
    parser.add_argument("--pin-cpus", action="store_true",
                        help="pin children round-robin across CPUs with "
                             "sched_setaffinity (recorded per child; "
                             "no-op where unsupported)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.base_port == 0:
        raise SystemExit(
            "repro-supervise needs a fixed --base-port: the children "
            "derive the shared port map independently, which ephemeral "
            "ports cannot provide"
        )
    config = config_from_args(args)
    topology = Topology(config.cluster.num_dcs,
                        config.cluster.num_partitions)
    addresses = _supervised_addresses(args, topology)
    log_dir = (Path(args.log_dir) if args.log_dir
               else Path(tempfile.mkdtemp(prefix="repro-supervise-")))
    log_dir.mkdir(parents=True, exist_ok=True)
    # Children boot from the *effective* config (file + CLI overrides),
    # not the caller's file: every override must reach every child.
    config_path = log_dir / "cluster.json"
    save_experiment_config(config, str(config_path))
    print(f"supervising {len(addresses)} server(s); logs in {log_dir}",
          file=sys.stderr)
    telemetry = config.cluster.telemetry
    metrics_ports = {}
    if telemetry.enabled and telemetry.metrics_base_port:
        from repro.runtime.transport import metrics_port_map
        metrics_ports = {
            address: entry[1]
            for address, entry in metrics_port_map(
                topology, telemetry.metrics_base_port, host=args.host
            ).items()
        }
    supervisor = Supervisor(
        config_path, addresses, args.host, args.base_port, log_dir,
        pin_cpus=args.pin_cpus, duration=args.duration,
        metrics_ports=metrics_ports,
    )
    return asyncio.run(supervisor.run())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
