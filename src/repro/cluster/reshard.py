"""The view-change driver: online resharding under live traffic.

:class:`ReshardController` is an I/O-free :class:`ProtocolCore` (it runs
unmodified on the sim and live backends) that drives one epoch change
through the phases the :class:`~repro.protocols.membership.
MembershipManager` implements on every server:

1. **propose** — ``ViewPropose(epoch, members, vnodes)`` to every server
   in the address space (joiners included); collect
   ``ViewAck(phase="prepare")`` from all of them.
2. **migrate** — ``MigrateStart``; every server seals the keys whose
   owner changes, donors stream chains to the new owners, and everyone
   reports ``MigrateDone`` (zero totals where nothing moved) once its
   chunks are acked-durable.
3. **drain** — wait ``commit_delay_s`` so in-flight replication crossing
   the cutover settles into the straggler-forwarding path.
4. **commit** — ``ViewCommit``; servers WAL-log and adopt the view,
   purge unowned chains, answer parked ops; collect
   ``ViewAck(phase="commit")`` from everyone.

Every phase retries its outstanding servers each ``retry_interval_s``
forever — a SIGKILLed participant rejoins after restart (recovery +
catch-up) and answers the next retry; the migrate retry re-sends the
propose immediately before the start so a restarted server that lost its
pending view receives both, in order, on the FIFO channel.

``repro-reshard`` is the CLI face (live backend, same config file the
deployment booted from); :func:`start_sim_reshard` attaches a controller
to a simulated cluster for deterministic tests.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import ReproError
from repro.common.types import Address, reshard_controller_address
from repro.cluster.ring import ClusterView
from repro.cluster.topology import Topology
from repro.protocols import messages as m
from repro.protocols.core import FOREGROUND, ProtocolCore


@dataclass(slots=True)
class ReshardResult:
    """What one committed view change did."""

    epoch: int
    members: tuple[int, ...]
    keys_moved: int = 0
    bytes_moved: int = 0
    started_at: float = 0.0
    committed_at: float = 0.0
    retries: int = 0
    #: Per-server ``(dc, partition) -> keys_moved`` donor totals.
    moved_by_server: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(self.committed_at - self.started_at, 0.0)

    def summary_text(self) -> str:
        return (
            f"reshard -> epoch {self.epoch} members {list(self.members)}: "
            f"{self.keys_moved} keys / {self.bytes_moved} bytes moved in "
            f"{self.duration_s:.3f}s ({self.retries} retries)"
        )


class ReshardController(ProtocolCore):
    """Drives one view change to commit; see the module docstring."""

    def __init__(
        self,
        runtime,
        topology: Topology,
        target: ClusterView,
        commit_delay_s: float = 0.25,
        retry_interval_s: float = 0.5,
        on_done: Callable[[ReshardResult], None] | None = None,
    ):
        super().__init__(runtime, clock=None)
        self.topology = topology
        self.target = target
        self.commit_delay_s = commit_delay_s
        self.retry_interval_s = retry_interval_s
        self.on_done = on_done
        self._everyone = tuple(topology.all_servers())
        self._prepare_acks: set[Address] = set()
        self._done_reports: dict[Address, tuple[int, int]] = {}
        self._commit_acks: set[Address] = set()
        self.phase = "idle"
        self.result = ReshardResult(epoch=target.epoch,
                                    members=target.members)
        self._retry_timer = None

    # ------------------------------------------------------------------
    # ProtocolCore surface (the controller does no modeled work)
    # ------------------------------------------------------------------
    def service_time(self, msg: Any) -> float:
        return 0.0

    def message_priority(self, msg: Any) -> int:
        return FOREGROUND

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick off the propose phase (call with the backend running)."""
        if self.phase != "idle":
            raise ReproError("ReshardController.start() called twice")
        self.phase = "propose"
        self.result.started_at = self.rt.now
        self._send_propose(self._everyone)
        self._retry_timer = self.rt.schedule(self.retry_interval_s,
                                             self._retry_tick)

    def _propose_msg(self) -> m.ViewPropose:
        epoch, members, vnodes = self.target.to_wire()
        return m.ViewPropose(epoch=epoch, members=members, vnodes=vnodes,
                             reply_to=self.address)

    def _send_propose(self, targets: Sequence[Address]) -> None:
        self.rt.send_fanout(targets, self._propose_msg())

    def _send_start(self, targets: Sequence[Address]) -> None:
        self.rt.send_fanout(targets, m.MigrateStart(
            epoch=self.target.epoch, reply_to=self.address))

    def _send_commit(self, targets: Sequence[Address]) -> None:
        epoch, members, vnodes = self.target.to_wire()
        self.rt.send_fanout(targets, m.ViewCommit(
            epoch=epoch, members=members, vnodes=vnodes))

    # ------------------------------------------------------------------
    # Retries: at-least-once per phase, forever (restarts answer later)
    # ------------------------------------------------------------------
    def _retry_tick(self) -> None:
        if self.phase == "done":
            return
        missing = self._missing()
        if missing:
            self.result.retries += 1
            if self.phase == "propose":
                self._send_propose(missing)
            elif self.phase == "migrate":
                # A restarted server lost its pending view with its
                # memory; FIFO channels deliver this propose before the
                # start, so the retry always arrives well-formed.
                self._send_propose(missing)
                self._send_start(missing)
            elif self.phase == "commit":
                # ViewCommit carries no reply address; the commit ack
                # rides on the controller address the propose taught the
                # server.  A participant restarted after the migrate
                # phase never saw one, so re-teach it first (FIFO order:
                # propose lands before the commit, re-arming the ack
                # path; the redundant prepare ack is dropped harmlessly).
                self._send_propose(missing)
                self._send_commit(missing)
        self._retry_timer = self.rt.schedule(self.retry_interval_s,
                                             self._retry_tick)

    def _missing(self) -> list[Address]:
        if self.phase == "propose":
            have: Any = self._prepare_acks
        elif self.phase == "migrate":
            have = self._done_reports
        elif self.phase == "commit":
            have = self._commit_acks
        else:
            return []
        return [address for address in self._everyone
                if address not in have]

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def dispatch(self, msg: Any) -> None:
        if isinstance(msg, m.ViewAck):
            self._on_ack(msg)
        elif isinstance(msg, m.MigrateDone):
            self._on_done(msg)
        # Anything else (stray gossip, late acks from an older epoch) is
        # dropped: the controller only ever drives self.target.

    def _on_ack(self, msg: m.ViewAck) -> None:
        if msg.epoch != self.target.epoch:
            return
        address = self.topology.server(msg.dc, msg.partition)
        if msg.phase == "prepare":
            self._prepare_acks.add(address)
            if self.phase == "propose" and not self._missing():
                self.phase = "migrate"
                self._send_start(self._everyone)
        elif msg.phase == "commit":
            self._commit_acks.add(address)
            if self.phase == "commit" and not self._missing():
                self._finish()

    def _on_done(self, msg: m.MigrateDone) -> None:
        if msg.epoch != self.target.epoch:
            return
        address = self.topology.server(msg.dc, msg.partition)
        # Overwrite is safe: donors resend identical totals on retries
        # (idempotent _done_stats on the server side).
        self._done_reports[address] = (msg.keys_moved, msg.bytes_moved)
        if self.phase == "migrate" and not self._missing():
            self.phase = "drain"
            self.rt.schedule(self.commit_delay_s, self._begin_commit)

    def _begin_commit(self) -> None:
        self.phase = "commit"
        self._send_commit(self._everyone)

    def _finish(self) -> None:
        self.phase = "done"
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        result = self.result
        result.committed_at = self.rt.now
        result.keys_moved = sum(k for k, _ in self._done_reports.values())
        result.bytes_moved = sum(b for _, b in self._done_reports.values())
        result.moved_by_server = {
            (a.dc, a.partition): keys
            for a, (keys, _) in self._done_reports.items() if keys
        }
        if self.on_done is not None:
            self.on_done(result)


# ----------------------------------------------------------------------
# Harness attachment (both backends)
# ----------------------------------------------------------------------
def start_sim_reshard(
    built,
    members: Sequence[int],
    at_s: float,
    commit_delay_s: float | None = None,
    retry_interval_s: float | None = None,
    on_done: Callable[[ReshardResult], None] | None = None,
) -> ReshardController:
    """Attach a controller to a built sim cluster; starts at ``at_s``.

    ``built`` is a :class:`repro.harness.builders.BuiltCluster` whose
    config enabled membership.  The target view is the current one's
    successor with the given member set.
    """
    from repro.cluster.node import SimNode

    membership = built.config.cluster.membership
    if not membership.enabled:
        raise ReproError("resharding needs cluster.membership.enabled")
    current = built.topology.view
    epoch = (current.epoch if current is not None else 0) + 1
    vnodes = current.vnodes if current is not None else membership.vnodes
    target = ClusterView(epoch=epoch, members=tuple(members),
                         vnodes=vnodes)
    runtime = SimNode(built.sim, built.network,
                      reshard_controller_address(), cores=1)
    controller = ReshardController(
        runtime, built.topology, target,
        commit_delay_s=(commit_delay_s if commit_delay_s is not None
                        else membership.commit_delay_s),
        retry_interval_s=(retry_interval_s if retry_interval_s is not None
                          else membership.retry_interval_s),
        on_done=on_done,
    )
    built.sim.schedule_at(at_s, controller.start)
    return controller


def attach_live_controller(
    hub,
    topology: Topology,
    target: ClusterView,
    commit_delay_s: float,
    retry_interval_s: float,
    on_done: Callable[[ReshardResult], None] | None = None,
) -> ReshardController:
    """Create the controller endpoint on an existing live hub.

    Call *before* ``hub.start()`` so the endpoint's listener binds with
    the others (or start the returned controller's runtime yourself).
    """
    runtime = hub.runtime(reshard_controller_address())
    return ReshardController(runtime, topology, target,
                             commit_delay_s=commit_delay_s,
                             retry_interval_s=retry_interval_s,
                             on_done=on_done)


async def run_reshard_live(
    config,
    members: Sequence[int],
    epoch: int,
    host: str = "127.0.0.1",
    base_port: int = 7400,
    timeout_s: float = 120.0,
) -> ReshardResult:
    """Drive one view change against an already-running live deployment.

    Boots a standalone controller process-half (its own hub, the shared
    deterministic address book) and returns once the commit round-tripped
    through every server.
    """
    from repro.runtime.transport import AddressBook, LiveHub

    cluster = config.cluster
    topology = Topology(cluster.num_dcs, cluster.num_partitions)
    book = AddressBook.for_topology(
        topology,
        clients_per_partition=config.workload.clients_per_partition,
        host=host, base_port=base_port,
    )
    hub = LiveHub(book)
    membership = cluster.membership
    target = ClusterView(epoch=epoch, members=tuple(members),
                         vnodes=membership.vnodes)
    done = asyncio.Event()
    controller = attach_live_controller(
        hub, topology, target,
        commit_delay_s=membership.commit_delay_s,
        retry_interval_s=membership.retry_interval_s,
        on_done=lambda _result: done.set(),
    )
    await hub.start()
    try:
        controller.start()
        await asyncio.wait_for(done.wait(), timeout_s)
        await hub.drain()
    finally:
        await hub.close()
    return controller.result


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``repro-reshard --config cluster.json --epoch 1
    --members 0,1,2`` against a live deployment's port map."""
    import argparse

    from repro.runtime.configfile import load_experiment_config

    parser = argparse.ArgumentParser(
        description="Drive one causal-safe view change (online reshard) "
                    "against a running live deployment."
    )
    parser.add_argument("--config", required=True,
                        help="the deployment's JSON config file")
    parser.add_argument("--members", required=True,
                        help="comma-separated partition ids of the next "
                             "view, e.g. 0,1,2")
    parser.add_argument("--epoch", type=int, required=True,
                        help="the next view's epoch (current + 1)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--base-port", type=int, default=7400)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    config = load_experiment_config(args.config)
    if not config.cluster.membership.enabled:
        print("error: cluster.membership.enabled is false in this config")
        return 2
    members = tuple(int(p) for p in args.members.split(",") if p != "")
    result = asyncio.run(run_reshard_live(
        config, members, epoch=args.epoch, host=args.host,
        base_port=args.base_port, timeout_s=args.timeout,
    ))
    print(result.summary_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
