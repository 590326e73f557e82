"""The workload drivers: closed-loop (the paper's) and open-loop.

:class:`ClosedLoopClient` wraps one protocol client the way the paper's
testbed does: issue the next operation, wait for the reply, "think" for
the configured time (25 ms in the paper — "low enough to avoid masking
the blocking dynamics [...] and high enough to fully load the compared
systems"), repeat.  Throughput is therefore capped at
``sessions / think_time`` — fine for reproducing the figures, wrong for
probing a backend's capacity.

:class:`OpenLoopClient` is the pipelined load generator: arrivals are
*scheduled* at a target rate whether or not the previous operation has
completed.  The session itself stays sequential — causal session
guarantees (and the checker's session model) assume one operation in
flight per session — so an arrival that finds the session busy queues,
and **latency is measured from the intended arrival time**: queueing
delay counts, which is what keeps the tail percentiles honest under
overload (no coordinated omission).  Aggregate concurrency comes from
running many sessions (``clients_per_partition``).

Both drivers run unchanged on either backend (they only use the runtime's
``schedule``/``now`` and the client's callback API), feed every completed
operation to the online causal-consistency checker when verification is
on, and record per-operation-type latency into
:class:`repro.metrics.histogram.LogHistogram` (HDR-style log buckets) for
the p50/p90/p99 reporting of the live bench.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from typing import Optional

from repro.common.errors import ReproError
from repro.metrics.histogram import LogHistogram
from repro.protocols import messages as m
from repro.protocols.base import CausalClient
from repro.sim.engine import Simulator
from repro.verification.checker import CausalChecker


class DriverBase:
    """Shared driver plumbing: checker feed + per-op latency histograms."""

    def __init__(
        self,
        sim: Simulator,
        client: CausalClient,
        workload,
        rng: random.Random,
        checker: Optional[CausalChecker] = None,
    ):
        self.sim = sim
        self.client = client
        self.workload = workload
        self._rng = rng
        self.checker = checker
        self.ops_issued = 0
        self._running = False
        self._put_seq = 0
        self._session_resets_seen = client.session_resets
        #: The session id handed to the checker and stamped into every
        #: PUT value: formatted once, not once per operation.
        self._session = str(client.address)
        #: op kind -> latency histogram, measured from the driver's
        #: intended start (== issue time for the closed loop).
        self.latency: dict[str, LogHistogram] = {}
        if checker is not None:
            checker.register_client(self._session)

    def stop(self) -> None:
        """Stop after the in-flight operation (if any) completes."""
        self._running = False

    def _record_latency(self, kind: str, seconds: float) -> None:
        hist = self.latency.get(kind)
        if hist is None:
            hist = self.latency[kind] = LogHistogram()
        hist.record(seconds if seconds > 0 else 0.0)

    def reset_latency(self) -> None:
        """Drop samples recorded so far (the measurement-window start).

        The live harness calls this when it arms the metrics window so
        warmup ramp-up ops do not dilute the reported percentiles;
        completions *after* the window still record — they are the tail
        of arrivals the window offered, exactly what honest open-loop
        percentiles must include.
        """
        self.latency = {}

    def _sync_session_resets(self) -> None:
        """Propagate HA session re-initializations to the checker.

        A reset (demotion/fail-over) happens *before* the failed operation
        is re-issued, so it is always observed here before the reply of
        any post-reset operation is recorded.
        """
        if self.client.session_resets != self._session_resets_seen:
            self._session_resets_seen = self.client.session_resets
            if self.checker is not None:
                self.checker.on_session_reset(self._session, self.sim.now)

    # -- checker recording (shared by both drivers' reply handlers) ----
    def _checker_read(self, reply: m.GetReply) -> None:
        self._sync_session_resets()
        if self.checker is not None:
            # Live replies carry a freshly decoded key string each; the
            # key universe is the finite pool, so a recording checker
            # retains one interned copy per key, not one per operation.
            key = sys.intern(reply.key)
            self.checker.on_read(
                self._session, key, (key, reply.sr, reply.ut), self.sim.now,
            )

    def _checker_write(self, key: str, reply: m.PutReply) -> None:
        self._sync_session_resets()
        if self.checker is not None:
            self.checker.on_write(
                self._session, key,
                (key, self.client.m, reply.ut), self.sim.now,
            )

    def _checker_tx(self, reply: m.RoTxReply) -> None:
        self._sync_session_resets()
        if self.checker is not None:
            items = []
            for item in reply.versions:
                key = sys.intern(item.key)
                items.append((key, (key, item.sr, item.ut)))
            self.checker.on_tx_read(self._session, items, self.sim.now)


class ClosedLoopClient(DriverBase):
    """Drives one protocol client in a closed loop."""

    def __init__(
        self,
        sim: Simulator,
        client: CausalClient,
        workload,
        think_time_s: float,
        rng: random.Random,
        checker: Optional[CausalChecker] = None,
    ):
        super().__init__(sim, client, workload, rng, checker)
        self.think_time_s = think_time_s
        self._last_put_key: str | None = None
        self._issued_kind: str = ""
        self._issued_at: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, stagger_s: float = 0.01) -> None:
        """Begin the loop after a random stagger (desynchronizes clients)."""
        if self._running:
            raise ReproError("driver already started")
        self._running = True
        self.sim.schedule(self._rng.uniform(0.0, stagger_s), self._issue_next)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        if not self._running:
            return
        spec = self.workload.next_op()
        self.ops_issued += 1
        self._issued_kind = spec.kind
        self._issued_at = self.sim.now
        if spec.kind == "get":
            self.client.get(spec.key, self._on_get_reply)
        elif spec.kind == "put":
            self._put_seq += 1
            self._last_put_key = spec.key
            value = (self._session, self._put_seq)
            self.client.put(spec.key, value, self._on_put_reply)
        elif spec.kind == "ro_tx":
            self.client.ro_tx(spec.keys, self._on_tx_reply)
        else:
            raise ReproError(f"unknown op kind {spec.kind!r}")

    def _after_reply(self) -> None:
        self._record_latency(self._issued_kind, self.sim.now - self._issued_at)
        if not self._running:
            return
        if self.think_time_s > 0:
            self.sim.schedule(self.think_time_s, self._issue_next)
        else:
            self.sim.schedule(0.0, self._issue_next)

    # ------------------------------------------------------------------
    # Reply handlers
    # ------------------------------------------------------------------
    def _on_get_reply(self, reply: m.GetReply) -> None:
        self._checker_read(reply)
        self._after_reply()

    def _on_put_reply(self, reply: m.PutReply) -> None:
        # Closed loop: the reply always matches the last issued PUT.
        self._checker_write(self._last_put_key, reply)
        self._after_reply()

    def _on_tx_reply(self, reply: m.RoTxReply) -> None:
        self._checker_tx(reply)
        self._after_reply()


class OpenLoopClient(DriverBase):
    """Target-rate open-loop driver over one (sequential) session.

    Arrivals fire every ``1 / rate_ops_s`` seconds from a staggered
    start.  Each arrival is *admitted* immediately when the session is
    idle, queued when it is busy (up to ``max_backlog``; beyond that the
    arrival is counted in :attr:`dropped_arrivals` instead of growing
    memory without bound), and its latency runs from the scheduled
    arrival instant to the reply — so a backend that cannot sustain the
    offered rate shows the queueing in its p90/p99 rather than quietly
    slowing the generator down.
    """

    def __init__(
        self,
        sim: Simulator,
        client: CausalClient,
        workload,
        rate_ops_s: float,
        rng: random.Random,
        checker: Optional[CausalChecker] = None,
        max_backlog: int = 100_000,
    ):
        if rate_ops_s <= 0:
            raise ReproError("open-loop driver needs rate_ops_s > 0")
        super().__init__(sim, client, workload, rng, checker)
        self._interval = 1.0 / rate_ops_s
        self._max_backlog = max_backlog
        self._backlog: deque[float] = deque()  # intended arrival times
        self._busy = False
        self._inflight: tuple[str, str | None, float] | None = None
        self._next_arrival: float | None = None
        #: Arrivals discarded because the backlog cap was hit (the
        #: generator was more than ``max_backlog`` ops ahead of the
        #: system) — nonzero means the offered rate was unsustainable.
        self.dropped_arrivals = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, stagger_s: float = 0.01) -> None:
        """Begin arrivals after a random stagger (desynchronizes clients)."""
        if self._running:
            raise ReproError("driver already started")
        self._running = True
        self._next_arrival = None
        self.sim.schedule(self._rng.uniform(0.0, stagger_s),
                          self._arrival_tick)

    @property
    def backlog(self) -> int:
        """Arrivals admitted but not yet issued (the queue depth)."""
        return len(self._backlog)

    # ------------------------------------------------------------------
    # The arrival schedule
    # ------------------------------------------------------------------
    def _arrival_tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        if self._next_arrival is None:
            self._next_arrival = now
        # Materialize *every* arrival whose intended instant has elapsed
        # in this one tick.  A tick that fires late (the live event loop
        # stalled behind a long callback or an fsync) used to advance the
        # schedule one interval per tick and re-fire at delay 0 — a
        # cascade of zero-delay events that monopolized the loop it was
        # trying to catch up with.  Draining the whole gap here keeps the
        # offered rate nominal (the slip is still charged to the ops'
        # latency) while the backlog cap bounds the burst: overflow is
        # counted, not queued.
        elapsed = []
        while self._next_arrival <= now:
            elapsed.append(self._next_arrival)
            self._next_arrival += self._interval
        self.sim.schedule(self._next_arrival - now, self._arrival_tick)
        for intended in elapsed:
            if self._busy:
                if len(self._backlog) < self._max_backlog:
                    self._backlog.append(intended)
                else:
                    self.dropped_arrivals += 1
            else:
                self._issue(intended)

    def _issue(self, intended: float) -> None:
        spec = self.workload.next_op()
        self.ops_issued += 1
        self._busy = True
        if spec.kind == "get":
            self._inflight = ("get", spec.key, intended)
            self.client.get(spec.key, self._on_get_reply)
        elif spec.kind == "put":
            self._put_seq += 1
            value = (self._session, self._put_seq)
            self._inflight = ("put", spec.key, intended)
            self.client.put(spec.key, value, self._on_put_reply)
        elif spec.kind == "ro_tx":
            self._inflight = ("ro_tx", None, intended)
            self.client.ro_tx(spec.keys, self._on_tx_reply)
        else:
            raise ReproError(f"unknown op kind {spec.kind!r}")

    def _completed(self) -> None:
        kind, _, intended = self._inflight
        self._inflight = None
        self._busy = False
        self._record_latency(kind, self.sim.now - intended)
        if self._running and self._backlog:
            self._issue(self._backlog.popleft())

    # ------------------------------------------------------------------
    # Reply handlers
    # ------------------------------------------------------------------
    def _on_get_reply(self, reply: m.GetReply) -> None:
        self._checker_read(reply)
        self._completed()

    def _on_put_reply(self, reply: m.PutReply) -> None:
        self._checker_write(self._inflight[1], reply)
        self._completed()

    def _on_tx_reply(self, reply: m.RoTxReply) -> None:
        self._checker_tx(reply)
        self._completed()


def make_driver(
    sim,
    client,
    workload,
    workload_config,
    rng: random.Random,
    checker: Optional[CausalChecker] = None,
):
    """Build the driver the workload config asks for (closed or open)."""
    if workload_config.arrival == "open":
        return OpenLoopClient(
            sim=sim, client=client, workload=workload,
            rate_ops_s=workload_config.rate_ops_s, rng=rng, checker=checker,
        )
    return ClosedLoopClient(
        sim=sim, client=client, workload=workload,
        think_time_s=workload_config.think_time_s, rng=rng, checker=checker,
    )
