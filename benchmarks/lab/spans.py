"""The traced run: spans recorded from outside, around each layer's entry.

:func:`install` replaces the layers' entry points (module functions and
class methods of the program) with wrappers defined here; nothing in the
program changes.  Every wrapper call records one span — layer, start,
end, parent — into in-memory arrays that :meth:`Tracer.dump` writes out
when the run ends.  A layer's *self time* is its span's duration minus
the part its child spans cover; spans use the thread's CPU clock, so the
named rows plus the residual ``loop_other`` (process CPU the wrappers
never saw: asyncio, sockets, timers) add up to the process CPU by
construction.

Wrappers are installed only in a workload's own child process and are
never removed: the process ends with the run.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable

from .stats import percentile
from .workloads import BUDGET_LAYERS

#: Layers a wrapper can name (everything but the residual).
LAYERS = BUDGET_LAYERS[:-1]


class Tracer:
    """Span buffer plus running per-layer self time and entry counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        # One entry per span; parent is the index of the enclosing span.
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []   # [span index, child seconds]

    def wrap(self, layer: str, fn: Callable, counted: bool = True):
        """``fn`` with a span around it.  ``counted=False`` marks inner
        entry points of a layer whose outer one already counts the call."""
        index = LAYERS.index(layer)
        clock = time.thread_time
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = len(self.layer)
            self.layer.append(index)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                self.start[span] = started
                self.end[span] = ended
                self.self_s[index] += duration - frame[1]
                if counted:
                    self.calls[index] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (the window starts now)."""
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        for buffer in (self.layer, self.parent, self.start, self.end):
            del buffer[:]

    def budget(self, cpu_s: float, ops: int) -> dict[str, float]:
        """The per-op budget table: named rows, residual, sums."""
        out: dict[str, float] = {}
        named = 0.0
        for index, layer in enumerate(LAYERS):
            named += self.self_s[index]
            out[f"budget.{layer}.self_us_per_op"] = (
                self.self_s[index] / ops * 1e6)
            out[f"budget.{layer}.calls_per_op"] = self.calls[index] / ops
        out["budget.loop_other.self_us_per_op"] = (cpu_s - named) / ops * 1e6
        out["budget.loop_other.calls_per_op"] = 0.0
        out["budget.sum_us_per_op"] = sum(
            out[f"budget.{layer}.self_us_per_op"] for layer in BUDGET_LAYERS)
        out["budget.cpu_us_per_op"] = cpu_s / ops * 1e6
        return out

    def dump(self, path: Path) -> None:
        """Write the span buffer: a JSON header line, then raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"layers": list(LAYERS), "spans": len(self.layer),
                  "clock": "thread_time",
                  "arrays": ["layer:int8", "parent:long", "start:float64",
                             "end:float64"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for buffer in (self.layer, self.parent, self.start, self.end):
                buffer.tofile(handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the live request and write paths."""
    from repro.persistence.manager import PartitionDurability
    from repro.persistence.wal import GroupCommit, WriteAheadLog
    from repro.protocols.base import CausalClient, CausalServer
    from repro.protocols.core import ProtocolCore
    from repro.runtime import codec
    from repro.runtime.transport import LiveHub, LiveRuntime
    from repro.storage.chain import VersionChain
    from repro.storage.store import PartitionStore
    from repro.workload.driver import ClosedLoopClient, OpenLoopClient

    def patch(owner, name, layer, counted=True):
        setattr(owner, name,
                tracer.wrap(layer, getattr(owner, name), counted))

    patch(codec, "encode_frame", "codec_encode")
    patch(codec, "loads", "codec_decode")
    patch(codec.FrameDecoder, "feed", "codec_decode")
    # One count per frame handed to a socket queue; the runtime's send
    # entry points around it belong to the same layer.
    patch(LiveHub, "post_frame", "transport_post")
    patch(LiveRuntime, "send", "transport_post", counted=False)
    patch(LiveRuntime, "send_fanout", "transport_post", counted=False)
    patch(CausalServer, "on_message", "server_core")
    # Clients inherit on_message; give them their own traced copy so the
    # servers' super().on_message() is not counted twice.
    CausalClient.on_message = tracer.wrap("client_core",
                                          ProtocolCore.on_message)
    for name in ("get", "put", "ro_tx"):
        patch(CausalClient, name, "client_core", counted=False)
    for name in ("_arrival_tick", "_issue", "_on_get_reply",
                 "_on_put_reply", "_on_tx_reply"):
        patch(OpenLoopClient, name, "driver", counted=name == "_issue")
    for name in ("_issue_next", "_on_get_reply", "_on_put_reply",
                 "_on_tx_reply"):
        patch(ClosedLoopClient, name, "driver",
              counted=name == "_issue_next")
    patch(PartitionStore, "insert", "storage")
    patch(PartitionStore, "freshest", "storage")
    patch(PartitionStore, "collect", "storage")
    patch(VersionChain, "find_freshest", "storage")
    patch(PartitionDurability, "append_version", "wal")
    patch(PartitionDurability, "snapshot", "wal", counted=False)
    patch(GroupCommit, "commit", "wal", counted=False)
    patch(WriteAheadLog, "flush", "wal", counted=False)

    # Timer-driven work (heartbeats, stabilization and GC rounds, clock
    # waits) never passes on_message: attribute each timer callback to
    # the core that armed it.
    def traced_timer(method_name):
        original = getattr(LiveRuntime, method_name)

        def schedule(runtime, when, fn, *args):
            layer = ("server_core" if isinstance(runtime.core, CausalServer)
                     else "client_core")
            return original(runtime, when, tracer.wrap(layer, fn, False),
                            *args)

        setattr(LiveRuntime, method_name, schedule)

    for name in ("schedule", "schedule_at", "schedule_flush"):
        traced_timer(name)


def replication_stages(trace_dir: Path) -> dict[str, float]:
    """p50 of each PUT-lifecycle stage from the program's own trace files.

    Stages are consecutive and add up to ``put_to_visible`` per (write,
    remote replica): ``replicate_sent`` is emitted when the frames are
    handed to the runtime, which under group commit precedes the sync
    that releases them, so the hand-off is clamped to the sync.
    """
    from repro.obs.tracing import group_by_trace, read_spans
    spans: list[dict] = []
    for path in sorted(trace_dir.glob("trace-*.jsonl")):
        spans.extend(read_spans(str(path)))
    stages: dict[str, list[float]] = {
        "put_to_synced": [], "synced_to_sent": [], "sent_to_installed": [],
        "installed_to_visible": [], "put_to_visible": [],
    }
    durable = False
    for group in group_by_trace(spans).values():
        # Remote replicas log the version too, so wal_synced appears once
        # per replica: the origin's is the one on the node that took the PUT.
        home = next((s["node"] for s in group if s["event"] == "put"), None)
        origin = {s["event"]: s["t"] for s in group if s["node"] == home
                  and s["event"] in ("put", "wal_synced", "replicate_sent")}
        if "replicate_sent" not in origin:
            continue
        put = origin["put"]
        durable = durable or "wal_synced" in origin
        synced = origin.get("wal_synced", put)
        sent = max(origin["replicate_sent"], synced)
        by_node: dict[str, dict[str, float]] = {}
        for s in group:
            if s["event"] in ("installed", "visible") and s["node"] != home:
                by_node.setdefault(s["node"], {})[s["event"]] = s["t"]
        for remote in by_node.values():
            if "installed" not in remote or "visible" not in remote:
                continue
            stages["put_to_synced"].append(synced - put)
            stages["synced_to_sent"].append(sent - synced)
            stages["sent_to_installed"].append(remote["installed"] - sent)
            stages["installed_to_visible"].append(
                remote["visible"] - remote["installed"])
            stages["put_to_visible"].append(remote["visible"] - put)
    out = {}
    for stage, values in stages.items():
        out[f"repl.{stage}_ms"] = (
            percentile(values, 50) * 1e3 if values else None)
    if not durable:
        out["repl.put_to_synced_ms"] = None
    out["repl.samples"] = len(stages["put_to_visible"])
    return out
