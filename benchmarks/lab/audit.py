"""Correctness outside the timed window.

A timed run never carries the causal checker: the drivers feed a
:class:`HistoryRecorder` (same hook surface, one list append per event)
and :func:`replay` pushes the recorded history through the real
``CausalChecker`` after the window, in the order the checker would have
seen it online — so the verdict is the same and its cost is not in any
measured number.  :func:`unrecovered_puts` is the durability audit of
``write_durable``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

READ, WRITE, TX_READ, RESET = range(4)


class HistoryRecorder:
    """Append-only stand-in for ``CausalChecker`` during a timed run."""

    def __init__(self) -> None:
        self.clients: list[str] = []
        self.events: list[tuple] = []

    def register_client(self, client: str) -> None:
        self.clients.append(client)

    def on_read(self, client, key, vid, time_s) -> None:
        self.events.append((READ, client, key, vid, time_s))

    def on_write(self, client, key, vid, time_s) -> None:
        self.events.append((WRITE, client, key, vid, time_s))

    def on_tx_read(self, client, items, time_s) -> None:
        # A tuple of tuples of atoms leaves the cyclic GC's tracking; a
        # list would keep every recorded transaction in its scans.
        self.events.append((TX_READ, client, None, items, time_s))

    def on_session_reset(self, client, time_s) -> None:
        self.events.append((RESET, client, None, None, time_s))

    def acknowledged_puts(self) -> list[tuple[Any, int, int]]:
        """``(key, sr, ut)`` of every PUT a client saw acknowledged."""
        return [event[3] for event in self.events if event[0] == WRITE]


def replay(recorder: HistoryRecorder, every: int = 1):
    """Run the recorded history through a fresh ``CausalChecker``.

    ``every > 1`` checks a fixed sample: every ``every``-th session is
    replayed in full, the others contribute only their writes (so every
    read-from edge of a checked session still resolves).  Dropping a
    session's reads can only shrink the causal pasts the checker builds,
    so sampling never raises a false violation; it trades coverage for a
    replay that fits the run's time budget where pasts span thousands
    of keys.
    """
    from repro.verification.checker import CausalChecker
    checker = CausalChecker()
    for client in recorder.clients:
        checker.register_client(client)
    checked = set(recorder.clients[::every])
    for kind, client, key, payload, time_s in recorder.events:
        if kind != WRITE and client not in checked:
            continue
        if kind == READ:
            checker.on_read(client, key, payload, time_s)
        elif kind == WRITE:
            checker.on_write(client, key, payload, time_s)
        elif kind == TX_READ:
            checker.on_tx_read(client, payload, time_s)
        else:
            checker.on_session_reset(client, time_s)
    return checker


def unrecovered_puts(data_dir: str | Path, topology, persistence,
                     acknowledged: list[tuple[Any, int, int]]) -> list[tuple]:
    """Acknowledged PUTs a restart from ``data_dir`` would not serve.

    Every partition directory is recovered the way a booting server
    recovers it (``PartitionDurability.recover``).  A PUT counts as
    recovered when its origin data center's directories hold it or a
    later version of its key: garbage collection and snapshots drop
    superseded versions without losing anything a reader could miss.
    """
    from repro.common.types import version_order_key
    from repro.persistence.manager import PartitionDurability
    best: dict[tuple[int, Any], tuple[int, int]] = {}
    for address in topology.all_servers():
        durability = PartitionDurability(data_dir, address, persistence)
        try:
            recovered = durability.recover()
        finally:
            durability.close()
        for version in recovered.versions:
            slot = (address.dc, version.key)
            order = version.order_key
            if slot not in best or order > best[slot]:
                best[slot] = order
    return [
        (key, sr, ut) for key, sr, ut in acknowledged
        if best.get((sr, key), (-1, -1)) < version_order_key(ut, sr)
    ]
