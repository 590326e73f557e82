"""Event-loop policy of the live backend: the stdlib loop, always.

The live runtime runs on asyncio's default selector event loop and
nothing else; there is no loop choice to make.  :func:`install_event_loop`
remains only because the benchmark calls it before each run and records
its return value in the run fingerprint: it restores the default policy
and returns ``"asyncio"``, so fingerprints stay comparable across
versions.
"""

from __future__ import annotations

import asyncio


def install_event_loop(choice: str = "auto") -> str:
    """Restore asyncio's default event-loop policy; return ``"asyncio"``.

    ``choice`` is accepted and ignored: the stdlib loop is the only one.
    """
    asyncio.set_event_loop_policy(None)
    return "asyncio"
