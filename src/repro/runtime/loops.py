"""Event-loop selection for the live backend.

uvloop (the ``fast`` extra) roughly doubles asyncio's socket throughput
by replacing the selector event loop with libuv; everything in the live
runtime is loop-implementation-agnostic, so selection is one policy
switch at process startup.  ``"auto"`` uses uvloop when importable and
falls back to the stdlib loop silently, so hosts without the extra keep
working.  The benchmark records the value :func:`install_event_loop`
returns in its run fingerprint, so numbers from different loops are
never compared.
"""

from __future__ import annotations

import asyncio

from repro.common.errors import ConfigError

#: Valid values of ``TransportTuningConfig.event_loop`` / ``--event-loop``.
EVENT_LOOP_CHOICES = ("auto", "uvloop", "asyncio")


def install_event_loop(choice: str = "auto") -> str:
    """Install the requested event-loop policy; return what will run.

    Call once per process, before ``asyncio.run``.  ``"uvloop"`` raises
    :class:`ConfigError` when uvloop is not importable; ``"auto"`` falls
    back to ``"asyncio"``.
    """
    if choice not in EVENT_LOOP_CHOICES:
        raise ConfigError(
            f"event_loop must be one of {EVENT_LOOP_CHOICES}, not {choice!r}"
        )
    if choice == "asyncio":
        asyncio.set_event_loop_policy(None)  # back to the stdlib default
        return "asyncio"
    try:
        import uvloop  # type: ignore
    except ImportError:
        if choice == "uvloop":
            raise ConfigError(
                "event_loop='uvloop' but uvloop is not installed; "
                "install the 'fast' extra (pip install 'occ-repro[fast]') "
                "or use --event-loop auto"
            ) from None
        return "asyncio"
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return "uvloop"
