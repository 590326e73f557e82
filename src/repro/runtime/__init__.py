"""The live asyncio TCP backend.

This package runs the *same* protocol cores as the deterministic
simulation, but over real sockets and wall-clock timers:

* :mod:`repro.runtime.codec` — length-prefixed wire codec (compact JSON
  payloads) for every message dataclass in
  :mod:`repro.protocols.messages`;
* :mod:`repro.runtime.transport` — the asyncio TCP transport:
  :class:`LiveHub` (per-process loop state, connection cache, address
  book) and :class:`LiveRuntime` (the per-endpoint
  :class:`repro.protocols.core.ProtocolRuntime` adapter);
* :mod:`repro.runtime.configfile` — JSON config files describing an
  :class:`repro.common.config.ExperimentConfig` deployment;
* :mod:`repro.runtime.cluster` — boot an N-DC × M-partition cluster
  in-process and drive it with the :mod:`repro.workload` generators,
  feeding the :mod:`repro.verification` causal checker;
* :mod:`repro.runtime.chaos` — kill/restart fault injection against a
  persistent cluster (one partition server as a real OS process,
  SIGKILLed and recovered from its WAL — see ``docs/persistence.md``);
* :mod:`repro.runtime.serve` / :mod:`repro.runtime.bench_live` — the
  ``repro-serve`` and ``repro-bench-live`` command-line entry points.
"""

from repro.runtime.chaos import CrashFault, CrashReport, run_crash_experiment
from repro.runtime.cluster import LiveCluster, LiveReport, run_live_experiment
from repro.runtime.transport import AddressBook, LiveHub, LiveRuntime

__all__ = [
    "AddressBook",
    "CrashFault",
    "CrashReport",
    "LiveCluster",
    "LiveHub",
    "LiveReport",
    "LiveRuntime",
    "run_crash_experiment",
    "run_live_experiment",
]
