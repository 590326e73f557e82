"""Run the ``sim_mixed`` row: ``run_experiment`` on pre-built clusters.

Both protocols run back to back with ``verify=False``; the simulated
span scales with ``--seconds`` so the pair takes about that long on the
reference host.  Event, op and message counts are a pure function of
(seed, seconds); ``run.py --repeat`` asserts they repeat exactly.
Correctness comes from a separate short ``verify=True`` run per protocol,
outside timing.
"""

from __future__ import annotations

import resource
import time
from statistics import median

from .live import KINDS, Samples, latency_metrics
from .workloads import (
    SETUP_REPEATS, SIM_S_PER_RUN_S, SIM_WARMUP_S, Workload,
)

#: Simulated warm-up + window of the verified run (plus the harness's own
#: 2 s simulated drain before the convergence check).
VERIFY_SIM_S = (0.1, 0.2)


def _build(row: Workload, seed: int, protocol: str, warmup_s: float,
           duration_s: float, verify: bool = False):
    from repro.harness.builders import build_cluster
    config = row.experiment_config(seed, protocol, warmup_s=warmup_s,
                                   duration_s=duration_s, verify=verify)
    started = time.perf_counter()
    built = build_cluster(config)
    return config, built, time.perf_counter() - started


def run_sim(row: Workload, seed: int, seconds: float, import_s: float,
            quick: bool) -> dict:
    """One timed pass over ``row.protocols`` plus the verified runs."""
    from repro.harness.experiment import run_experiment
    warmup_s = 0.1 if quick else SIM_WARMUP_S
    duration_s = max(seconds * SIM_S_PER_RUN_S - warmup_s, 0.1)
    repeats = 1 if quick else SETUP_REPEATS

    merged = Samples()
    setups: list[float] = []
    wall_s = cpu_s = 0.0
    events = ops = messages = 0
    block_prob = 0.0
    for protocol in row.protocols:
        builds = [_build(row, seed, protocol, warmup_s, duration_s)[2]
                  for _ in range(repeats - 1)]
        config, built, build_s = _build(row, seed, protocol, warmup_s,
                                        duration_s)
        setups.append(median(builds + [build_s]))
        samples = Samples()
        built.metrics.visibility_sink = samples
        for driver in built.drivers:
            driver._record_latency = samples.record_latency
        # Samples restart where the harness arms its own window (one
        # extra engine event per run, the same on every repeat).
        built.sim.schedule(warmup_s, samples.reset)
        cpu0, t0 = time.process_time(), time.perf_counter()
        result = run_experiment(config, built=built)
        wall_s += time.perf_counter() - t0
        cpu_s += time.process_time() - cpu0
        events += result.sim_events
        ops += result.total_ops
        messages += built.network.stats.messages_sent
        for kind in KINDS:
            merged.latency[kind] += samples.latency[kind]
        merged.visibility += samples.visibility
        if protocol == "pocc":
            block_prob = result.blocking_probability
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed = 0
    errors: list[str] = []
    for protocol in row.protocols:
        config, built, _ = _build(row, seed, protocol, *VERIFY_SIM_S,
                                  verify=True)
        verified = run_experiment(config, built=built)
        bad = verified.verification["violations"] + verified.divergences
        if bad:
            failed += bad
            errors.append(f"{protocol}: {verified.verification['violations']}"
                          f" violations, {verified.divergences} divergences")

    e2e = {
        "setup_s": import_s + sum(setups),
        "throughput_ops_s": ops / wall_s,
        "cpu_s_per_kop": cpu_s / ops * 1e3,
        **latency_metrics(merged.latency, merged.visibility),
        "rss_mb": rss_kb / 1024.0,
    }
    counts = {
        "sim.events": events, "sim.ops": ops, "sim.messages": messages,
        "sim.block_prob": block_prob, "sim.events_per_s": events / wall_s,
    }
    return {
        "correct": failed == 0, "attempted": ops, "failed": failed,
        "errors": errors, "e2e": e2e, "counts": counts,
        "detail": {
            "counts": counts, "setups_s": setups, "wall_s": wall_s,
            "simulated_s_per_protocol": warmup_s + duration_s,
            "samples": {k: len(merged.latency[k]) for k in KINDS}
            | {"visibility": len(merged.visibility)},
        },
    }
