"""Determinism regression: the sim engine's tie-breaking contract.

Two runs of the same seed/config must produce *byte-identical* metrics
reports — not merely similar numbers.  This pins down the guarantees the
whole suite leans on (replayable fuzz failures, cacheable figure sweeps):
event ordering, RNG stream derivation, dict iteration, and float
arithmetic must all be stable run-to-run within a process.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig, WorkloadConfig
from repro.harness.experiment import run_experiment


def _config(protocol: str) -> ExperimentConfig:
    return ExperimentConfig(
        cluster=ClusterConfig(num_dcs=3, num_partitions=2,
                              keys_per_partition=40, protocol=protocol),
        workload=WorkloadConfig(kind="mixed", read_ratio=0.8, tx_ratio=0.1,
                                tx_partitions=2, clients_per_partition=2,
                                think_time_s=0.004),
        warmup_s=0.2,
        duration_s=1.0,
        seed=97,
        verify=True,
        name=f"determinism-{protocol}",
    )


def _report_bytes(protocol: str) -> bytes:
    result = run_experiment(_config(protocol))
    payload = asdict(result)
    return json.dumps(payload, sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("protocol", ("pocc", "okapi"))
def test_metrics_reports_byte_identical_across_runs(protocol):
    assert _report_bytes(protocol) == _report_bytes(protocol)


#: SHA-256 of ``_report_bytes(protocol)``, the same under any
#: PYTHONHASHSEED.  The tests above compare two runs of one tree; these
#: pin the report across commits.  Only a declared protocol change may
#: move them: anything else that does is a determinism regression.
PINNED_REPORT_SHA256 = {
    "pocc": "99ce209b17f96a8758ab6bcb04662b9f"
            "417fe8257b201879060ceffe690be703",
    "cure": "31c987c16bf1dd687320a64b87533ac3"
            "292b4e10db2ca660af75a2813044e209",
    "okapi": "49494d70bc372ec10b508e8f16849fa7"
             "f798756c19dfe208a8f4f6675b89c535",
}


@pytest.mark.parametrize("protocol", sorted(PINNED_REPORT_SHA256))
def test_metrics_reports_match_the_pinned_digest(protocol):
    digest = hashlib.sha256(_report_bytes(protocol)).hexdigest()
    assert digest == PINNED_REPORT_SHA256[protocol]


def test_summary_text_byte_identical_across_runs():
    first = run_experiment(_config("cure")).summary_text()
    second = run_experiment(_config("cure")).summary_text()
    assert first.encode() == second.encode()


def test_parallel_replicates_identical_to_serial():
    """Same config + seeds through ``parallelism=1`` and ``parallelism=4``
    must produce identical aggregate stats and a byte-identical summary
    table: the process-pool fan-out may change *where* a run executes,
    never *what* it computes or the order it is aggregated in."""
    from repro.harness.replicates import run_replicates

    config = _config("pocc")
    serial = run_replicates(config, num_seeds=3, parallelism=1)
    parallel = run_replicates(config, num_seeds=3, parallelism=4)
    assert serial.seeds == parallel.seeds
    assert serial.stats == parallel.stats
    assert (serial.summary_table().encode()
            == parallel.summary_table().encode())
    for a, b in zip(serial.results, parallel.results):
        assert asdict(a) == asdict(b)


def test_parallel_figure_markdown_byte_identical_to_serial():
    """A figure sweep routed through the pool renders byte-identical
    markdown to the serial path."""
    from repro.harness.figures import figure_1a
    from repro.harness.reportmd import render_markdown

    serial = figure_1a(scale="smoke", parallelism=1)
    parallel = figure_1a(scale="smoke", parallelism=4)
    assert serial.series == parallel.series
    serial_md = render_markdown([serial], scale="smoke")
    parallel_md = render_markdown([parallel], scale="smoke")
    assert serial_md.encode() == parallel_md.encode()


def test_different_seeds_actually_differ():
    """Guard against the degenerate way to pass the test above: the report
    must actually depend on the seed."""
    base = _config("pocc")
    a = run_experiment(base)
    b = run_experiment(ExperimentConfig(
        cluster=base.cluster, workload=base.workload, warmup_s=base.warmup_s,
        duration_s=base.duration_s, seed=base.seed + 1, verify=True,
        name=base.name,
    ))
    assert a.sim_events != b.sim_events or a.total_ops != b.total_ops
