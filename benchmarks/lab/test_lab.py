"""Self-tests of the benchmark (collected by the tier-1 suite).

They check the benchmark's own machinery — tables against the contract
file, the percentile helper, that the replayed checker and the
durability audit *can* fail, the compare verdicts — and that a
``--quick`` pass of one live workload and of the simulator prints every
declared metric.  No test asserts a performance number.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LAB = Path(__file__).resolve().parent
ROOT = LAB.parent.parent
sys.path.insert(0, str(LAB.parent))
sys.path.insert(0, str(ROOT / "src"))

from lab import audit, compare, stats  # noqa: E402
from lab.spans import LAYERS, Tracer  # noqa: E402
from lab.workloads import (  # noqa: E402
    E2E_METRICS, PER_LAYER_METRICS, WORKLOADS, WORKLOADS_BY_NAME,
    benchmark_json,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# The tables and the contract file
# ----------------------------------------------------------------------
def test_names_units_and_count_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(E2E_METRICS) <= 16
    assert 1 <= len(PER_LAYER_METRICS) <= 128
    names = ([w.name for w in WORKLOADS] + [m.name for m in E2E_METRICS]
             + [m.name for m in PER_LAYER_METRICS])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in E2E_METRICS + PER_LAYER_METRICS:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for metric in E2E_METRICS:
        assert 0 < metric.bound <= 0.25, metric
    setup = next(m for m in E2E_METRICS if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in E2E_METRICS)
    for workload in WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
        assert abs(sum(workload.mix) - 1.0) < 1e-9


def test_benchmark_json_is_generated_from_the_table():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert committed["paths"] == ["benchmarks/lab"]
    assert 1 <= committed["run_seconds"] <= 60


def test_readme_names_every_workload_and_metric():
    readme = (LAB / "README.md").read_text()
    for name in ([w.name for w in WORKLOADS]
                 + [m.name for m in E2E_METRICS]):
        assert f"`{name}`" in readme, name
    for metric in PER_LAYER_METRICS:
        family = metric.name.rsplit(".", 1)[0]
        assert metric.name in readme or family in readme, metric.name


def test_workload_rows_build_valid_configs():
    for workload in WORKLOADS:
        for protocol in workload.protocols:
            config = workload.experiment_config(
                7, protocol, data_dir="unused", trace_dir="")
            config.validate()
            assert config.verify is False
            assert not config.cluster.repl_batch.enabled
            assert not config.cluster.anti_entropy.enabled
            assert not config.cluster.membership.enabled
            assert not config.cluster.telemetry.enabled


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_against_a_known_sample():
    sample = list(range(1, 101))          # 1..100, shuffled order below
    sample = sample[50:] + sample[:50]
    assert stats.percentile(sample, 50) == 50
    assert stats.percentile(sample, 95) == 95
    assert stats.percentile(sample, 99) == 99
    assert stats.percentile(sample, 100) == 100
    assert stats.percentile([3.0], 95) == 3.0
    assert stats.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    assert stats.spread([10, 10, 10, 10]) == 0
    q1, median, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7])
    assert (q1, median, q3) == (2, 4, 6)
    assert stats.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)


def test_tracer_self_time_excludes_children_and_rows_add_up():
    tracer = Tracer()
    tracer.enabled = True

    def burn(n):
        return sum(range(n))

    inner = tracer.wrap("storage", lambda: burn(200_000))
    outer = tracer.wrap("server_core", lambda: (burn(50_000), inner()))
    outer()
    layers = {name: LAYERS.index(name)
              for name in ("storage", "server_core")}
    assert tracer.calls[layers["storage"]] == 1
    assert list(tracer.parent) == [-1, 0]
    total = tracer.end[0] - tracer.start[0]
    child = tracer.end[1] - tracer.start[1]
    assert tracer.self_s[layers["server_core"]] == pytest.approx(
        total - child)
    budget = tracer.budget(cpu_s=total * 2, ops=4)
    assert budget["budget.sum_us_per_op"] == pytest.approx(
        budget["budget.cpu_us_per_op"])
    assert budget["budget.loop_other.self_us_per_op"] == pytest.approx(
        total / 4 * 1e6)


# ----------------------------------------------------------------------
# The checks can fail
# ----------------------------------------------------------------------
def _history(stale: bool) -> audit.HistoryRecorder:
    recorder = audit.HistoryRecorder()
    for client in ("writer", "reader"):
        recorder.register_client(client)
    old, new = ("k", 0, 100), ("k", 0, 200)
    recorder.on_write("writer", "k", old, 0.1)
    recorder.on_write("writer", "k", new, 0.2)
    recorder.on_read("reader", "k", new, 0.3)
    recorder.on_tx_read("reader", [("k", new), ("j", ("j", 0, 0))], 0.4)
    # After reading `new`, the reader may never be served `old` again.
    recorder.on_read("reader", "k", old if stale else new, 0.5)
    return recorder


def test_replayed_checker_passes_a_causal_history_and_flags_a_stale_read():
    assert audit.replay(_history(stale=False)).violations == []
    violations = audit.replay(_history(stale=True)).violations
    assert [v.kind for v in violations] == ["causal_get"]
    assert violations[0].got == ("k", 0, 100)
    # A sampled replay skips the unchecked session's reads, not writes.
    sampled = audit.replay(_history(stale=True), every=2)
    assert sampled.writes_seen == 2 and sampled.reads_checked == 0


def test_durability_audit_flags_a_deleted_wal_segment(tmp_path):
    from repro.cluster.topology import Topology
    from repro.common.config import PersistenceConfig
    from repro.persistence.manager import PartitionDurability
    from repro.storage.version import Version
    topology = Topology(2, 1)
    persistence = PersistenceConfig(enabled=True, data_dir=str(tmp_path),
                                    fsync="off")
    acknowledged = []
    for address in topology.all_servers():
        durability = PartitionDurability(tmp_path, address, persistence)
        durability.recover()
        for ut in (10, 20, 30):
            version = Version(key=f"k{ut}", value=ut, sr=address.dc,
                              ut=ut + address.dc, dv=(0, 0))
            durability.append_version(version)
            acknowledged.append(version.identity())
        durability.close()
    assert audit.unrecovered_puts(tmp_path, topology, persistence,
                                  acknowledged) == []
    for segment in (tmp_path / "dc1-p0").glob("wal-*.log"):
        segment.unlink()
    lost = audit.unrecovered_puts(tmp_path, topology, persistence,
                                  acknowledged)
    assert sorted(lost) == [("k10", 1, 11), ("k20", 1, 21), ("k30", 1, 31)]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _item(median, iqr_share=0.01, unit="ms"):
    half = median * iqr_share / 2
    return {"median": median, "q1": median - half, "q3": median + half,
            "n": 5, "unit": unit}


def test_compare_verdicts():
    base = _item(10.0)
    assert compare.verdict(base, _item(10.5), "lower", 0.10)[0] \
        == "within-bound"
    assert compare.verdict(base, _item(11.5), "lower", 0.10)[0] \
        == "regressed"
    assert compare.verdict(base, _item(9.0), "lower", 0.10)[0] == "improved"
    assert compare.verdict(base, _item(9.0), "higher", 0.05)[0] \
        == "regressed"
    assert compare.verdict(base, _item(10.6), "higher", 0.05)[0] \
        == "improved"
    noisy = _item(10.0, iqr_share=0.2)
    assert compare.verdict(noisy, _item(13.0), "lower", 0.10)[0] \
        == "unresolved"
    word, worsening = compare.verdict(base, _item(11.5), "lower", 0.10)
    assert worsening == pytest.approx(0.15)


def _report(get_p50, quick=False, failed_share=0.0, nproc=2):
    bounds = compare.load_bounds()
    entry = {"failed_share": failed_share, "per_layer": {},
             "end_to_end": {name: _item(5.0) for name in bounds}}
    entry["end_to_end"]["get_p50_ms"] = _item(get_p50)
    return {"quick": quick, "run_seconds": 10,
            "fingerprint": {"nproc": nproc, "quick": quick},
            "workloads": {"mixed_open": entry}}


def test_compare_refuses_and_exit_conditions(tmp_path):
    bounds = compare.load_bounds()
    assert compare.refuse(_report(5.0), _report(5.0)) is None
    assert "quick" in compare.refuse(_report(5.0), _report(5.0, quick=True))
    assert "nproc" in compare.refuse(_report(5.0), _report(5.0, nproc=8))
    lines, bad = compare.compare(_report(5.0), _report(5.1), bounds)
    assert not bad and any("within-bound" in line for line in lines)
    # +40% is beyond any bound the contract allows (25% at most).
    lines, bad = compare.compare(_report(5.0), _report(7.0), bounds)
    assert bad and any("regressed" in line and "B/A = 1.4000" in line
                       for line in lines)
    _, bad = compare.compare(_report(5.0), _report(5.0, failed_share=0.1),
                             bounds)
    assert bad
    for name, report in (("a", _report(5.0)), ("b", _report(7.0))):
        (tmp_path / f"{name}.json").write_text(json.dumps(report))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 1
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "a.json")]) == 0


# ----------------------------------------------------------------------
# A --quick pass prints every declared metric
# ----------------------------------------------------------------------
def _quick_pass(tmp_path, workload: str) -> dict:
    out = tmp_path / f"{workload}.json"
    done = subprocess.run(
        [sys.executable, str(LAB / "run.py"), "--quick", "--seconds", "1",
         "--workload", workload, "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert report["quick"] is True and report["fingerprint"]["quick"]
    entry = report["workloads"][workload]
    assert entry["correct"] and entry["ops_failed"] == 0
    assert entry["ops_attempted"] > 0
    assert set(entry["end_to_end"]) == {m.name for m in E2E_METRICS}
    assert set(entry["per_layer"]) == {m.name for m in PER_LAYER_METRICS}
    for name, item in entry["end_to_end"].items():
        assert item["n"] == 1 and item["median"] > 0, name
        assert f"  {name} " in done.stdout, name
    for name in entry["per_layer"]:
        assert name in done.stdout, name
    return report


def test_quick_pass_of_a_live_workload(tmp_path):
    report = _quick_pass(tmp_path, "write_durable")
    layers = report["workloads"]["write_durable"]["per_layer"]
    row = WORKLOADS_BY_NAME["write_durable"]
    assert row.durable
    for name in ("wal.records_per_put", "budget.wal.self_us_per_op",
                 "budget.loop_other.self_us_per_op", "codec.encode_us",
                 "repl.put_to_visible_ms", "repl.put_to_synced_ms"):
        assert layers[name]["median"] is not None, name
    assert layers["budget.sum_us_per_op"]["median"] == pytest.approx(
        layers["budget.cpu_us_per_op"]["median"])
    # Not a live in-situ metric: null in the report, never a made-up 0.
    assert layers["sim.events"]["median"] is None
    # compare.py refuses quick output.
    assert "quick" in compare.refuse(report, report)


def test_quick_pass_of_the_simulator(tmp_path):
    report = _quick_pass(tmp_path, "sim_mixed")
    layers = report["workloads"]["sim_mixed"]["per_layer"]
    for name in ("sim.events", "sim.ops", "sim.messages",
                 "sim.events_per_s"):
        assert layers[name]["median"] > 0, name
    # No live row in this pass: no traced child, hence no micro-benches.
    assert layers["budget.cpu_us_per_op"]["median"] is None
    assert layers["sim.engine_events_per_s"]["median"] is None
