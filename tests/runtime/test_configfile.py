"""Config-file hydration: JSON deployment descriptions round-trip."""

import pytest

from repro.common.config import ExperimentConfig
from repro.common.errors import ConfigError
from repro.runtime.configfile import (
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
    save_experiment_config,
)


def test_minimal_description_takes_defaults():
    config = experiment_config_from_dict({
        "cluster": {"num_dcs": 2, "num_partitions": 2, "protocol": "cure"},
        "duration_s": 5.0,
    })
    assert config.cluster.protocol == "cure"
    assert config.cluster.num_dcs == 2
    assert config.duration_s == 5.0
    # Untouched sections keep the dataclass defaults.
    assert config.workload.think_time_s == ExperimentConfig().workload.think_time_s
    assert config.cluster.protocol_config.heartbeat_interval_s > 0


def test_round_trip_through_dict_is_lossless():
    original = ExperimentConfig()
    tree = experiment_config_to_dict(original)
    restored = experiment_config_from_dict(tree)
    assert restored == original


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "cluster.json"
    original = experiment_config_from_dict({
        "cluster": {
            "num_dcs": 2, "num_partitions": 3, "protocol": "okapi",
            "protocol_config": {"heartbeat_interval_s": 0.002},
        },
        "workload": {"kind": "mixed", "read_ratio": 0.9,
                     "clients_per_partition": 1},
        "seed": 99,
    })
    save_experiment_config(original, str(path))
    assert load_experiment_config(str(path)) == original


def test_unknown_keys_are_rejected_not_ignored():
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_config_from_dict({"cluster": {"num_dsc": 2}})
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_config_from_dict({"wokload": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_config_from_dict(
            {"cluster": {"protocol_config": {"heartbeats": 1}}}
        )


def test_persistence_block_round_trips(tmp_path):
    path = tmp_path / "cluster.json"
    original = experiment_config_from_dict({
        "cluster": {"num_dcs": 2, "num_partitions": 2},
        "persistence": {"enabled": True, "data_dir": "/var/lib/repro",
                        "fsync": "always", "snapshot_interval_s": 5.0},
    })
    assert original.persistence.enabled
    assert original.persistence.fsync == "always"
    save_experiment_config(original, str(path))
    assert load_experiment_config(str(path)) == original
    # Omitted block means disabled, with defaults.
    assert not experiment_config_from_dict({}).persistence.enabled


def test_persistence_block_is_validated():
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_config_from_dict({"persistence": {"fsnc": "always"}})
    with pytest.raises(ConfigError, match="fsync"):
        experiment_config_from_dict(
            {"persistence": {"enabled": True, "data_dir": "/d",
                             "fsync": "sometimes"}}
        )
    with pytest.raises(ConfigError, match="data_dir"):
        experiment_config_from_dict({"persistence": {"enabled": True}})


def test_invalid_values_fail_validation(tmp_path):
    with pytest.raises(ConfigError):
        experiment_config_from_dict({"cluster": {"num_dcs": 1}})
    path = tmp_path / "broken.json"
    path.write_text("not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment_config(str(path))


def test_repl_batch_cli_flags_enable_protocol_batching():
    from repro.runtime.bench_live import build_parser
    from repro.runtime.cli import config_from_args

    args = build_parser().parse_args(
        ["--protocol", "pocc", "--repl-batch", "32",
         "--repl-flush-ms", "2.5"]
    )
    config = config_from_args(args)
    batch = config.cluster.repl_batch
    assert batch.enabled
    assert batch.max_versions == 32
    assert batch.flush_ms == 2.5

    # Either flag alone turns batching on; the other keeps its default.
    args = build_parser().parse_args(["--repl-flush-ms", "10"])
    batch = config_from_args(args).cluster.repl_batch
    assert batch.enabled and batch.max_versions == 64
    assert batch.flush_ms == 10.0

    # And without the flags it stays off (the sim-report-identical path).
    args = build_parser().parse_args([])
    assert not config_from_args(args).cluster.repl_batch.enabled


def test_transport_block_is_rejected_as_unknown_key():
    # The live backend has one I/O configuration (stdlib loop, asyncio's
    # TCP_NODELAY, kernel buffer sizes): no "transport" block is left.
    with pytest.raises(ConfigError, match=r"unknown key.*'transport'"):
        experiment_config_from_dict(
            {"cluster": {"transport": {"tcp_nodelay": True}}}
        )
