"""JSON config files for live deployments.

``repro-serve`` and ``repro-bench-live`` boot clusters from a JSON file
describing an :class:`repro.common.config.ExperimentConfig` — the same
dataclass tree the simulation uses, so a deployment can be replayed on
either backend from one description.  Example::

    {
      "cluster": {"num_dcs": 2, "num_partitions": 2, "protocol": "pocc"},
      "workload": {"kind": "mixed", "read_ratio": 0.9,
                   "clients_per_partition": 2},
      "persistence": {"enabled": true, "data_dir": "/var/lib/repro",
                      "fsync": "always"},
      "duration_s": 10.0,
      "seed": 7
    }

Unknown keys are rejected (a typo must not silently fall back to a
default); omitted keys take the dataclass defaults.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.common.config import (
    AntiEntropyConfig,
    ClockConfig,
    ClusterConfig,
    ExperimentConfig,
    LatencyConfig,
    MembershipConfig,
    PersistenceConfig,
    ProtocolConfig,
    ReplicationBatchConfig,
    ServiceTimeConfig,
    TelemetryConfig,
    WorkloadConfig,
)
from repro.common.errors import ConfigError


def _build(cls, data: dict[str, Any], context: str):
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {sorted(unknown)}; "
            f"valid keys: {sorted(field_names)}"
        )
    return cls(**data)


def _tuples(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(row) for row in rows)


def experiment_config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Hydrate an :class:`ExperimentConfig` from a plain JSON-style dict."""
    data = dict(data)
    cluster_data = dict(data.pop("cluster", {}))
    for key, sub_cls in (("latency", LatencyConfig),
                         ("clocks", ClockConfig),
                         ("service", ServiceTimeConfig),
                         ("protocol_config", ProtocolConfig),
                         ("repl_batch", ReplicationBatchConfig),
                         ("anti_entropy", AntiEntropyConfig),
                         ("telemetry", TelemetryConfig),
                         ("membership", MembershipConfig)):
        if key in cluster_data:
            sub = dict(cluster_data[key])
            if key == "latency" and "inter_dc_s" in sub:
                sub["inter_dc_s"] = _tuples(sub["inter_dc_s"])
            if (key == "membership"
                    and sub.get("initial_members") is not None):
                sub["initial_members"] = tuple(sub["initial_members"])
            cluster_data[key] = _build(sub_cls, sub, f"cluster.{key}")
    cluster = _build(ClusterConfig, cluster_data, "cluster")
    workload = _build(WorkloadConfig, dict(data.pop("workload", {})),
                      "workload")
    persistence = _build(PersistenceConfig,
                         dict(data.pop("persistence", {})), "persistence")
    config = _build(
        ExperimentConfig,
        {**data, "cluster": cluster, "workload": workload,
         "persistence": persistence},
        "experiment",
    )
    config.validate()
    return config


def experiment_config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """The JSON-ready inverse of :func:`experiment_config_from_dict`."""
    tree = dataclasses.asdict(config)
    latency = tree["cluster"]["latency"]
    latency["inter_dc_s"] = [list(row) for row in latency["inter_dc_s"]]
    return tree


def load_experiment_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON deployment description."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return experiment_config_from_dict(data)


def save_experiment_config(config: ExperimentConfig, path: str) -> None:
    """Write ``config`` as a JSON deployment description."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(experiment_config_to_dict(config), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
