#!/usr/bin/env python3
"""The benchmark's one command.

Single run (what ``BENCHMARK.json`` names; one workload, this process)::

    python3 benchmarks/lab/run.py --workload mixed_open --seed 7 \\
        --seconds 10 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.

Whole pass (no ``--trace``; every workload in a fresh child process, one
at a time, untraced then traced)::

    python3 benchmarks/lab/run.py [--seed 7] [--workload NAME]
        [--repeat N] [--calibrate] [--no-trace] [--out FILE]

prints every metric by name with unit, sample count and direction,
writes the same to ``--out``, and exits non-zero if any run's output was
not correct.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()          # set-up time starts before the imports

import argparse                    # noqa: E402
import json                        # noqa: E402
import os                          # noqa: E402
import subprocess                  # noqa: E402
import sys                         # noqa: E402
from pathlib import Path           # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from lab import stats              # noqa: E402
from lab.workloads import (        # noqa: E402
    BUDGET_LAYERS, DEFAULT_SEED, E2E_METRICS, PER_LAYER_METRICS,
    RUN_SECONDS, WORKLOADS, WORKLOADS_BY_NAME, benchmark_json,
)

DETAIL_PREFIX = "LAB-DETAIL "
CHILD_TIMEOUT_S = 170

#: The measuring process's own allocator and hashing, pinned by one
#: re-exec.  asyncio allocates a 256 KiB buffer per socket read; with
#: glibc's default thresholds that buffer makes the heap top grow and be
#: trimmed again on every read — or not, depending on where unrelated
#: objects happen to sit — and saturated throughput then reads 4,750 or
#: 6,000 ops/s for the same code, flipping with the length of an
#: environment variable.  With trimming off and the buffers served from
#: the heap the flip is gone (spread 1.7% over six layouts).  The hash
#: seed is pinned so dict layouts do not differ between runs either.
PINNED_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "4194304",
    "MALLOC_TRIM_THRESHOLD_": "268435456",
    "MALLOC_TOP_PAD_": "16777216",
    "PYTHONHASHSEED": "0",
}


def pin_process_environment() -> None:
    """Re-exec this interpreter once with :data:`PINNED_ENV` set."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {**os.environ, **PINNED_ENV})


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------
def single_run(args) -> int:
    stats.add_source_path()
    pin_process_environment()
    from repro.runtime import codec
    from repro.runtime.loops import install_event_loop
    event_loop = install_event_loop("auto")
    from lab import live, micro, simrun
    import repro.harness.experiment  # noqa: F401  (set-up pays for it)
    import repro.runtime.cluster     # noqa: F401
    import_s = time.perf_counter() - _T0

    row = WORKLOADS_BY_NAME[args.workload]
    declared = PER_LAYER_METRICS if args.trace else E2E_METRICS
    started = time.perf_counter()
    if row.backend == "sim":
        run = simrun.run_sim(row, args.seed, args.seconds, import_s,
                             args.quick)
        values = run["counts"] if args.trace else run["e2e"]
    elif args.trace:
        run = live.run_traced(row, args.seed, args.seconds, args.quick)
        values = run["metrics"]
    else:
        run = live.run_untraced(row, args.seed, args.seconds, import_s,
                                args.quick)
        values = run["metrics"]
    if args.trace and args.micro:
        values.update(micro.run_all())

    metrics = {m.name: values.get(m.name) for m in declared}
    missing = [name for name, value in metrics.items() if value is None]
    if missing and not args.trace:
        raise SystemExit(f"{row.name}: no samples for {missing}")
    detail = {
        "workload": row.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - started,
        "fingerprint": stats.fingerprint(codec.SERIALIZER, event_loop,
                                         args.quick),
        "not_applicable": missing, "errors": run["errors"],
        "metrics": metrics, "detail": run["detail"],
    }
    print(DETAIL_PREFIX + json.dumps(detail))
    # The contract line carries numbers only: a per-layer metric that
    # does not apply to this workload reads 0 there, null in the detail.
    print(json.dumps({
        "correct": run["correct"], "attempted": max(run["attempted"], 1),
        "failed": run["failed"],
        "metrics": {
            m.name: {"value": metrics[m.name] or 0.0, "unit": m.unit}
            for m in declared
        },
    }))
    for error in run["errors"]:
        print(f"{row.name}: {error}", file=sys.stderr)
    return 0 if run["correct"] else 1


# ----------------------------------------------------------------------
# The whole pass: children, aggregation, printing
# ----------------------------------------------------------------------
def _child(name: str, args, trace: int, micro: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--micro", str(int(micro))]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        raise SystemExit(f"{name} (trace {trace}) printed no result:\n"
                         f"{done.stdout}\n{done.stderr}")
    detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
    contract = json.loads(lines[-1])
    detail.update(correct=contract["correct"], failed=contract["failed"],
                  attempted=contract["attempted"],
                  exit_code=done.returncode)
    return detail


def _summary(values: list) -> dict:
    present = [v for v in values if v is not None]
    if not present:
        return {"n": 0, "median": None, "q1": None, "q3": None,
                "values": values}
    q1, median, q3 = stats.quartiles(present)
    return {"n": len(present), "median": median, "q1": q1, "q3": q3,
            "values": values}


def run_pass(args) -> int:
    rows = ([WORKLOADS_BY_NAME[args.workload]] if args.workload
            else list(WORKLOADS))
    # The simulator's per-layer metrics are the exact counts its untraced
    # run already made, so only live rows get a traced child.
    live_rows = [row for row in rows if row.backend == "live"]
    untraced: dict[str, list[dict]] = {row.name: [] for row in rows}
    traced: dict[str, list[dict]] = {row.name: [] for row in rows}
    pass_wall: dict[int, list[float]] = {0: [], 1: []}
    for repeat in range(args.repeat):
        for trace, selected, into in ((0, rows, untraced),
                                      (1, live_rows, traced)):
            if trace and args.no_trace:
                continue
            started = time.perf_counter()
            for index, row in enumerate(selected):
                print(f"[{repeat + 1}/{args.repeat}] {row.name} "
                      f"trace={trace} ...", file=sys.stderr, flush=True)
                into[row.name].append(_child(
                    row.name, args, trace, micro=trace == 1 and index == 0))
            pass_wall[trace].append(time.perf_counter() - started)

    report = {
        "schema": 1, "git_sha": stats.git_sha(), "seed": args.seed,
        "run_seconds": args.seconds, "repeat": args.repeat,
        "quick": args.quick,
        "fingerprint": untraced[rows[0].name][0]["fingerprint"],
        "untraced_pass_wall_s": pass_wall[0],
        "traced_pass_wall_s": pass_wall[1], "workloads": {},
    }
    micro_names = [m.name for m in PER_LAYER_METRICS
                   if m.source == "micro"]
    micro_values = {
        name: [run["metrics"][name] for runs in traced.values()
               for run in runs if run["metrics"][name] is not None]
        for name in micro_names
    }
    ok = True
    for row in rows:
        everything = untraced[row.name] + traced[row.name]
        attempted = sum(r["attempted"] for r in everything)
        failed = sum(r["failed"] for r in everything)
        correct = all(r["correct"] and r["exit_code"] == 0
                      for r in everything)
        ok = ok and correct
        entry = {
            "why": row.why, "correct": correct,
            "ops_attempted": attempted, "ops_failed": failed,
            "failed_share": failed / attempted,
            "wall_s": [r["wall_s"] for r in untraced[row.name]],
            "traced_wall_s": [r["wall_s"] for r in traced[row.name]],
            "errors": [e for r in everything for e in r["errors"]],
            "end_to_end": {}, "per_layer": {},
            "detail": {"untraced": untraced[row.name][-1]["detail"],
                       "traced": (traced[row.name][-1]["detail"]
                                  if traced[row.name] else None)},
        }
        for metric in E2E_METRICS:
            entry["end_to_end"][metric.name] = {
                "unit": metric.unit, "better": metric.better,
                "bound": metric.bound,
                **_summary([r["metrics"][metric.name]
                            for r in untraced[row.name]]),
            }
        if row.backend == "sim":
            layer_runs = [r["detail"]["counts"] for r in untraced[row.name]]
        else:
            layer_runs = [r["metrics"] for r in traced[row.name]]
        for metric in () if args.no_trace else PER_LAYER_METRICS:
            values = (micro_values[metric.name]
                      if metric.name in micro_values
                      else [run.get(metric.name) for run in layer_runs])
            entry["per_layer"][metric.name] = {
                "unit": metric.unit, "better": metric.better,
                **_summary(values),
            }
        if row.backend == "sim":
            for name in ("sim.events", "sim.ops", "sim.messages"):
                counts = {run[name] for run in layer_runs}
                if len(counts) != 1:
                    ok = False
                    entry["errors"].append(
                        f"{name} did not repeat exactly: {sorted(counts)}")
        report["workloads"][row.name] = entry

    _print_report(report, calibrate=args.calibrate)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:,.4g}" if abs(value) < 1e5 else f"{value:,.0f}"


def _print_metric(name: str, item: dict) -> None:
    arrow = "lower is better" if item["better"] == "lower" \
        else "higher is better"
    bound = f"  bound {item['bound']:.0%}" if "bound" in item else ""
    print(f"  {name:<44} {_fmt(item['median']):>12} {item['unit']:<6}"
          f" [{_fmt(item['q1'])} .. {_fmt(item['q3'])}] n={item['n']}"
          f"  {arrow}{bound}")


def _print_report(report: dict, calibrate: bool) -> None:
    fp = report["fingerprint"]
    print(f"lab pass: seed {report['seed']}, {report['run_seconds']} s "
          f"windows, repeat {report['repeat']}, git {report['git_sha'][:12]}"
          f"{' QUICK (not comparable)' if report['quick'] else ''}")
    print(f"host: {fp['nproc']} x {fp['cpu_model']}, python {fp['python']},"
          f" {fp['serializer']} frames, {fp['event_loop']} loop")
    for name, entry in report["workloads"].items():
        verdict = "correct" if entry["correct"] else "NOT CORRECT"
        print(f"\n== {name}: {verdict}; ops_attempted "
              f"{entry['ops_attempted']}, ops_failed {entry['ops_failed']}, "
              f"failed_share {entry['failed_share']:.3g}; wall "
              f"{_fmt(sum(entry['wall_s']))} s untraced, "
              f"{_fmt(sum(entry['traced_wall_s']))} s traced")
        print(f"   why: {entry['why']}")
        untraced = entry["detail"]["untraced"]
        for key in ("flush_policy", "link_delay_s", "offered_ops_s"):
            if untraced.get(key):
                print(f"   {key}: {untraced[key]}")
        for error in entry["errors"]:
            print(f"   ERROR: {error}")
        for metric, item in entry["end_to_end"].items():
            _print_metric(metric, item)
        layers = entry["per_layer"]
        for metric, item in layers.items():   # "-" = does not apply here
            _print_metric(metric, item)
        if layers and layers["budget.cpu_us_per_op"]["n"]:
            _print_budget(layers)
    if calibrate:
        _print_calibration(report)
    print(f"\nuntraced pass {_fmt(sum(report['untraced_pass_wall_s']))} s, "
          f"traced pass + micro "
          f"{_fmt(sum(report['traced_pass_wall_s']))} s (all repeats)")


#: Isolated cost to set beside each in-situ budget row it should explain.
RECONCILE = {"codec_encode": "codec.encode_us",
             "codec_decode": "codec.feed_us",
             "storage": "storage.insert_us",
             "wal": "wal.commit_us_per_record.b1"}


def _print_budget(layers: dict) -> None:
    def median_of(name):
        return layers[name]["median"]
    print("  budget (traced run), CPU us per completed op:")
    print(f"    {'layer':<16}{'self_us':>10}{'calls':>9}"
          f"{'micro x calls':>16}")
    for layer in BUDGET_LAYERS:
        self_us = median_of(f"budget.{layer}.self_us_per_op")
        calls = median_of(f"budget.{layer}.calls_per_op")
        beside = ""
        if layer in RECONCILE and median_of(RECONCILE[layer]) is not None:
            beside = _fmt(median_of(RECONCILE[layer]) * calls)
        print(f"    {layer:<16}{_fmt(self_us):>10}{_fmt(calls):>9}"
              f"{beside:>16}")
    print(f"    {'sum':<16}{_fmt(median_of('budget.sum_us_per_op')):>10}"
          f"   = budget.cpu_us_per_op "
          f"{_fmt(median_of('budget.cpu_us_per_op'))}; "
          f"trace.overhead_ratio {_fmt(median_of('trace.overhead_ratio'))}")


def _print_calibration(report: dict) -> None:
    print("\ncalibration: spread = (q3 - q1) / median over the repeats")
    print(f"  {'workload':<14}{'metric':<22}{'median':>12}{'spread':>9}"
          f"{'bound':>8}  verdict")
    for name, entry in report["workloads"].items():
        for metric, item in entry["end_to_end"].items():
            values = [v for v in item["values"] if v is not None]
            share = stats.spread(values)
            verdict = ("ok" if share * 3 <= item["bound"] else
                       "tight" if share <= item["bound"] else "TOO WIDE")
            print(f"  {name:<14}{metric:<22}{_fmt(item['median']):>12}"
                  f"{share:>9.2%}{item['bound']:>8.0%}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process: 0 = "
                             "end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--micro", type=int, choices=(0, 1), default=1,
                        help="with --trace 1: include the micro-benches")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--calibrate", action="store_true",
                        help="print the spread table behind the bounds")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="write the pass report (JSON) here")
    parser.add_argument("--quick", action="store_true",
                        help="self-test only: shortened warm-up and one "
                             "set-up; output is stamped and not comparable")
    parser.add_argument("--print-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.print_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single_run(args)
    stats.add_source_path()
    return run_pass(args)


if __name__ == "__main__":
    sys.exit(main())
