#!/usr/bin/env python3
"""Judge two pass reports: ``compare.py A.json B.json`` (A parent, B change).

One verdict per (end-to-end metric, workload), from each side's median
and quartiles and the bounds in ``BENCHMARK.json``:

* ``unresolved``   — either side's spread (q3 - q1) / median is wider
  than the bound, so the pair cannot show a change of that size;
* ``regressed``    — B's median is worse than A's by more than the bound;
* ``improved``     — B's median is better by more than both sides'
  spread and the two inter-quartile ranges do not overlap;
* ``within-bound`` — anything else.

Every ratio is printed with its base.  Files from different machines (or
from ``--quick`` runs) are refused.  Exit status is non-zero on any
``regressed`` verdict or a higher ``failed_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def load_bounds(path: Path | None = None) -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` from the contract file."""
    contract = json.loads((path or REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"])
            for m in contract["end_to_end"]}


def spread(item: dict) -> float:
    return (item["q3"] - item["q1"]) / item["median"] if item["median"] else 0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` for one metric on one workload;
    ``worsening`` is the change of B's median against A's as a share of
    A's, positive when B is worse."""
    change = (b["median"] - a["median"]) / a["median"]
    worsening = change if better == "lower" else -change
    noise = max(spread(a), spread(b))
    if noise > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "regressed", worsening
    apart = (b["q3"] < a["q1"] if better == "lower" else b["q1"] > a["q3"])
    if -worsening > noise and apart:
        return "improved", worsening
    return "within-bound", worsening


def refuse(a: dict, b: dict) -> str | None:
    """Why the two reports may not be compared, or None."""
    for report, label in ((a, "A"), (b, "B")):
        if report.get("quick") or report["fingerprint"].get("quick"):
            return f"{label} is a --quick run: its numbers are not comparable"
    if a["fingerprint"] != b["fingerprint"]:
        differing = sorted(k for k in a["fingerprint"]
                           if a["fingerprint"][k] != b["fingerprint"].get(k))
        return f"machine fingerprints differ in {differing}"
    if a["run_seconds"] != b["run_seconds"]:
        return "run lengths differ"
    return None


def compare(a: dict, b: dict, bounds: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    lines: list[str] = []
    bad = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name}: missing from B")
            bad = True
            continue
        lines.append(f"{name}:")
        for metric, (better, bound) in bounds.items():
            item_a = entry_a["end_to_end"][metric]
            item_b = entry_b["end_to_end"][metric]
            word, worsening = verdict(item_a, item_b, better, bound)
            bad = bad or word == "regressed"
            lines.append(
                f"  {metric:<20}{word:<13} B/A = "
                f"{item_b['median'] / item_a['median']:.4f} "
                f"(A = {item_a['median']:.5g} {item_a['unit']}, "
                f"n={item_a['n']}/{item_b['n']}; spread A "
                f"{spread(item_a):.1%}, B {spread(item_b):.1%}; "
                f"bound {bound:.0%}, {better} is better)")
        if entry_b["failed_share"] > entry_a["failed_share"]:
            bad = True
            lines.append(
                f"  failed_share        higher        "
                f"{entry_b['failed_share']:.3g} against "
                f"{entry_a['failed_share']:.3g}")
        for count in ("sim.events", "sim.ops", "sim.messages"):
            in_a = entry_a["per_layer"].get(count, {}).get("median")
            in_b = entry_b["per_layer"].get(count, {}).get("median")
            if in_a is not None and in_b is not None:
                lines.append(
                    f"  {count:<20}"
                    f"{'identical' if in_a == in_b else 'changed':<13} "
                    f"{in_b:.0f} against {in_a:.0f}")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    reason = refuse(a, b)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    lines, bad = compare(a, b, load_bounds())
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
