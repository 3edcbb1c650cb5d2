#!/usr/bin/env python
"""Benchmark regression gate: compare a fresh BENCH_runtime.json to a baseline.

The benchmark suite (``pytest benchmarks/ -q``) writes its headline numbers
to ``benchmarks/BENCH_runtime.json``.  This tool diffs a freshly generated
copy of that file against a committed (or otherwise trusted) baseline and
exits non-zero when a metric regressed by more than ``--threshold`` (default
20%), so CI can fail a change that quietly slows the runtime down.

Two metric families are compared, chosen by key name:

* **higher-is-better ratios** — keys containing ``speedup`` or ``qps``.
  These are relative quantities (compiled vs eager, sharded vs single), so
  they transfer across machines; a fresh value below
  ``baseline * (1 - threshold)`` is a regression.  Always compared.
* **lower-is-better absolutes** — keys ending in ``_ms`` or ``_s`` (p50
  latency, step time...).  Wall-clock numbers only mean something when both
  files come from the same machine, so they are compared **only** without
  ``--ratios-only``; a fresh value above ``baseline * (1 + threshold)`` is
  a regression.

Typical use::

    # same machine: full gate, catches >20% p50 latency regressions
    python tools/bench_check.py --baseline /tmp/baseline.json

    # CI runner vs committed snapshot: machine-independent ratios only
    python tools/bench_check.py --baseline benchmarks/BENCH_baseline.json \
        --ratios-only

    # gate several fresh sinks at once (``--fresh`` is repeatable; the
    # flattened metric maps are merged before comparison)
    python tools/bench_check.py --baseline benchmarks/BENCH_baseline.json \
        --fresh benchmarks/BENCH_runtime.json \
        --fresh benchmarks/BENCH_parallel.json --ratios-only

Metrics present in only one file are reported but never fail the gate
(benchmarks are allowed to grow / be renamed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, Tuple

_DEFAULT_FRESH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "benchmarks", "BENCH_runtime.json")

#: substrings marking a higher-is-better relative metric
_RATIO_MARKERS = ("speedup", "qps")
#: suffixes marking a lower-is-better wall-clock metric
_ABSOLUTE_SUFFIXES = ("_ms", "_s")


def flatten(tree: dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf of a JSON tree."""
    for key in sorted(tree):
        value = tree[key]
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            yield from flatten(value, path)
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            yield path, float(value)


def classify(path: str) -> str:
    """``"ratio"``, ``"absolute"`` or ``"ignore"`` for one metric path."""
    leaf = path.rsplit(".", 1)[-1]
    if any(marker in leaf for marker in _RATIO_MARKERS):
        return "ratio"
    if any(leaf.endswith(suffix) for suffix in _ABSOLUTE_SUFFIXES):
        return "absolute"
    return "ignore"


def compare(baseline: Dict[str, float], fresh: Dict[str, float],
            threshold: float, ratios_only: bool) -> Tuple[list, list]:
    """Return ``(regressions, notes)`` line lists for the two metric maps."""
    regressions, notes = [], []
    for path, base in sorted(baseline.items()):
        kind = classify(path)
        if kind == "ignore":
            continue
        if path not in fresh:
            notes.append(f"  missing in fresh run: {path}")
            continue
        new = fresh[path]
        if base <= 0:
            continue
        if kind == "ratio":
            floor = base * (1.0 - threshold)
            if new < floor:
                regressions.append(
                    f"  {path}: {base:.3f} -> {new:.3f} "
                    f"({100 * (new / base - 1):+.1f}%, floor {floor:.3f})")
        elif not ratios_only:
            ceiling = base * (1.0 + threshold)
            if new > ceiling:
                regressions.append(
                    f"  {path}: {base:.3f} -> {new:.3f} "
                    f"({100 * (new / base - 1):+.1f}%, ceiling {ceiling:.3f})")
    for path in sorted(set(fresh) - set(baseline)):
        if classify(path) != "ignore":
            notes.append(f"  new metric (no baseline): {path}")
    return regressions, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="trusted BENCH_runtime.json to compare against")
    parser.add_argument("--fresh", action="append", default=None,
                        help="freshly generated BENCH_*.json; repeatable, the "
                             "flattened metric maps are merged (default: "
                             "benchmarks/BENCH_runtime.json)")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="fractional regression allowed per metric "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--ratios-only", action="store_true",
                        help="skip wall-clock (_ms/_s) metrics; use when the "
                             "baseline came from a different machine")
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")

    with open(args.baseline) as handle:
        baseline = dict(flatten(json.load(handle)))
    fresh: Dict[str, float] = {}
    for fresh_path in args.fresh or [os.path.normpath(_DEFAULT_FRESH)]:
        with open(fresh_path) as handle:
            fresh.update(flatten(json.load(handle)))

    regressions, notes = compare(baseline, fresh, args.threshold, args.ratios_only)
    mode = "ratios only" if args.ratios_only else "ratios + wall-clock"
    compared = sum(1 for p in baseline if classify(p) != "ignore" and p in fresh)
    print(f"bench_check: {compared} metrics compared ({mode}, "
          f"threshold {args.threshold:.0%})")
    for line in notes:
        print(line)
    if regressions:
        print(f"REGRESSIONS ({len(regressions)}):")
        for line in regressions:
            print(line)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
