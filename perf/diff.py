#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change (perf/README.md).

    python3 perf/diff.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments alternate parent and change, one pair per round of runs; run at
least 10 pairs, alternating which side runs first. Each file is what
`perf/run.py` writes to perf/out/results.json (or one record of it), from the
same benchmark code and settings on both sides.

One row per (workload, metric): each side's median and quartiles, the change
over the parent, how many pairs the change won, and a verdict:

  improved    the change won at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's quartile range;
  regressed   the change's median is worse by more than the metric's bound;
  unresolved  the parent's own quartile range is wider than the bound, and not
              every change run beats every parent run;
  unchanged   otherwise.

Only end-to-end metrics have bounds; per-layer rows get no verdict. A gain
does not count while the change fails more operations than the parent. Exits
1 when any metric regressed or any run reported wrong outputs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def records(path):
    data = json.loads(Path(path).read_text())
    return data if isinstance(data, list) else [data]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound, more_failures):
    """Verdict of one (workload, metric) row; `parent[i]` and `change[i]` are
    pair i. Returns (wins, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if bound is None:
        return wins, ""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    spread_wide = (p3 - p1) > bound * abs(pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (wins >= WIN_SHARE * len(parent) and gain > (p3 - p1)
            and not more_failures):
        return wins, "improved"
    if -gain > bound * abs(pm):
        return wins, "unresolved" if spread_wide and not all_better else "regressed"
    if spread_wide and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main():
    paths = sys.argv[1:]
    if len(paths) < 2 * MIN_PAIRS or len(paths) % 2:
        sys.exit(f"usage: diff.py PARENT.json CHANGE.json ... "
                 f"(at least {MIN_PAIRS} alternating pairs)")
    meta = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    # (workload, metric) -> side -> pair index -> value
    values = defaultdict(lambda: ([], []))
    failed = defaultdict(lambda: [0, 0])
    wrong = []
    for i, path in enumerate(paths):
        side = i % 2
        for rec in records(path):
            w = rec["workload"]
            failed[w][side] += rec["failed"]
            if not rec["correct"]:
                wrong.append(f"{path}: {w}: " + "; ".join(rec["problems"]))
            for name, value in rec["metrics"].items():
                values[(w, name)][side].append(value)

    print(f"{'workload':15} {'metric':32} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6}  verdict")
    regressed = False
    for (w, name), (parent, change) in sorted(values.items()):
        if len(parent) != len(change):
            sys.exit(f"{w} {name}: {len(parent)} parent runs but "
                     f"{len(change)} change runs")
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        more_failures = failed[w][1] > failed[w][0]
        wins, v = verdict(parent, change, meta[name]["better"] if name in meta
                          else "lower", bounds.get(name), more_failures)
        regressed = regressed or v == "regressed"
        delta = (cm - pm) / abs(pm) if pm else 0.0
        unit = meta.get(name, {}).get("unit", "")
        print(f"{w:15} {name:32} {pm:11.5g} [{p1:.4g}, {p3:.4g}] {unit:>5} "
              f"{cm:11.5g} [{c1:.4g}, {c3:.4g}] {unit:>5} {delta:+8.1%} "
              f"{wins:>3}/{len(parent):<2}  {v}")
    for w, (fp, fc) in sorted(failed.items()):
        if fc > fp:
            print(f"{w}: the change failed {fc} operations, the parent {fp}")
    for line in wrong:
        print("WRONG OUTPUT " + line)
    return 1 if regressed or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
