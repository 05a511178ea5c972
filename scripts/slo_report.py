#!/usr/bin/env python3
"""Render a fleet JSON report as a per-scenario markdown SLO report.

Input is the "bench": "fleet" document written by `genet fleet --json`
(its arithmetic is pinned by the FleetReport unit test). Output is one
markdown section per scenario: a population-percentile table over the
streamed per-session metrics (count, mean, p50, p90, p99, p99.9, max, plus
the exact/approximate flag from the histogram) and an SLO table with the
measured compliant fraction against each target. A header block
records the run shape (sessions, throughput, shard count) and a fleet-wide
SLO scoreboard.

Percentiles marked `approx` came from the log-bucket tail of the merged
histograms (past the 4096-sample exact cap) and carry a <= 9.05% relative
error bound (see DESIGN.md S5h); `exact` rows were computed from sorted
samples.

Usage:
    genet fleet --task lb --model policy.ckpt --json fleet.json
    python3 scripts/slo_report.py fleet.json [-o slo_report.md]

With no -o the markdown goes to stdout. Pure stdlib, no dependencies.
"""

import json
import sys


def num(v):
    """Compact human-readable number: 4 significant digits."""
    if isinstance(v, int):
        return str(v)
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.3e}"
    return f"{v:.4g}"


def pct(v):
    return f"{100.0 * v:.1f}%"


def table(columns, rows):
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def scenario_section(sc):
    head = f"## `{sc['name']}`"
    shape = [f"task `{sc['task']}`", f"config space RL{sc['space']}"]
    shape.append(f"{sc['sessions']:,} sessions, {sc['steps']:,} env steps")
    if sc["trace_set"]:
        shape.append(
            f"{pct(sc['trace_prob'])} of sessions on recorded "
            f"{sc['trace_set']} traces"
        )
    else:
        shape.append("fully synthetic")
    if sc["flight_path"]:
        shape.append(f"worst-k flight recording: `{sc['flight_path']}`")

    metric_rows = [
        [
            f"`{m['name']}`",
            str(m["count"]),
            num(m["mean"]),
            num(m["p50"]),
            num(m["p90"]),
            num(m["p99"]),
            num(m["p999"]),
            num(m["max"]),
            "exact" if m["exact"] else "approx",
        ]
        for m in sc["metrics"]
    ]
    out = [
        head,
        "",
        "; ".join(shape) + ".",
        "",
        table(
            ["metric", "count", "mean", "p50", "p90", "p99", "p99.9", "max",
             "tail"],
            metric_rows,
        ),
    ]

    if sc["slos"]:
        slo_rows = [
            [
                f"`{s['metric']} {s['op']} {num(s['threshold'])}`",
                pct(s["target_fraction"]),
                pct(s["fraction"]),
                f"{s['compliant']:,}/{sc['sessions']:,}",
                "**PASS**" if s["pass"] else "**FAIL**",
            ]
            for s in sc["slos"]
        ]
        out += [
            "",
            table(
                ["SLO", "target", "measured", "compliant", "verdict"],
                slo_rows,
            ),
        ]
    else:
        out += ["", "_No SLOs defined for this scenario._"]
    return "\n".join(out)


def render(doc):
    slos = [s for sc in doc["scenarios"] for s in sc["slos"]]
    passing = sum(1 for s in slos if s["pass"])

    lines = [
        "# Fleet SLO report",
        "",
        f"- **Sessions**: {doc['sessions_total']:,} across "
        f"{len(doc['scenarios'])} scenarios "
        f"({doc['steps_total']:,} env steps)",
        f"- **Throughput**: {doc['sessions_per_s']:,.0f} sessions/s "
        f"({doc['steps_per_s']:,.0f} steps/s) on {doc['threads']} "
        f"thread(s), {doc['shards']} shards, seed {doc['seed']}",
        f"- **SLOs**: {passing}/{len(slos)} passing",
        "",
    ]
    for sc in doc["scenarios"]:
        lines.append(scenario_section(sc))
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    argv = sys.argv[1:]
    path = None
    out_path = None
    i = 0
    while i < len(argv):
        if argv[i] == "-o":
            if i + 1 >= len(argv):
                print("-o needs a value", file=sys.stderr)
                return 1
            out_path = argv[i + 1]
            i += 2
            continue
        if path is None:
            path = argv[i]
            i += 1
            continue
        print(__doc__, file=sys.stderr)
        return 1
    if path is None:
        print(__doc__, file=sys.stderr)
        return 1

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: {err}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict) or doc.get("bench") != "fleet":
        print(f"{path}: not a 'bench': 'fleet' report", file=sys.stderr)
        return 1

    try:
        text = render(doc)
    except KeyError as err:
        print(f"{path}: missing field {err}", file=sys.stderr)
        return 1
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as out:
            out.write(text)
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
