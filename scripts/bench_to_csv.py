#!/usr/bin/env python3
"""Split bench_output.txt into per-experiment CSV files.

The experiment harnesses print human-readable tables; this script slices the
combined output back into one block per experiment and converts every
whitespace-aligned table row into CSV, so the figures can be re-plotted with
any tool. Pure stdlib, no dependencies.

Usage:
    python3 scripts/bench_to_csv.py [bench_output.txt] [output_dir]
"""

import os
import re
import sys


def slugify(title: str) -> str:
    slug = re.sub(r"[^a-zA-Z0-9]+", "_", title.lower()).strip("_")
    return slug[:60]


def split_experiments(lines):
    """Yield (title, block_lines) for each ====-delimited experiment."""
    title = None
    block = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("====") and i + 1 < len(lines):
            if title is not None:
                yield title, block
            title = lines[i + 1].strip()
            block = []
            # Skip the header: title line, "paper:" line(s), closing ====.
            i += 2
            while i < len(lines) and not lines[i].startswith("===="):
                i += 1
            i += 1
            continue
        if title is not None:
            block.append(lines[i].rstrip("\n"))
        i += 1
    if title is not None:
        yield title, block


def table_rows(block):
    """Convert aligned table lines into CSV rows (best effort)."""
    rows = []
    for line in block:
        if not line.strip() or line.startswith("[train]"):
            continue
        # Split on runs of 2+ spaces so multi-word labels stay together.
        cells = [c.strip() for c in re.split(r"\s{2,}", line.strip()) if c.strip()]
        if len(cells) >= 2:
            rows.append(cells)
    return rows


ROUND_LINE = re.compile(r"^\s*round (\d+): (.+)$")
ROUND_TRAIN = re.compile(
    r"train reward (-?[\d.]+(?:e-?\d+)?), selection score (-?[\d.]+(?:e-?\d+)?)"
)
ROUND_GAP = re.compile(r"best gap-to-\S+ found by BO = (-?[\d.]+(?:e-?\d+)?)")


def rounds_rows(block):
    """Extract per-curriculum-round progress lines as CSV rows.

    Two shapes appear in bench/CLI output: the curriculum trainers print
    "round N: train reward X, selection score Y", and the baseline-choice
    probe prints "round N: best gap-to-<baseline> found by BO = Z". Both land
    in one <slug>_rounds.csv with empty cells for the columns a line lacks,
    so gap/selection-score trajectories can be plotted without re-running.
    """
    rows = []
    for line in block:
        match = ROUND_LINE.match(line)
        if not match:
            continue
        rnd, rest = match.group(1), match.group(2)
        train = ROUND_TRAIN.search(rest)
        if train:
            rows.append([rnd, train.group(1), train.group(2), ""])
            continue
        gap = ROUND_GAP.search(rest)
        if gap:
            rows.append([rnd, "", "", gap.group(1)])
    if rows:
        rows.insert(0, ["round", "train_reward", "selection_score", "bo_gap"])
    return rows


METRICS_HEADER = re.compile(r"^metric\s+kind\s+count\s+value\s+p50\s+p90\s+p99\s+max$")
METRICS_COLUMNS = ["metric", "kind", "count", "value", "p50", "p90", "p99", "max"]
METRIC_KINDS = {"counter", "gauge", "histogram"}


def metrics_rows(block):
    """Extract an embedded metrics table (the `--metrics-out -` dump) as CSV
    rows, histogram percentile fields included; returns (rows, other_lines).

    Metric names never contain spaces, so rows split on single whitespace:
    counters/gauges have (name, kind, value), histograms all eight columns.
    """
    rows = []
    rest = []
    in_table = False
    for line in block:
        stripped = line.strip()
        if METRICS_HEADER.match(stripped):
            in_table = True
            rows.append(METRICS_COLUMNS)
            continue
        if in_table:
            cells = stripped.split()
            if len(cells) >= 3 and cells[1] in METRIC_KINDS:
                kind = cells[1]
                if kind in ("counter", "gauge"):
                    rows.append([cells[0], kind, "", cells[2], "", "", "", ""])
                else:
                    rows.append(cells[:8])
                continue
            in_table = False
        rest.append(line)
    return rows, rest


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    out_dir = sys.argv[2] if len(sys.argv) > 2 else "bench_csv"
    with open(src, encoding="utf-8") as handle:
        lines = handle.readlines()
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    for title, block in split_experiments(lines):
        mrows, block = metrics_rows(block)
        if len(mrows) > 1:
            path = os.path.join(out_dir, slugify(title) + "_metrics.csv")
            with open(path, "w", encoding="utf-8") as out:
                for cells in mrows:
                    out.write(",".join(cells) + "\n")
            count += 1
        rrows = rounds_rows(block)
        if rrows:
            path = os.path.join(out_dir, slugify(title) + "_rounds.csv")
            with open(path, "w", encoding="utf-8") as out:
                for cells in rrows:
                    out.write(",".join(cells) + "\n")
            count += 1
        rows = table_rows(block)
        if not rows:
            continue
        path = os.path.join(out_dir, slugify(title) + ".csv")
        with open(path, "w", encoding="utf-8") as out:
            for cells in rows:
                out.write(",".join(c.replace(",", ";") for c in cells) + "\n")
        count += 1
    print(f"wrote {count} CSV files to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
