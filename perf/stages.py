#!/usr/bin/env python3
"""Stage budget of a traced benchmark run, from its Chrome trace.

    python3 perf/stages.py TRACE.json

The harness (genet_perf --trace) wraps each public call it times in a span of
its own: `run_round` (curriculum workloads), `run_fleet` (fleet_mix) and
`serve.step` (serve_open). This script attributes every instant of those
calls, on the thread that made them, to the innermost span open at that
instant; a span's share is its self time, i.e. its duration minus the part
its child spans cover. Time inside a call that no program span covers stays
with the harness's span: it is the part of the call the budget cannot explain.

The program's spans (round, round.train, round.select, bo_trial, eval,
iteration, rollout, episode.block, advantage, update, episode, pool.job,
pool.item) map onto layers as STAGES says. Lockstepped episodes overlap on one
thread; the innermost-span rule gives each instant to one of them, so their
shares still sum to wall time.
"""

import bisect
import heapq
import json
import sys
from collections import defaultdict

ROOTS = ("run_round", "run_fleet", "serve.step")

# Per-layer share metric -> program spans whose self time it sums.
STAGES = {
    "genet.self_frac": ("round", "round.train", "round.select"),
    "genet.eval_frac": ("eval",),
    "bo.self_frac": ("bo_trial",),
    "rl.rollout_frac": ("iteration", "rollout", "episode.block"),
    "rl.advantage_frac": ("advantage",),
    "rl.update_frac": ("update",),
    "env.episode_frac": ("episode",),
    "pool.wait_frac": ("pool.job",),
    "pool.item_frac": ("pool.item",),
}

# Curriculum phases: inclusive time of the span, as a share of the calls.
PHASES = {"genet.train_frac": "round.train", "genet.select_frac": "round.select"}

# The budget must explain this much of the calls' wall time.
MIN_COVERAGE = 0.95


def load_spans(path):
    """Complete ("X") events as (pid, tid) -> [(start_us, end_us, name)]."""
    with open(path) as f:
        trace = json.load(f)
    threads = defaultdict(list)
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X":
            start = float(ev["ts"])
            threads[(ev["pid"], ev["tid"])].append(
                (start, start + float(ev["dur"]), ev["name"]))
    return threads


def self_times(spans):
    """Seconds attributed to each span name while a root call is open, under
    the innermost-open-span rule (latest start; shortest on a tie)."""
    bounds = []
    for i, (start, end, _) in enumerate(spans):
        bounds.append((start, 1, i))
        bounds.append((end, 0, i))  # at a tie, ends sort before starts
    bounds.sort()
    totals = defaultdict(float)
    open_heap = []
    closed = set()
    roots_open = 0
    prev = None
    for t, is_start, i in bounds:
        if roots_open > 0 and t > prev:
            while open_heap[0][2] in closed:
                heapq.heappop(open_heap)
            totals[spans[open_heap[0][2]][2]] += t - prev
        start, end, name = spans[i]
        if is_start:
            heapq.heappush(open_heap, (-start, end, i))
        else:
            closed.add(i)
        if name in ROOTS:
            roots_open += 1 if is_start else -1
        prev = t
    return {name: us * 1e-6 for name, us in totals.items()}


def budget(path):
    """Stage shares, pool figures and counts of one traced run."""
    threads = load_spans(path)
    root_thread = max(
        threads,
        key=lambda k: sum(e - s for s, e, n in threads[k] if n in ROOTS))
    spans = threads[root_thread]
    roots = sorted((s, e) for s, e, n in spans if n in ROOTS)
    calls = len(roots)
    wall_s = sum(e - s for s, e in roots) * 1e-6
    out = {"calls": calls, "wall_s": wall_s}
    if calls == 0 or wall_s <= 0:
        return out

    own = self_times(spans)
    out["self_s"] = dict(sorted(own.items()))
    for metric, names in STAGES.items():
        out[metric] = sum(own.get(n, 0.0) for n in names) / wall_s
    for metric, name in PHASES.items():
        out[metric] = sum(inside(s, e, roots) for s, e, n in spans
                          if n == name) * 1e-6 / wall_s
    unexplained = sum(own.get(n, 0.0) for n in ROOTS)
    out["stages.coverage_frac"] = 1.0 - unexplained / wall_s

    # Pool: items run on every thread; jobs are timed on the calling thread.
    item_s = sum(inside(s, e, roots) for spans_t in threads.values()
                 for s, e, n in spans_t if n == "pool.item") * 1e-6
    jobs = [inside(s, e, roots) for s, e, n in spans if n == "pool.job"]
    job_s = sum(jobs) * 1e-6
    workers = sum(1 for k, v in threads.items()
                  if k != root_thread and any(n == "pool.job" for _, _, n in v))
    out["pool.busy_frac"] = (item_s / ((workers + 1) * job_s)) if job_s > 0 else 0.0
    out["pool.jobs"] = sum(1 for j in jobs if j > 0) / calls
    episodes = sum(1 for v in threads.values() for s, e, n in v
                   if n == "episode" and inside(s, e, roots) > 0)
    out["env.episodes"] = episodes / calls
    return out


def inside(start, end, windows):
    """Overlap of [start, end) with sorted, disjoint windows."""
    total = 0.0
    for s, e in windows[max(bisect.bisect_right(windows, (start,)) - 1, 0):]:
        if s >= end:
            break
        total += max(0.0, min(end, e) - max(start, s))
    return total


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: stages.py TRACE.json")
    result = budget(sys.argv[1])
    for key, value in result.items():
        if key == "self_s":
            for name, seconds in value.items():
                print(f"self_s.{name} {seconds:.6f} s")
        else:
            print(f"{key} {value:.6g}")
    coverage = result.get("stages.coverage_frac", 0.0)
    if coverage < MIN_COVERAGE:
        sys.exit(f"stages cover {coverage:.1%} of the timed calls, "
                 f"below {MIN_COVERAGE:.0%}")


if __name__ == "__main__":
    main()
