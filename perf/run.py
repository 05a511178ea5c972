#!/usr/bin/env python3
"""The repository benchmark: build, run, check, report (perf/README.md).

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py [--seed N] [--traced] [--smoke]

Both forms first build the tier-1 libraries and perf/genet_perf under
.bench_build/, then run each workload in its own process with GENET_THREADS=2
and strict math.

The first form runs one workload. It prints each metric as `name value unit`
and ends with one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json, or with --trace 1 its per-layer metrics.
The second form runs every workload (scaled down to a few seconds each with
--smoke, traced with --traced) and writes perf/out/results.json. Either form
exits nonzero when an output is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stages

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
BUILD = ROOT / ".bench_build"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
CURRICULA = ("curriculum_abr", "curriculum_cc")
SMOKE_SECONDS = 3.0
# Times are reported at a steady machine speed: the one at which the harness's
# reference kernel takes this long (genet_perf.cpp, "Machine speed").
REFERENCE_MS = 35.0
# How strongly each workload's time follows the kernel's as the host's speed
# drifts: the slope of log(time) on log(kernel time) over runs of the same
# work (perf/README.md, "Steady machine speed").
SENSITIVITY = {"curriculum_abr": 1.0, "curriculum_cc": 1.0, "fleet_mix": 0.7,
               "serve_open": 0.4}


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    """Configure once, then (re)build the libraries and genet_perf; returns
    genet_perf's path. Build output goes to .bench_build/build.log."""
    tier1, harness = BUILD / "tier1", BUILD / "perf"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (tier1 / "Makefile").exists():
        steps.append(["cmake", "-S", ROOT, "-B", tier1, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tier1, "-j", jobs,
                  "--target", "genet", "fleet", "serve"])
    if not (harness / "Makefile").exists():
        steps.append(["cmake", "-S", PERF, "-B", harness, "-G", "Unix Makefiles",
                      f"-DGENET_LIB_DIR={tier1}"])
    steps.append(["cmake", "--build", harness, "-j", jobs])
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "a") as log:
        for cmd in steps:
            if subprocess.run([str(c) for c in cmd], stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                sys.exit("build failed: " + " ".join(map(str, cmd)) + "\n" +
                         "\n".join(tail))
    return harness / "genet_perf"


# ---------------------------------------------------------------------------
# Running genet_perf
# ---------------------------------------------------------------------------

def run_harness(binary, workload, seed, seconds, trace=None):
    workdir = BUILD / "work" / workload
    cmd = [str(binary), workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--workdir", str(workdir)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, GENET_THREADS="2", GENET_MATH="strict")
    for knob in ("GENET_TRACE", "GENET_LOG", "GENET_FLIGHT", "GENET_HEALTH"):
        env.pop(knob, None)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=3 * seconds + 60)
    if proc.returncode != 0:
        sys.exit(f"genet_perf {workload} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_pins(seed):
    """(workload, key) -> digest from perf/expected/seed<N>.txt, if any."""
    path = PERF / "expected" / f"seed{seed}.txt"
    pins = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                workload, key, digest = line.split()
                pins[(workload, key)] = digest
    return pins


def write_pins(seed, raws):
    """Record the digests of `raws` (untraced runs, one per workload) as the
    pins of `seed`."""
    lines = [f"# Output digests for --seed {seed}, written by `perf/run.py "
             f"--seed {seed} --update-pins`:",
             "# each curriculum pass's final policy parameters and the fleet's "
             "canonical digest."]
    for raw in raws:
        w = raw["workload"]
        if w in CURRICULA:
            lines += [f"{w} pass{k} {d}" for k, d in enumerate(raw["digests"])]
        elif w == "fleet_mix":
            lines.append(f"{w} pass {raw['digests'][0]}")
    path = PERF / "expected" / f"seed{seed}.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def check(raw, pins):
    """(attempted, failed, problems) of one untraced or traced run."""
    w = raw["workload"]
    problems = []
    if w in CURRICULA:
        per_pass = raw["rounds_per_pass"]
        failed = 0
        for k, digest in enumerate(raw["digests"]):
            pin = pins.get((w, f"pass{k}"))
            if pin is not None and pin != digest:
                failed += per_pass
                problems.append(f"pass {k} policy digest {digest} != pinned {pin}")
        if raw["replay_digest"] != raw["first_round_digest"]:
            failed += per_pass
            problems.append("first round replayed on one thread gave other parameters")
        return raw["attempted"], failed, problems
    if w == "fleet_mix":
        failed = 0
        pin = pins.get((w, "pass"))
        per_pass = raw["pass_sessions"]
        for k, digest in enumerate(raw["digests"]):
            if digest != raw["digests"][0] or (pin is not None and digest != pin):
                failed += per_pass
                problems.append(f"pass {k} fleet digest {digest} != "
                                f"{pin or raw['digests'][0]}")
        return raw["attempted"], failed, problems
    # serve_open: unanswered requests and wrong answers among the re-checked.
    failed = raw["failed"] + raw["mismatched"]
    if raw["mismatched"]:
        problems.append(f"{raw['mismatched']} of {raw['rechecked']} re-checked "
                        "answers differ from a local act_batch")
    if raw["failed"]:
        problems.append(f"{raw['failed']} requests were never answered")
    if raw["aborted"]:
        problems.append("a load step left requests unanswered; load stopped")
    if not raw["swap_observed"]:
        problems.append("the v2 checkpoint was never served")
    if raw["stale_after_swap"]:
        problems.append(f"{raw['stale_after_swap']} answers after the swap "
                        "step came from v1")
    for step in raw["steps"]:
        for text in step["error_text"]:
            problems.append(f"step {step['name']}: {text}")
    return raw["attempted"], failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def serve_step(raw, name):
    for step in raw["steps"]:
        if step["name"] == name:
            return step
    return None


def steady(workload, seconds, ref_ns):
    """`seconds` of `workload` timed while the reference kernel took `ref_ns`,
    rescaled to the machine speed at which it takes REFERENCE_MS."""
    return seconds * (REFERENCE_MS * 1e6 / ref_ns) ** SENSITIVITY[workload]


def reference_ns(raw):
    """Every reference-kernel time of one run."""
    return [v for k, vs in raw.items() if k.endswith("ref_ns")
            for v in (vs if isinstance(vs, list) else [vs])]


def end_to_end(raw, wall=False):
    """Every end-to-end metric of BENCHMARK.json for one run: at the steady
    machine speed, or as timed with `wall`."""
    w = raw["workload"]
    scale = (lambda seconds, ref_ns: seconds) if wall else (
        lambda seconds, ref_ns: steady(w, seconds, ref_ns))
    setup = [scale(s, r) for s, r in zip(raw["setup_s"], raw["setup_ref_ns"])]
    if w in CURRICULA:
        # A round's work is counted in the steps that set its time: on CC,
        # which is training-bound, training samples; on ABR, which is
        # selection-bound, all simulator steps (training rollouts, gap
        # evaluations, baseline). Work per second, and the mean over rounds of
        # a round's time per 1000 steps of that work (perf/README.md).
        steps = raw["round_train_steps" if w == "curriculum_cc" else "round_steps"]
        rounds = [scale(s, r) for s, r in zip(raw["round_s"], raw["round_ref_ns"])]
        work = sum(steps) / sum(rounds)
        latency_s = statistics.mean([1000 * s / n for s, n in zip(rounds, steps)])
    elif w == "fleet_mix":
        # Sessions per second; the median pass, a fleet of pass_sessions.
        latency_s = median([scale(s, r) for s, r in zip(raw["pass_s"], raw["pass_ref_ns"])])
        work = raw["pass_sessions"] / latency_s
    else:
        # Requests per second of server CPU at 80k req/s; the median request
        # at 20k req/s, in the least disturbed of the three 20k steps, as
        # measured (perf/README.md).
        k = next(i for i, st in enumerate(raw["steps"]) if st["name"] == "r80k")
        step = raw["steps"][k]
        work = step["answered"] / scale(step["server_cpu_s"], raw["step_ref_ns"][k])
        latency_s = min(st["lat_p50_ms"] for st in raw["steps"]
                        if st["name"].startswith("r20k")) * 1e-3
    peak = raw.get("pass_peak_rss_mb") or [raw["peak_rss_mb"]]
    return {"setup_s": median(setup), "peak_rss_mb": median(peak),
            "work_per_s": work, "latency_ms": latency_s * 1e3}


def per_layer(raw, untraced, budget):
    """Every per-layer metric of BENCHMARK.json for one traced run (`raw`),
    the untraced run beside it, and the stage budget of its trace. Metrics of
    a layer the workload does not run read 0."""
    w = raw["workload"]
    m = {p["name"]: budget.get(p["name"], 0.0) for p in BENCHMARK["per_layer"]}
    calls = max(budget.get("calls", 0), 1)
    if w in CURRICULA:
        m["env.steps"] = sum(raw["round_steps"]) / len(raw["round_s"])
        m["rl.env_steps"] = sum(raw["round_train_steps"]) / len(raw["round_s"])
    if w == "fleet_mix":
        m["env.steps"] = sum(t["steps"] for t in raw["tasks"]) / calls
        for task in untraced["tasks"]:
            t = task["task"]
            seconds = steady(w, task["wall_s"], task["wall_ref_ns"])
            m[f"fleet.{t}.sessions_per_s"] = task["sessions"] / seconds
            m[f"fleet.{t}.steps_per_s"] = task["steps"] / seconds
    if w == "serve_open":
        for rate in ("r20k", "r80k"):
            step = serve_step(raw, rate)
            client = step["lat_mean_ms"]
            for phase in ("queue", "batch", "forward", "write"):
                m[f"serve.{phase}_frac.{rate}"] = step[f"{phase}_ms"] / client
            m[f"serve.net_frac.{rate}"] = (client - step["server_total_ms"]) / client
            m[f"serve.batch_size.{rate}"] = step["batch_size_mean"]
            m[f"serve.server_cores.{rate}"] = step["server_cpu_s"] / step["duration_s"]
            m[f"client.cores.{rate}"] = step["client_cpu_s"] / step["duration_s"]
            m[f"serve.tail_ratio.{rate}"] = step["lat_p99_ms"] / step["lat_p50_ms"]
        m["serve.load_ratio.p50"] = (serve_step(raw, "r80k")["lat_p50_ms"] /
                                     serve_step(raw, "r20k")["lat_p50_ms"])
        m["serve.max_rps"] = untraced["max_rps"]
    for b in ("b1", "b16", "b64"):
        m[f"nn.act_batch_ns_per_row.{b}"] = raw[f"act_batch_ns_per_row_{b}"]
    m["serve.frame_roundtrip_ns"] = raw["frame_roundtrip_ns"]
    m["trace.overhead_frac"] = (end_to_end(raw)["latency_ms"] /
                                end_to_end(untraced)["latency_ms"] - 1.0)
    return m


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(binary, workload, seed, seconds, traced, pins):
    """Run, check and measure one workload; returns its result record."""
    if not traced:
        raw = run_harness(binary, workload, seed, seconds)
        attempted, failed, problems = check(raw, pins)
        metrics = end_to_end(raw)
        detail = {"raw": raw}
    else:
        # Half the budget untraced, half traced: the per-layer numbers come
        # from the trace, its overhead from comparing the two halves.
        untraced = run_harness(binary, workload, seed, seconds / 2)
        trace_path = BUILD / "work" / f"{workload}.trace.json"
        raw = run_harness(binary, workload, seed, seconds / 2, trace=trace_path)
        if raw["trace_dropped"]:
            sys.exit(f"{workload}: the trace dropped {raw['trace_dropped']} spans")
        budget = stages.budget(trace_path)
        attempted, failed, problems = check(raw, pins)
        a2, f2, p2 = check(untraced, pins)
        attempted, failed, problems = attempted + a2, failed + f2, problems + p2
        if workload != "serve_open" and budget["stages.coverage_frac"] < stages.MIN_COVERAGE:
            problems.append(f"stages cover {budget['stages.coverage_frac']:.1%} of "
                            f"the timed calls, below {stages.MIN_COVERAGE:.0%}")
        metrics = per_layer(raw, untraced, budget)
        detail = {"raw": raw, "untraced": untraced, "stages": budget}
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "correct": not problems, "attempted": attempted,
            "failed": failed, "problems": problems, "metrics": metrics, **detail}


def units():
    return {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def print_metrics(result):
    unit = units()
    for name, value in result["metrics"].items():
        print(f"{result['workload']}.{name} {value:.6g} {unit[name]}")
    raw = result["raw"]
    w = raw["workload"]
    for name, value in end_to_end(raw, wall=True).items():
        print(f"{w}.wall.{name} {value:.6g} {unit[name]}")
    print(f"{w}.machine.reference_ms {median(reference_ns(raw)) * 1e-6:.6g} ms")
    if w == "serve_open":
        print(f"{w}.max_rps {raw['max_rps']:.6g} 1/s")
        for step in raw["steps"]:
            print(f"{w}.step.{step['name']} offered {step['offered_rps']:.0f} "
                  f"achieved {step['achieved_rps']:.0f} 1/s  p50 {step['lat_p50_ms']:.4g} "
                  f"p99 {step['lat_p99_ms']:.4g} ms  client.gen_late_ms.p99 "
                  f"{step['gen_late_p99_ms']:.4g} ms  {'pass' if step['pass'] else 'FAIL'}")
        for rate in ("r20k", "r80k"):
            step = serve_step(raw, rate)
            for phase in ("queue", "batch", "forward", "write"):
                print(f"{w}.serve.{phase}_ms.mean.{rate} {step[phase + '_ms']:.6g} ms")
        print(f"{w}.serve.swap_visible_ms {raw['swap_visible_ms']:.6g} ms")
    for name, seconds in result.get("stages", {}).get("self_s", {}).items():
        print(f"{raw['workload']}.self_s.{name} {seconds:.6g} s")
    for problem in result["problems"]:
        print(f"{raw['workload']}: ERROR {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: per-layer metrics from traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help=f"all workloads, {SMOKE_SECONDS:g} s each")
    parser.add_argument("--update-pins", action="store_true",
                        help="all workloads: rewrite perf/expected/seed<N>.txt "
                             "from this run's digests")
    args = parser.parse_args()

    binary = build()
    if args.workload:
        result = run_workload(binary, args.workload, args.seed, args.seconds,
                              bool(args.trace), load_pins(args.seed))
        print_metrics(result)
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: {"value": v, "unit": units()[k]}
                                      for k, v in result["metrics"].items()}}))
        return 0 if result["correct"] else 1

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    results = []
    start = time.monotonic()
    for workload in WORKLOADS:
        result = run_workload(binary, workload, args.seed, seconds, args.traced,
                              {} if args.update_pins else load_pins(args.seed))
        print_metrics(result)
        results.append(result)
    if args.update_pins:
        write_pins(args.seed, [r.get("untraced", r["raw"]) for r in results])
    out = PERF / "out"
    out.mkdir(exist_ok=True)
    (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    correct = all(r["correct"] for r in results)
    print(f"{len(results)} workloads in {time.monotonic() - start:.1f} s, "
          f"{'all outputs correct' if correct else 'WRONG OUTPUTS'}; "
          f"wrote {out / 'results.json'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
