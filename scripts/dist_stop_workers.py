#!/usr/bin/env python3
"""Stop dist workers mid-run and require the run to finish (DESIGN.md S5i).

Runs a `genet train --workers N` command, waits until its N dist workers
exist, and --after seconds after the start SIGSTOPs the workers named by
--stop (0-based worker indices; -1 is the last worker). A stopped worker
never reads its socket again, so the coordinator must evict it at the
per-unit deadline and reassign its unit instead of blocking on a send. The
command must exit 0 within --timeout seconds.

Usage:
    python3 scripts/dist_stop_workers.py --workers N [--stop I ...]
        [--after S] [--timeout S] -- COMMAND [ARG ...]

Workers are told apart by their `--dist-fd` argument: the coordinator
spawns them in index order while holding every earlier worker's socket, so
the descriptor numbers rise with the index. Exit status is the command's;
1 with a diagnostic if it ran past --timeout (it is killed) or the workers
never appeared. Linux only (reads /proc); pure stdlib.
"""

import argparse
import os
import signal
import subprocess
import sys
import time


def worker_pids(parent):
    """The parent's dist-worker children, ordered by worker index."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid != parent:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except (OSError, IndexError, ValueError):
            continue  # exited meanwhile
        if b"--dist-fd" in argv:
            found.append((int(argv[argv.index(b"--dist-fd") + 1]), int(entry)))
    return [pid for _, pid in sorted(found)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--stop", type=int, nargs="+", default=[-1])
    ap.add_argument("--after", type=float, default=0.3)
    ap.add_argument("--timeout", type=float, default=20.0)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")

    start = time.monotonic()
    proc = subprocess.Popen(command)
    pids = []
    while len(pids) < args.workers and proc.poll() is None:
        if time.monotonic() - start > args.timeout:
            break
        time.sleep(0.01)
        pids = worker_pids(proc.pid)
    if len(pids) != args.workers:
        proc.kill()
        proc.wait()
        print(f"dist_stop_workers: saw {len(pids)} of {args.workers} workers",
              file=sys.stderr)
        return 1
    time.sleep(max(0.0, start + args.after - time.monotonic()))
    for index in args.stop:
        try:
            os.kill(pids[index], signal.SIGSTOP)
        except ProcessLookupError:
            pass  # already gone: nothing left to stop
    try:
        rc = proc.wait(timeout=max(0.0, start + args.timeout - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        print(f"dist_stop_workers: still running after {args.timeout:g} s "
              f"with workers {args.stop} stopped", file=sys.stderr)
        return 1
    print(f"finished in {time.monotonic() - start:.1f} s with workers "
          f"{args.stop} stopped at {args.after:g} s (exit {rc})")
    return rc


if __name__ == "__main__":
    sys.exit(main())
