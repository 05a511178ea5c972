#!/usr/bin/env python3
"""Require each dist worker to inherit only its own socket (DESIGN.md S5i).

Runs a `genet train --workers N` command, waits until its N dist workers
exist and reads each worker's /proc/<pid>/fd. Every worker must hold exactly
one socket (its end of the coordinator's socketpair) and no descriptor on a
--forbid path (the coordinator's run log, say). A coordinator descriptor
without close-on-exec shows up in every worker spawned after it was opened.
The command must then exit 0 within --timeout seconds.

Usage:
    python3 scripts/dist_worker_fds.py --workers N [--forbid PATH ...]
        [--timeout S] -- COMMAND [ARG ...]

Exit status: 0 when every worker passes and the command exits 0; 1 with a
diagnostic naming the worker and its descriptors otherwise. Linux only
(reads /proc); pure stdlib.
"""

import argparse
import os
import subprocess
import sys
import time

from dist_stop_workers import worker_pids


def descriptors(pid):
    """{fd: link target} of a live process."""
    out = {}
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            out[int(fd)] = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            pass  # closed meanwhile
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--forbid", nargs="*", default=[])
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")
    forbidden = {os.path.abspath(p) for p in args.forbid}

    start = time.monotonic()
    proc = subprocess.Popen(command)
    pids = []
    while len(pids) < args.workers and proc.poll() is None:
        if time.monotonic() - start > args.timeout:
            break
        time.sleep(0.01)
        pids = worker_pids(proc.pid)
    failures = []
    if len(pids) != args.workers:
        failures.append(f"saw {len(pids)} of {args.workers} workers")
    for index, pid in enumerate(pids):
        try:
            fds = descriptors(pid)
        except OSError:
            failures.append(f"worker {index} (pid {pid}) exited before its "
                            "descriptors were read")
            continue
        sockets = [fd for fd, target in fds.items()
                   if target.startswith("socket:")]
        leaked = [fd for fd, target in fds.items() if target in forbidden]
        if len(sockets) != 1 or leaked:
            failures.append(f"worker {index} (pid {pid}) holds {fds}")
    try:
        rc = proc.wait(timeout=max(0.0, start + args.timeout - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        rc = None
        failures.append(f"still running after {args.timeout:g} s")
    if rc not in (0, None):
        failures.append(f"command exited {rc}")
    for failure in failures:
        print(f"dist_worker_fds: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{args.workers} workers, one socket each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
