"""Starts the benchmark's timed processes and reports their resource use.

    python3 perfbench/spawner.py

Reads one JSON request per line on standard input (argv, cwd, env, log,
timeout), runs the process to its exit and writes one JSON line back:
wall time from spawn to exit, user + system CPU time of the process and
its waited-for descendants, peak RSS of the largest of them, exit code.

run.py starts this process first, while it is still small, and spawns
every measured process through it.  Linux folds the parent's peak RSS
into a child's at exec, so a child spawned by run.py itself could never
report less than run.py's own peak (which grows when the gate reads a
large CSV); a child of this process can never report less than this
process's peak, about 15 MB, below any shakenbec run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        # a run past its timeout is killed with its pool workers
        timer = threading.Timer(request["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
