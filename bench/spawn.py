"""Helper process of run.py: starts each CLI command and reports its cost.

A process started by fork or vfork inherits, through exec, the high-water
resident size of its parent's address space, so a child of the harness
(which grows large computing references) would report the harness's peak
as its own.  This helper stays small and starts every timed command, so
each child's ru_maxrss from wait4 is its own.

Reads one JSON request per line on stdin:
    {"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}
and answers each with one JSON line on stdout:
    {"wall_s": ..., "maxrss_kib": ..., "returncode": ...}
A command still running after `timeout` seconds is killed.  Exits at end of
input; on SIGTERM it kills the running command, waits for it, and exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "returncode": proc.returncode}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
