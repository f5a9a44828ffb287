"""Run commands on request; report wall time, peak RSS and exit status.

Reads one JSON request per line on stdin ({"cmd", "env", "cwd", "log",
"timeout"}) and answers each with one JSON line on stdout.  run.py starts
this process before it imports numpy, so its resident set stays small:
Linux counts the resident set a child has at fork in that child's
ru_maxrss, so children forked straight from the benchmark process would
report the benchmark's own peak instead of theirs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["cmd"], stdout=subprocess.DEVNULL, stderr=err, env=req["env"], cwd=req["cwd"]
            )
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "status": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
