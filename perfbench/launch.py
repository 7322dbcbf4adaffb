"""Child-process launcher for the end-to-end runs.

A child's peak RSS (`ru_maxrss`) starts from the high-water mark of the
process that spawned it, so children are spawned from this small
process rather than from the benchmark, which holds NumPy and the
output checks.  It reads one JSON request per line on stdin
({"argv", "cwd", "env", "log", "timeout"}), runs the child to its end
with stdout and stderr to `log`, killing it after `timeout` seconds, and
answers one JSON line:
{"code": exit code, "wall_s": wall time, "maxrss_kb": the child's peak RSS}.
It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as log:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                     stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(request["timeout"], child.kill)
            timer.start()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": child.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
