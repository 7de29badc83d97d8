"""Run one command and print its wall time, peak RSS and exit code as JSON.

Usage: python3 launch.py TIMEOUT_S -- ARGV...

A child's peak RSS as the kernel reports it includes the memory of the
process that forked it, so the benchmark process, which holds its inputs
and reference data in memory, starts every measured command through this
small process instead of forking it directly.  The child's standard
output is discarded and its standard error is inherited.  A child still
running after TIMEOUT_S seconds is killed, and always reaped before this
process exits.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    timeout_s, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print("usage: launch.py TIMEOUT_S -- ARGV...", file=sys.stderr)
        return 2
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    killer = threading.Timer(float(timeout_s), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall_s = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall_s, "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
