"""Run one command as a child of this small process and report its usage.

Usage: python3 perfbench/launch.py STDERR_PATH -- ARGV...

On Linux a child forked from a large process starts with that process's
resident size as its ru_maxrss, so the benchmark, which holds its inputs and
reference in memory, forks every measured child from this launcher instead.
Prints one JSON line: wall_s (spawn to exit), cpu_s (user + system),
peak_rss_mb and exit_code, all of the child alone, from os.wait4.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    stderr_path, separator, *argv = sys.argv[1:]
    if separator != "--" or not argv:
        raise SystemExit("usage: launch.py STDERR_PATH -- ARGV...")
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
