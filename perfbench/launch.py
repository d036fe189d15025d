"""Run one command, wait for it, and write its exit code and resource use.

    python3 perfbench/launch.py RESULT_JSON ARGV...

The kernel counts into a process's peak RSS the RSS of the process that
started it, as it was at the ``exec``.  The benchmark process holds
numpy, the checker's data and the calibration arrays, so a command it
started itself would report at least the benchmark's own size.  It
starts this small process instead, which starts the command and reports
what ``wait4`` says about it alone.
"""

import json
import os
import subprocess
import sys


def main() -> int:
    result, argv = sys.argv[1], sys.argv[2:]
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status),
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
