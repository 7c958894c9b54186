"""Run one command and report its wall time, CPU time and peak RSS.

Usage: python3 -I -S bench/launch.py RESULT_FILE TIMEOUT_S PROGRAM ARG...

run.py starts every timed child through this small process instead of
spawning it itself.  Linux carries the spawning process's peak RSS into the
child's ru_maxrss across exec, so a child spawned straight from run.py (about
20 MB, more after calibration slices) would report run.py's memory whenever
its own is smaller.  This launcher imports almost nothing, stays near 9 MB,
below any `immanants` command, and hands the command its own stdin, stdout,
stderr and environment.  When the command ends, or is killed after TIMEOUT_S,
it writes one line to RESULT_FILE:

    WALL_S CPU_S MAXRSS_KB EXIT_CODE TIMED_OUT
"""

import os
import signal
import sys
import time


def main() -> int:
    result_path, timeout_s, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    pid = None
    timed_out = False

    def expire(signum, frame) -> None:
        nonlocal timed_out
        timed_out = True
        if pid is not None:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, expire)  # run.py is stopping: take the command down too
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    cpu = usage.ru_utime + usage.ru_stime
    with open(result_path, "w") as f:
        f.write(f"{wall!r} {cpu!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)} {int(timed_out)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
