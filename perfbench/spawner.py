"""Spawner child of the benchmark: starts every timed command from a small process.

    python3 -S -u perfbench/spawner.py

On Linux, exec copies the peak RSS of the process that forked the child
into the child's ru_maxrss, so a child started by the benchmark itself
reads at least the benchmark's own peak.  This process stays small, so the
children's readings are their own.  It prints its peak RSS in KiB (VmHWM),
then for each request line (stderr path, then argv, NUL-separated) runs the
command with stdin and stdout on /dev/null and prints the child's pid, and
when the child has ended "<wall seconds> <exit code> <ru_maxrss KiB> <own
peak RSS KiB>".  It exits when its stdin closes.
"""

import os
import sys
import time


def own_peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


print(own_peak_kib())
for line in sys.stdin:
    err_path, *argv = line.rstrip("\n").split("\0")
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_RDWR)
            err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(null, 0)
            os.dup2(null, 1)
            os.dup2(err, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    print(pid)
    _, status, usage = os.wait4(pid, 0)
    took = time.perf_counter() - t0
    print(took, os.waitstatus_to_exitcode(status), usage.ru_maxrss, own_peak_kib())
