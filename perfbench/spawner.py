"""Small helper process that starts the benchmark's commands and reaps them.

Linux carries a process's peak RSS across exec, so a child forked from the
benchmark's own process (which holds outputs and a calibration table)
would report at least that process's size.  This helper stays small, and
every command is forked from it.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS},
one JSON reply per line on stdout,
    {"t0": ..., "wall": ..., "utime": ..., "stime": ..., "maxrss_kb": ..., "exit": ...}.
t0 is time.perf_counter() just before the fork (CLOCK_MONOTONIC, so other
processes can compare their own perf_counter() readings with it).  A
command still running after its timeout is killed.  The helper exits at
end of input, and kills its running command on SIGTERM.
"""

import json
import os
import signal
import sys
import time

_running = 0


def _kill_running(signum, frame):
    if _running:
        os.kill(_running, signal.SIGKILL)
    if signum == signal.SIGTERM:
        if _running:
            os.waitpid(_running, 0)
        os._exit(1)


def run(request: dict) -> dict:
    global _running
    out_fd = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(null_fd, 0)
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
            os.execvp(request["argv"][0], request["argv"])
        finally:
            os._exit(127)
    _running = pid
    for fd in (out_fd, err_fd, null_fd):
        os.close(fd)
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.1))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _running = 0
    return {
        "t0": t0,
        "wall": time.perf_counter() - t0,
        "utime": usage.ru_utime,
        "stime": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _kill_running)
    signal.signal(signal.SIGTERM, _kill_running)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
