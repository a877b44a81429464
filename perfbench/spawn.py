"""Start and reap the benchmark's child processes from a small process.

Linux counts the resident set of the process that forks a child into the
child's peak RSS (``ru_maxrss`` from ``wait4``).  The harness grows, so
it hands every child to this helper instead, which stays at a few MB.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``, answered by one
JSON line ``{"rc", "wall", "cpu", "maxrss_kb", "killed"}``.  A child still running
after ``timeout`` seconds is killed.  The helper exits at end of input.
"""

import json
import os
import signal
import sys
import time


def run(argv, cwd, env, stdout, stderr, timeout):
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            fd_in = os.open(os.devnull, os.O_RDONLY)
            fd_out = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            fd_err = os.open(stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd_in, 0)
            os.dup2(fd_out, 1)
            os.dup2(fd_err, 2)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    killed = False

    def on_alarm(signum, frame):
        nonlocal killed
        os.kill(pid, signal.SIGKILL)
        killed = True

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1e-3))
    try:
        # wait without reaping, so the pid stays ours until the timer is off
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    _, status, usage = os.wait4(pid, 0)
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "killed": killed,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
