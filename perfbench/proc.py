"""Run one child process at a time and measure it.

Each child is reaped with ``os.wait4``, whose rusage belongs to that child
alone, so ``peak_rss_mb`` is the child's own peak. ``getrusage(RUSAGE_CHILDREN)``
would instead report the largest child reaped so far, so after one big
``beam field`` run every later child would read the same value.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Child:
    argv: list
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run(argv, *, cwd, env, log_stem, timeout_s: float = 120.0) -> Child:
    """Run ``argv`` to completion; stdout and stderr go to ``log_stem``.out/.err."""
    out_path, err_path = f"{log_stem}.out", f"{log_stem}.err"
    lock = threading.Lock()
    state = {"reaped": False, "timed_out": False}

    def kill():
        with lock:
            if not state["reaped"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            # wait without reaping, so the pid cannot be reused while the timer may kill it
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)

    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(
        argv=list(argv),
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=stdout,
        stderr=stderr,
        timed_out=state["timed_out"],
    )
