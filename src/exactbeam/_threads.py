"""The one thread runner: how many threads a job of equal blocks runs on, and the run.

``run_blocks`` runs both the field evaluators' fill (:mod:`exactbeam.beam`)
and the grid writers' chunks (:mod:`exactbeam.gridio`), and one rule
sizes it: a job of ``blocks`` blocks runs on min(usable CPUs,
blocks // 2, MAX_THREADS) threads, the calling thread among them, so
that every thread gets at least two blocks, and in the calling thread
alone when that is below two. Below two blocks per thread, starting the
threads costs more than they save: a 20,000-point field call split over
two threads ran slower than in one. There is no knob and no environment
variable.
"""

from __future__ import annotations

import os
import threading
from collections import deque

import numpy as np

#: Most threads one job runs on. Each thread of the field fill holds one
#: block's temporaries (at most ten float64 arrays of ``beam.BLOCK_POINTS``
#: points, 2.0 MB), so a call's peak stays below its output plus this many
#: blocks' worth whatever the machine's CPU count: exact_psi on 1e6 points
#: stays under 24 MB, 16 MB of it the output.
MAX_THREADS = 3


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or the machine's count
    where the platform has no ``os.sched_getaffinity``."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_blocks(run, blocks) -> None:
    """Call ``run(*block)`` for every block, on min(usable CPUs, blocks // 2, MAX_THREADS) threads.

    The calling thread takes blocks too, and the others take the next one
    from a shared queue whenever they finish one, so a slower CPU does
    fewer. The threads are started and joined inside the call: none
    outlives it, and a nested call starts its own. Each worker runs under
    the caller's ``numpy.errstate``, which numpy before 2.0 keeps per
    thread and numpy 2 per context, so a new thread would not inherit it.
    The first exception stops the hand-out and is raised in the caller
    once every thread has finished its block.
    """
    workers = min(usable_cpus(), len(blocks) // 2, MAX_THREADS)
    if workers < 2:
        for block in blocks:
            run(*block)
        return
    pending = deque(blocks)
    errors = []
    errstate = dict(np.geterr(), call=np.geterrcall())

    def drain():
        with np.errstate(**errstate):
            while pending:
                try:
                    block = pending.popleft()
                except IndexError:  # another thread took the last block
                    return
                try:
                    run(*block)
                except BaseException as exc:
                    pending.clear()
                    errors.append(exc)

    threads = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    drain()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
