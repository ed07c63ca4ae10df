"""Independent tasks keyed by index, run on the process's usable CPUs.

``ordered_map(fn, count)`` yields ``fn(0), ..., fn(count - 1)`` in index
order.  Each task must be a pure function of its index, so the results, and
every byte written from them, do not depend on how many processes ran them.
Workers are forked: they inherit ``fn`` and the arrays it holds, and only
the results are pickled back.  A fork costs about as much as one small task,
so a map of fewer than four tasks, a one-CPU affinity mask, a call from
inside a daemonic process (such as a pool worker) and a platform without
``fork`` all run serially in the caller.  ``taskset`` limits the CPUs used.
"""
from __future__ import annotations

import os

_task = None  # a worker's fn, installed when the worker starts


def _install(fn):
    global _task
    _task = fn


def _run(i):
    return _task(i)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, count):
    """Yield ``fn(i)`` for i in ``range(count)``, in order; a task's exception
    reaches the caller with its own type."""
    workers = min(_usable_cpus(), count // 2)
    if workers > 1:
        import multiprocessing
        if (not multiprocessing.current_process().daemon
                and "fork" in multiprocessing.get_all_start_methods()):
            # a forked worker inherits initargs; only indices and results are pickled
            with multiprocessing.get_context("fork").Pool(
                    workers, initializer=_install, initargs=(fn,)) as pool:
                yield from pool.imap(_run, range(count))
            return
    yield from map(fn, range(count))
