"""Independent tasks keyed by index, run on the process's usable CPUs.

Its callers are CSV chunk formatting, walk path groups, and ``verify``'s
report groups (the transform batches and the occupation identity per ray
count).  A walk batch run inside a ``verify`` task maps its path groups
serially in that worker, by the worker rule below.

``ordered_map(fn, count)`` yields ``fn(0), ..., fn(count - 1)`` in index
order.  Each task must be a pure function of its index, so the results, and
every byte written from them, do not depend on how many processes ran them.
The caller forks ``min(usable CPUs, count // 2)`` workers, which inherit
``fn`` and the arrays it holds.  A fork costs about as much as one small
task, so a map of fewer than four tasks, a one-CPU affinity mask, a map
started inside a worker and a platform without ``os.fork`` all run serially
in the caller.  ``taskset`` limits the CPUs used.

Claiming work: one pipe holds a single 8-byte token, the next unclaimed
index.  A worker reads the token, writes back the index after it, and runs
the task it read, so at most one worker holds the token, indices are
claimed in increasing order (``output.write_csv`` hands each chunk's offset
on to the next one by that order) and a worker with short tasks claims more
of them.  A worker that reads ``count`` or more writes the token back and
exits.  Each result goes back as a length-prefixed pickle of
``(i, ok, value or exception)`` through the worker's own pipe; the caller
waits on those pipes, holds results that arrive early, and yields them in
order.  A task's exception is raised at its index with its own type; one
that cannot be pickled comes back as a ``RuntimeError`` naming it.

A worker that dies (an OOM kill, a signal, an exit from inside a task)
makes the map raise ``RuntimeError`` as soon as its pipe closes, rather
than wait for the results it took with it.  Whether the map returns, raises
or is dropped by its consumer, it kills and reaps every worker it started.
"""
from __future__ import annotations

import os
import pickle
import sys

_in_worker = False  # set in a forked worker, whose own maps run serially


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, count):
    """Yield ``fn(i)`` for i in ``range(count)``, in order; a task's exception
    reaches the caller with its own type."""
    workers = min(_usable_cpus(), count // 2)
    if workers > 1 and not _in_worker and hasattr(os, "fork"):
        yield from _forked_map(fn, count, workers)
    else:
        yield from map(fn, range(count))


def _flush():
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _forked_map(fn, count, workers):
    import select
    import signal

    token = os.pipe()
    os.write(token[1], bytes(8))  # index 0 is the first to claim
    live = {}  # the result pipe of each unreaped worker -> (its pid, bytes read)
    results = {}
    poller = select.poll()
    _flush()  # else a worker could print the caller's buffered output again
    try:
        for _ in range(workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _work(fn, count, token, w)
            os.close(w)
            live[r] = pid, bytearray()
            poller.register(r, select.POLLIN)
        for i in range(count):
            while i not in results:
                if not live:
                    raise RuntimeError(f"every worker exited without task {i}'s result")
                for fd, _ in poller.poll():
                    data = os.read(fd, 1 << 16)  # one pipe buffer
                    if data:
                        _take(live[fd][1], data, results)
                        continue
                    poller.unregister(fd)
                    os.close(fd)
                    pid, _ = live.pop(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code:
                        how = f"by signal {-code}" if code < 0 else f"with status {code}"
                        raise RuntimeError(f"worker {pid} ended {how} before task {i}'s result")
            ok, value = results.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for pid, _ in live.values():
            os.kill(pid, signal.SIGKILL)  # safe: an unreaped pid is never reused
        for fd, (pid, _) in live.items():
            os.waitpid(pid, 0)
            os.close(fd)
        os.close(token[0])
        os.close(token[1])


def _take(buffer, data, results):
    """Append ``data`` to a worker's ``buffer`` and move each whole message
    in it into ``results``."""
    buffer += data
    while len(buffer) >= 8:
        end = 8 + int.from_bytes(buffer[:8], "little")
        if len(buffer) < end:
            return
        i, ok, value = pickle.loads(buffer[8:end])
        results[i] = ok, value
        del buffer[:end]


def _work(fn, count, token, out):
    """A forked worker's whole life: claim, run and send back tasks until the
    token passes ``count``, then exit without returning into the caller."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        while True:
            i = int.from_bytes(os.read(token[0], 8), "little")
            os.write(token[1], (i + 1).to_bytes(8, "little"))
            if i >= count:
                break
            try:
                result = (i, True, fn(i))
            except Exception as exc:
                result = (i, False, exc)
            try:
                message = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # a value or an error that does not pickle
                message = pickle.dumps((i, False, RuntimeError(
                    f"task {i} gave {result[2]!r}, which cannot be sent back: {exc}")))
            view = memoryview(len(message).to_bytes(8, "little") + message)
            while view:
                view = view[os.write(out, view):]
        _flush()
        status = 0
    finally:
        os._exit(status)
