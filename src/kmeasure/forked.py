"""Run units of work in forked workers that pull them from one pipe.

:func:`kmeasure.identities.run_suite` imports this module only when it runs
more than one unit in more than one worker, so a serial run neither
compiles nor imports it, nor ``pickle`` and ``select``.

The parent forks the workers, then writes one fixed-size index per unit,
in plan order, into one work pipe that all of them read, so the longest
units, which come first in the plan, start first.  Each worker has a
result pipe of its own, on which it sends a header (index, 0) when it
takes a unit and (index, n) followed by n bytes of pickled results when
the unit is done.  The parent writes the work without blocking and polls
every pipe, so no worker waits on a pipe the parent is not reading.

A worker that dies (say, killed for memory) loses only the unit it held:
that unit's results are made by the caller's ``lost`` function from the
worker's exit status, and a new worker takes its place while units are
left.  Workers leave only through ``os._exit``, and the parent reaps every
one of them, also when it raises.  The program starts no threads, so
forking is safe.
"""

from __future__ import annotations

import os
import pickle
import select

_INDEX = 4  # bytes of a unit index
_HEADER = _INDEX + 8  # a unit index and the length of the payload after it
_MISSING = object()  # the result of a unit that has not come back


def _frame(index: int, payload: bytes = b"") -> bytes:
    return index.to_bytes(_INDEX, "little") + len(payload).to_bytes(8, "little") + payload


def _write_all(fd: int, data: bytes):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _worker(run_unit, plan, work_r, work_w, result_w):
    """Body of a forked worker: run the units whose indices it reads from
    the work pipe until the pipe ends.  It leaves only through
    ``os._exit``, whatever a unit does, so it never flushes the buffers it
    inherited or returns into the parent's caller."""
    status = 1
    try:
        if work_w is not None:
            os.close(work_w)  # else the work pipe would never end
        while record := os.read(work_r, _INDEX):
            index = int.from_bytes(record, "little")
            _write_all(result_w, _frame(index))
            _write_all(result_w, _frame(index, pickle.dumps(run_unit(plan[index]))))
        status = 0
    finally:
        os._exit(status)


def run_forked(run_unit, lost, plan, workers: int) -> list:
    """``[run_unit(unit) for unit in plan]``, computed in ``workers`` forked
    processes; a unit whose worker died gives ``lost(unit, status)``, where
    status is ``os.waitstatus_to_exitcode`` of that worker (negative for a
    signal)."""
    results = [_MISSING] * len(plan)
    status_of = {}  # unit index -> exit status of the worker that died holding it
    last_death = None
    taken = 0
    work_r, work_w = os.pipe()
    os.set_blocking(work_w, False)
    # a write of at most PIPE_BUF bytes is atomic, so no index is split
    chunk = select.PIPE_BUF - select.PIPE_BUF % _INDEX
    work = memoryview(b"".join(i.to_bytes(_INDEX, "little") for i in range(len(plan))))
    poller = select.poll()
    poller.register(work_w, select.POLLOUT)
    live = {}  # result pipe -> [pid, bytes not yet parsed, index of the unit held]

    def fork_worker():
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            _worker(run_unit, plan, work_r, work_w, result_w)
        os.close(result_w)
        live[result_r] = [pid, bytearray(), None]
        poller.register(result_r, select.POLLIN)

    try:
        for _ in range(workers):
            fork_worker()
        while live:
            for fd, _ in poller.poll():
                if fd == work_w:
                    try:
                        work = work[os.write(work_w, work[:chunk]):]
                    except BlockingIOError:
                        continue
                    if not work:
                        poller.unregister(work_w)
                        os.close(work_w)
                        work_w = None
                    continue
                worker = live[fd]
                data = os.read(fd, 1 << 16)
                if data:
                    buffer = worker[1]
                    buffer += data
                    while len(buffer) >= _HEADER:
                        index = int.from_bytes(buffer[:_INDEX], "little")
                        size = int.from_bytes(buffer[_INDEX:_HEADER], "little")
                        if len(buffer) < _HEADER + size:
                            break
                        if size:
                            results[index] = pickle.loads(buffer[_HEADER:_HEADER + size])
                            worker[2] = None
                        else:
                            worker[2] = index
                            taken += 1
                        del buffer[:_HEADER + size]
                    continue
                # the pipe has ended, so the worker has exited
                poller.unregister(fd)
                os.close(fd)
                del live[fd]
                pid, _, held = worker
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status:
                    last_death = status
                if held is not None:
                    status_of[held] = status
                    if taken < len(plan):
                        fork_worker()
    finally:
        if work_w is not None:
            os.close(work_w)
        os.close(work_r)
        if live:  # the parent is raising: stop the workers still running
            import signal

            for fd, (pid, *_) in live.items():
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    return [
        lost(unit, status_of.get(index, last_death)) if result is _MISSING else result
        for index, (unit, result) in enumerate(zip(plan, results))
    ]
