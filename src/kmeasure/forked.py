"""Run units of work in forked workers, to which the parent hands them one
at a time.

:func:`kmeasure.identities.run_suite` imports this module only when it runs
more than one unit in more than one worker, so a serial run neither
compiles nor imports it, nor ``pickle`` and ``select``.

Each worker has two pipes of its own.  On its task pipe the parent writes
the fixed-size index of one unit; on its result pipe the worker sends back
that unit's pickled results, prefixed by their length.  Only then does the
parent write the next index, so each worker holds one unit at a time and
the parent always knows which.  Units are handed out in plan order, so the
longest units, which come first in the plan, start first.  With no unit
left, the parent closes the worker's task pipe, and the worker exits.  The
parent polls every result pipe, so no worker waits on a pipe the parent is
not reading.

A worker that dies (say, killed for memory) loses only the unit it held:
that unit's results are made by the caller's ``lost`` function from the
worker's exit status, and a new worker takes its place while units are
left.  Workers leave only through ``os._exit``, and the parent reaps every
one of them, also when it raises.  When a pipe or a fork fails, the
``OSError`` reaches the caller once every worker is reaped and every pipe
closed.  The program starts no threads, so forking is safe.
"""

from __future__ import annotations

import os
import pickle
import select

_INDEX = 4  # bytes of a unit index
_SIZE = 8  # bytes of the length of a unit's pickled results


def _write_all(fd: int, data: bytes):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``, or fewer if the pipe ends first."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, min(size - len(data), 1 << 16))):
        data += chunk
    return data


def _worker(run_unit, plan, task_r, result_w):
    """Body of a forked worker: run each unit whose index it reads from its
    task pipe and send back the unit's results, until the pipe ends.  It
    leaves only through ``os._exit``, whatever a unit does, so it never
    flushes the buffers it inherited or returns into the parent's caller."""
    status = 1
    try:
        while index := os.read(task_r, _INDEX):
            payload = pickle.dumps(run_unit(plan[int.from_bytes(index, "little")]))
            _write_all(result_w, len(payload).to_bytes(_SIZE, "little") + payload)
        status = 0
    finally:
        os._exit(status)


def run_forked(run_unit, lost, plan, workers: int) -> list:
    """``[run_unit(unit) for unit in plan]``, computed in ``workers`` forked
    processes; a unit whose worker died gives ``lost(unit, status)``, where
    status is ``os.waitstatus_to_exitcode`` of that worker (negative for a
    signal)."""
    results = [None] * len(plan)
    handed = 0  # units handed out so far, in plan order
    # result pipe -> [pid, the open ends of its task pipe, index of the unit held].
    # The parent keeps the read end too, so writing to a worker that has just
    # died cannot fail; its result pipe ends, and the unit is lost.
    live = {}
    poller = select.poll()

    def end_task(worker):  # a worker holds a unit exactly while its task pipe is open
        for fd in worker[1]:
            os.close(fd)
        worker[1:] = (), None

    def hand_out(worker):
        nonlocal handed
        if handed < len(plan):
            os.write(worker[1][1], handed.to_bytes(_INDEX, "little"))
            worker[2] = handed
            handed += 1
        else:
            end_task(worker)

    def fork_worker():
        pipes = []
        try:
            pipes.append(os.pipe())
            pipes.append(os.pipe())
            pid = os.fork()
        except OSError:  # no worker started: close its pipes
            for fd in (fd for pipe in pipes for fd in pipe):
                os.close(fd)
            raise
        task, (result_r, result_w) = pipes
        if pid == 0:
            # a task pipe ends only once every copy of its write end is closed
            for fd in [task[1]] + [fd for _, ends, _ in live.values() for fd in ends]:
                os.close(fd)
            _worker(run_unit, plan, task[0], result_w)
        os.close(result_w)
        live[result_r] = worker = [pid, task, None]
        poller.register(result_r, select.POLLIN)
        hand_out(worker)

    try:
        for _ in range(workers):
            fork_worker()
        while live:
            for fd, _ in poller.poll():
                worker = live[fd]
                header = _read(fd, _SIZE)
                size = int.from_bytes(header, "little")
                payload = _read(fd, size)
                if len(header) == _SIZE and len(payload) == size:
                    results[worker[2]] = pickle.loads(payload)
                    hand_out(worker)
                    continue
                # the pipe has ended, so the worker has exited
                poller.unregister(fd)
                os.close(fd)
                pid, _, held = live.pop(fd)
                end_task(worker)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if held is not None:
                    results[held] = lost(plan[held], status)
                if handed < len(plan):
                    fork_worker()
    finally:
        if live:  # the parent is raising: stop the workers still running
            import signal

            for fd, worker in live.items():
                os.close(fd)
                end_task(worker)
                os.kill(worker[0], signal.SIGKILL)
                os.waitpid(worker[0], 0)
    return results
