"""Run units of work in forked workers, to which the parent hands them one
at a time.

:func:`kmeasure.identities.run_suite` imports this module only when it runs
more than one unit in more than one worker, so a serial run neither
compiles nor imports it, nor ``select``.

Each worker has two pipes of its own.  On its task pipe the parent writes
the fixed-size index of one unit; on its result pipe the worker sends back
that unit's results as one ``marshal`` record, which frames itself.
``marshal`` is built in, so ``run_unit`` returns plain data: None, ints,
floats, strings, and tuples and lists of them.  Only then does the
parent write the next index, so each worker holds one unit at a time and
the parent always knows which.  Units are handed out in plan order, so the
units the caller puts first start first.  With no unit left, the parent
closes the worker's task pipe, and the worker exits.  The parent polls
every result pipe, so no worker waits on a pipe the parent is not reading.

A worker that dies (say, killed for memory) loses only the unit it held:
that unit's results are made by the caller's ``lost`` function from the
worker's exit status, and the unit never runs again.  At the head of each
round of polling the parent forks workers until ``workers`` are alive or no
unit is left to hand out, so a new worker takes a dead one's place.  When a
pipe or a fork fails, the parent closes what it opened for that worker,
says so in one stderr line and forks no more workers in the run; the
workers still alive take the units that are left, and a unit no worker took
is returned as None, for the caller to run.  Workers leave only through
``os._exit``, and the parent reaps every one of them, also when it raises.
While the workers run, SIGTERM raises ``SystemExit(143)`` in the parent, so
that it too stops and reaps them before the run ends, as 128 + SIGTERM; a
worker restores the default disposition, so SIGTERM sent to it alone ends
it by the signal, and its unit is lost.  SIGINT and SIGTERM are blocked
across each fork.  A new worker unblocks them only inside ``_worker``'s
``try``, once it has reset SIGTERM and closed the pipe ends it must not
hold, and the parent only once the worker is among those it stops on the
way out.  So a signal that lands as a worker starts ends that worker alone,
as a worker; it never makes the worker run the parent's code (which would
kill its siblings), nor leaves a worker the parent does not know of.  The
program starts no threads, so forking is safe, and ``run_forked`` runs in
the main thread, the only one that may set a signal handler.
"""

from __future__ import annotations

import marshal
import os
import select
import signal
import sys

_INDEX = 4  # bytes of a unit index


def _worker(run_unit, plan, task_r, result_w, inherited, mask):
    """Body of a forked worker: run each unit whose index it reads from its
    task pipe and send back the unit's results, until the pipe ends.  It
    leaves only through ``os._exit``, whatever a unit or a signal does, so
    it never flushes the buffers it inherited or returns into the parent's
    caller.  It starts with SIGINT and SIGTERM blocked, closes the
    ``inherited`` fds, and only then restores the signal ``mask``."""
    status = 1
    try:
        # a worker that gets SIGTERM itself ends by it, as its status says
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for fd in inherited:
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = os.fdopen(result_w, "wb")
        while index := os.read(task_r, _INDEX):
            marshal.dump(run_unit(plan[int.from_bytes(index, "little")]), results)
            results.flush()
        status = 0
    finally:
        os._exit(status)


def run_forked(run_unit, lost, plan, workers: int) -> list:
    """Per plan unit, in plan order: ``run_unit(unit)``, computed in one of
    at most ``workers`` forked processes; ``lost(unit, status)`` if the
    worker that held the unit died, where status is
    ``os.waitstatus_to_exitcode`` of that worker (negative for a signal);
    or None if no worker took the unit, because a pipe or a fork failed."""
    results = [None] * len(plan)
    handed = 0  # units handed out so far, in plan order
    # result pipe -> [pid, the open ends of its task pipe, index of the unit
    # held, the reader of the result pipe].  The parent keeps the task pipe's
    # read end too, so writing to a worker that has just died cannot fail; its
    # result pipe ends, and the unit is lost.
    live = {}
    poller = select.poll()

    def end_task(worker):  # a worker holds a unit exactly while its task pipe is open
        for fd in worker[1]:
            os.close(fd)
        worker[1:3] = (), None

    def hand_out(worker):
        nonlocal handed
        if handed < len(plan):
            os.write(worker[1][1], handed.to_bytes(_INDEX, "little"))
            worker[2] = handed
            handed += 1
        else:
            end_task(worker)

    def fork_worker():
        """Start a worker and hand it a unit; True if it cannot start."""
        pipes = []
        # SIGINT and SIGTERM wait until the worker is inside _worker's try,
        # and until the parent holds it in ``live``
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            pipes.append(os.pipe())
            pipes.append(os.pipe())
            pid = os.fork()
        except OSError as exc:  # no worker started: close its pipes
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (fd for pipe in pipes for fd in pipe):
                os.close(fd)
            print(f"kmeasure: cannot start a worker ({exc}); "
                  "checks no worker takes run in this process", file=sys.stderr)
            return True
        task, (result_r, result_w) = pipes
        if pid == 0:
            # a task pipe ends only once every copy of its write end is closed
            inherited = [task[1]] + [fd for _, ends, *_ in live.values() for fd in ends]
            _worker(run_unit, plan, task[0], result_w, inherited, mask)
        os.close(result_w)
        live[result_r] = worker = [pid, task, None, os.fdopen(result_r, "rb")]
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        poller.register(result_r, select.POLLIN)
        hand_out(worker)

    failed = False  # once a worker cannot start, the run starts no more
    # SIGTERM (as from kill or timeout) raises SystemExit(128 + 15) here, so
    # that the finally below stops the workers before the run exits 143
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        while True:
            while not failed and len(live) < workers and handed < len(plan):
                failed = fork_worker()
            if not live:
                return results
            for fd, _ in poller.poll():
                worker = live[fd]
                try:
                    results[worker[2]] = marshal.load(worker[3])
                except EOFError:  # the pipe ended, maybe within a record: the worker has exited
                    poller.unregister(fd)
                    pid, _, held, reader = live.pop(fd)
                    reader.close()
                    end_task(worker)
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if held is not None:
                        results[held] = lost(plan[held], status)
                else:
                    hand_out(worker)
    finally:
        if live:  # the parent is raising: stop the workers still running
            for worker in live.values():
                worker[3].close()
                end_task(worker)
                os.kill(worker[0], signal.SIGKILL)
                os.waitpid(worker[0], 0)
        signal.signal(signal.SIGTERM, previous)
