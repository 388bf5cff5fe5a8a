"""The package's one background thread.  ``submit(fn)`` runs ``fn()`` on
it and returns ``wait``, which returns ``fn``'s result or raises its
exception.  ``tensor._product`` sends it half of a large product's rows,
``binfile.Reader.arrays`` the CRC of a payload of several chunks.

One named daemon thread per process (a forked child starts its own) runs
each job in turn under its submitter's numpy errstate, then drops the job
and its outcome before the submitter can return: a served weight views the
whole backbone.  A job may wait only on its own submitter and never submits,
so a split queued behind a load's CRC waits for the load, never deadlocks.
"""

import os
import queue
import threading

import numpy as np

_jobs = None  # (pid, job queue) of the process's worker, from its first job
_start_lock = threading.Lock()


def _serve(jobs):
    while True:
        fn, errstate, outcome, done = jobs.get()
        try:
            with np.errstate(**errstate):
                outcome[0] = fn()
        except BaseException as exc:  # handed to the submitter, which raises it
            outcome[1] = exc
        del fn, outcome
        done.put(None)


def submit(fn):
    global _jobs
    with _start_lock:
        if _jobs is None or _jobs[0] != os.getpid():
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="dvpt-worker",
                             daemon=True).start()
            _jobs = (os.getpid(), jobs)
    outcome, done = [None, None], queue.SimpleQueue()  # (result, exception)
    _jobs[1].put((fn, np.geterr(), outcome, done))

    def wait():
        done.get()
        if outcome[1] is not None:
            raise outcome[1]
        return outcome[0]

    return wait
