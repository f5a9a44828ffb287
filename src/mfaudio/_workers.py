"""Forked worker processes that run items of work on demand.

``Workers(run, lists, count)`` numbers the items of every list in order
and forks ``count`` processes, each with a pipe for item indices and a
pipe back for replies.  The workers inherit ``run`` and the items through
the fork, so an item travels to one as its index alone (4 bytes), and
its reply travels back as one pickle, ``(failed, value)``.  A worker has
one item at a time, so a buffered ``pickle.load`` of its reply leaves no
byte behind where ``poll`` would not see it.  Whenever the process that
made the workers waits for a reply it hands idle ones the next items,
and it keeps a reply that arrives early until it is asked for.  No
thread is started.  ``close`` kills and reaps every worker.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

_INDEX_BYTES = 4


class Workers:
    """``count`` forked processes that call ``run`` on each item of
    ``lists``, handed out one at a time, in order, as the workers fall
    idle."""

    def __init__(self, run, lists, count: int):
        items, self._spans = [], []  # list n's items are items[self._spans[n]]
        for some in lists:
            self._spans.append(range(len(items), len(items) + len(some)))
            items += some
        self._n_items = len(items)
        self._next = 0  # the next item to hand out
        self._wanted = 0  # the first item whose reply may still be asked for
        self._held: dict[int, tuple] = {}  # replies received before they were asked for
        self._workers: dict = {}  # result pipe -> (pid, index pipe, result pipe as a file)
        self._busy: dict = {}  # result pipe -> its worker's item
        self._poll = select.poll()  # select() refuses a descriptor above 1023
        try:
            for _ in range(count):
                self._fork(run, items)
        except BaseException:
            self.close()
            raise

    def _fork(self, run, items) -> None:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        task_r, task_w, result_r, result_w = fds
        if pid == 0:
            code = 1
            try:
                # this worker keeps only its own two ends
                os.close(task_w)
                os.close(result_r)
                for _, tasks, results in self._workers.values():
                    os.close(tasks)
                    results.close()
                _serve(run, items, open(task_r, "rb"), open(result_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self._workers[result_r] = (pid, task_w, open(result_r, "rb"))
        self._poll.register(result_r, select.POLLIN)

    def results(self, n: int):
        """What ``run`` returned for each item of list ``n``, in order; an
        item that raised raises here, and the items of the list not yet
        handed out are never handed out.  Lists are asked for in order."""
        span = self._spans[n]
        for i in span:
            while i not in self._held:
                self._hand_out()
                for results, _ in self._poll.poll():
                    self._receive(results)
            failed, value = self._held.pop(i)
            if failed:
                self._wanted = span.stop
                self._held = {k: reply for k, reply in self._held.items() if k >= span.stop}
                raise value
            self._hand_out()  # before the caller takes its time over value
            yield value

    def _hand_out(self) -> None:
        self._next = max(self._next, self._wanted)
        for results in self._workers.keys() - self._busy.keys():
            if self._next == self._n_items:
                return
            try:
                os.write(self._workers[results][1], self._next.to_bytes(_INDEX_BYTES, "little"))
            except BrokenPipeError:
                self._died(results)
            self._busy[results] = self._next
            self._next += 1

    def _receive(self, results) -> None:
        try:
            reply = pickle.load(self._workers[results][2])
        except (EOFError, pickle.UnpicklingError):  # its worker is gone
            self._died(results)
        i = self._busy.pop(results)
        if i >= self._wanted:
            self._held[i] = reply

    def _died(self, results):
        pid = self._workers[results][0]
        code = os.waitstatus_to_exitcode(self._reap(results))
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"worker process {pid} died ({how})")

    def _reap(self, results) -> int:
        """Close a worker's pipes and wait for it to end; its wait status."""
        pid, tasks, file = self._workers.pop(results)
        os.close(tasks)
        file.close()
        return os.waitpid(pid, 0)[1]

    def close(self) -> None:
        """Kill and reap every worker."""
        for pid, _, _ in self._workers.values():
            os.kill(pid, signal.SIGKILL)
        while self._workers:
            self._reap(next(iter(self._workers)))


def _serve(run, items, tasks, results) -> None:
    """A worker's loop: run each item whose index arrives on ``tasks`` and
    write ``(failed, value)``, what ``run`` returned or the exception it
    raised, to ``results`` as one pickle; return when ``tasks`` closes."""
    while index := tasks.read(_INDEX_BYTES):
        try:
            value = run(items[int.from_bytes(index, "little")])
            reply = pickle.dumps((False, value), pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            reply = pickle.dumps((True, err), pickle.HIGHEST_PROTOCOL)
        results.write(reply)
        results.flush()
