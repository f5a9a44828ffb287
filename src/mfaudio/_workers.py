"""Forked worker processes that run batches of work on demand.

``Workers(run, lists, batch_size, count)`` cuts each list of items into
batches, numbers them in order and forks ``count`` processes, each with
a pipe for batch indices and a pipe back for results.  The workers
inherit ``run`` and the batches through the fork, so a batch travels to
one as its index alone (4 bytes), and its results travel back as one
pickle.  The process that made the workers hands an idle one the next
batch whenever it waits for a result, and keeps a result that arrives
before the batches ahead of it as bytes until it is asked for.  No thread
is started.  A worker exits when its index pipe closes; ``close``
closes them all, kills a worker still busy and reaps every one.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

_INDEX_BYTES = 4
_HEADER_BYTES = 9  # a failed flag and the pickle's length


class Workers:
    """``count`` forked processes that call ``run`` on each item of
    ``lists``, in batches of ``batch_size(items)`` items of a list, handed
    out in order as the workers fall idle."""

    def __init__(self, run, lists, batch_size, count: int):
        batches, self._spans = [], []  # a list's batches are batches[span]
        for items in lists:
            first, size = len(batches), batch_size(items) if items else 1
            batches += (items[k:k + size] for k in range(0, len(items), size))
            self._spans.append(range(first, len(batches)))
        self._n_batches = len(batches)
        self._next = 0  # the next batch to hand out
        self._skipped: set[int] = set()
        self._held: dict[int, tuple[bool, bytes]] = {}  # results received before they were asked for
        self._workers: dict = {}  # result pipe (read end, a file) -> (pid, index pipe)
        self._busy: dict = {}  # result pipe -> its worker's batch
        try:
            for _ in range(count):
                self._fork(run, batches)
        except BaseException:
            self.close()
            raise

    def _fork(self, run, batches) -> None:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # this worker keeps only its own two ends
                os.close(task_w)
                os.close(result_r)
                for results, (_, tasks) in self._workers.items():
                    results.close()
                    os.close(tasks)
                _serve(run, batches, open(task_r, "rb"), open(result_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self._workers[open(result_r, "rb")] = (pid, task_w)

    def results(self, n: int):
        """What ``run`` returned for each item of list ``n``, in order; an
        item that raised raises here.  Batches of the list not yet handed
        out when this generator ends early are never handed out."""
        indices = self._spans[n]
        try:
            for i in indices:
                yield from self._result(i)
        finally:
            self._skipped.update(indices)
            for i in indices:
                self._held.pop(i, None)

    def _result(self, index: int):
        while index not in self._held:
            self._hand_out()
            ready, _, _ = select.select(list(self._busy), [], [])
            for results in ready:
                self._receive(results)
        failed, body = self._held.pop(index)
        if failed:
            raise pickle.loads(body)
        self._hand_out()  # before unpickling, so an idle worker need not wait for it
        return pickle.loads(body)

    def _hand_out(self) -> None:
        for results in self._workers.keys() - self._busy.keys():
            while self._next < self._n_batches and self._next in self._skipped:
                self._next += 1
            if self._next == self._n_batches:
                return
            try:
                os.write(self._workers[results][1], self._next.to_bytes(_INDEX_BYTES, "little"))
            except BrokenPipeError:
                self._died(results)
            self._busy[results] = self._next
            self._next += 1

    def _receive(self, results) -> None:
        header = results.read(_HEADER_BYTES)
        size = int.from_bytes(header[1:], "little")
        body = results.read(size)
        if len(header) < _HEADER_BYTES or len(body) < size:  # its worker is gone
            self._died(results)
        index = self._busy.pop(results)
        if index not in self._skipped:
            self._held[index] = (bool(header[0]), body)

    def _died(self, results):
        pid, tasks = self._workers.pop(results)
        results.close()
        os.close(tasks)
        self._busy.pop(results, None)
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"worker process {pid} died ({how})")

    def close(self) -> None:
        """End every worker: close its index pipe, kill it if it is busy,
        and reap it."""
        for _, tasks in self._workers.values():
            os.close(tasks)
        for results in self._busy:
            os.kill(self._workers[results][0], signal.SIGKILL)
        for results, (pid, _) in self._workers.items():
            results.close()
            os.waitpid(pid, 0)
        self._workers.clear()
        self._busy.clear()


def _serve(run, batches, tasks, results) -> None:
    """A worker's loop: run each batch whose index arrives on ``tasks`` and
    write its pickled result, or the exception it raised, to ``results``;
    return when ``tasks`` closes."""
    while index := tasks.read(_INDEX_BYTES):
        try:
            batch = batches[int.from_bytes(index, "little")]
            failed, body = False, pickle.dumps([run(item) for item in batch], pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            failed, body = True, pickle.dumps(err, pickle.HIGHEST_PROTOCOL)
        results.write(bytes([failed]) + len(body).to_bytes(_HEADER_BYTES - 1, "little"))
        results.write(body)
        results.flush()
