"""Forked worker processes that run the items of work in a fixed stride.

``Workers(run, lists, count)`` numbers the items of every list in order
and forks ``count`` processes; worker w runs items w, w + count, ... in
order.  They inherit ``run`` and the items through the fork, so nothing is
written to a worker.  Each writes every item's reply down its one pipe as
one pickle, ``(failed, value)``: what ``run`` returned or raised.  Item i
is read from pipe i mod count, in item order, so no worker can block the
one read from; a worker runs ahead only as far as its pipe buffer holds
(64 KiB on Linux: 45 replies of 1.4 kB, 12 of 5.3 kB).  A shared ``mmap``
holds, per list, the lowest index of an item known to have raised; a
worker skips each later item of that list with a skip reply, which the
reader drops.  Workers ignore SIGINT and exit once the reader is gone.
"""

import mmap
import os
import pickle
import signal


class Workers:
    """``count`` forked processes that call ``run`` on the items of ``lists``."""

    def __init__(self, run, lists, count: int):
        items = [(n, item) for n, some in enumerate(lists) for item in some]
        self._sizes = [len(some) for some in lists]
        self._next = 0  # the item whose reply is read next
        self._failed = memoryview(mmap.mmap(-1, 8 * max(1, len(lists)))).cast("q")
        for n in range(len(lists)):
            self._failed[n] = len(items)  # no item of list n has failed
        self._workers = []  # (pid, reply pipe as a file) of worker w at w
        try:
            for _ in range(count):
                self._fork(run, items, count)
        except BaseException:
            self.close()
            raise

    def _fork(self, run, items, count: int) -> None:
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(reply_r)
            os.close(reply_w)
            raise
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C is for the reader
                os.close(reply_r)  # this worker keeps only its own write end
                for _, replies in self._workers:
                    replies.close()
                _serve(run, items, len(self._workers), count, self._failed, open(reply_w, "wb"))
                os._exit(0)
            finally:
                os._exit(1)
        os.close(reply_w)
        self._workers.append((pid, open(reply_r, "rb")))

    def results(self, n: int):
        """What ``run`` returned for each item of list ``n``, in order; an
        item that raised raises here.  Lists are asked for in order."""
        start = sum(self._sizes[:n])
        while self._next < start:  # the replies left after a failure
            self._read()
        for _ in range(self._sizes[n]):
            failed, value = self._read()
            if failed:
                raise value
            yield value

    def _read(self):
        w, self._next = self._next % len(self._workers), self._next + 1
        try:
            return pickle.load(self._workers[w][1])
        except (EOFError, pickle.UnpicklingError):  # its worker is gone
            pid, code = self._workers[w][0], os.waitstatus_to_exitcode(self._reap(w))
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"worker process {pid} died ({how})")

    def _reap(self, w: int) -> int:
        """Close worker ``w``'s pipe and wait for it to end; its wait status."""
        pid, replies = self._workers.pop(w)
        replies.close()
        return os.waitpid(pid, 0)[1]

    def close(self) -> None:
        """Kill and reap every worker."""
        for pid, _ in self._workers:
            os.kill(pid, signal.SIGKILL)
        while self._workers:
            self._reap(-1)


def _serve(run, items, first: int, step: int, failed, replies) -> None:
    """A worker's loop: write a reply for items ``first``, ``first + step``, ..."""
    for i in range(first, len(items), step):
        n, item = items[i]
        if failed[n] < i:
            reply = pickle.dumps(None)
        else:
            try:
                reply = pickle.dumps((False, run(item)), pickle.HIGHEST_PROTOCOL)
            except Exception as err:
                failed[n] = min(failed[n], i)  # a racing write leaves a real, later failure
                reply = pickle.dumps((True, err), pickle.HIGHEST_PROTOCOL)
        replies.write(reply)
        replies.flush()
