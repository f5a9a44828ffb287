import errno
import os
import time

import pytest

from mfaudio import _workers

LISTS = [[1, 2, 3], [], [4, 5]]


def run_all(run):
    """Each list of LISTS through two workers, then no child is left."""
    workers = _workers.Workers(run, LISTS, 2)
    try:
        return [list(workers.results(n)) for n in range(len(LISTS))]
    finally:
        workers.close()
        assert_no_child()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_order():
    assert run_all(lambda x: 10 * x) == [[10, 20, 30], [], [40, 50]]


def test_an_item_that_raises_ends_only_its_list():
    def run(x):
        if x == 2:
            raise ValueError(f"item {x}")
        return 10 * x

    workers = _workers.Workers(run, LISTS, 2)
    try:
        first = workers.results(0)
        assert next(first) == 10
        with pytest.raises(ValueError, match="item 2"):
            next(first)
        assert list(workers.results(1)) == []
        assert list(workers.results(2)) == [40, 50]
    finally:
        workers.close()
    assert_no_child()


def test_a_reply_larger_than_a_pipe_buffer_comes_back_whole():
    def run(x):
        return bytes(range(256)) * 800 + bytes([x])  # 204,801 bytes

    replies = [reply for replies in run_all(run) for reply in replies]
    assert replies == [run(x) for x in (1, 2, 3, 4, 5)]


def test_close_kills_a_busy_worker():
    def run(x):
        if x == 2:
            time.sleep(60)
        return x

    start = time.monotonic()
    workers = _workers.Workers(run, LISTS, 2)
    try:
        assert next(workers.results(0)) == 1  # item 2 is running by now
    finally:
        workers.close()
    assert time.monotonic() - start < 30
    assert_no_child()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc")
def test_a_failed_fork_leaks_no_descriptor(monkeypatch):
    # as os.fork does at the process limit; the first worker is reaped
    real_fork, forks = os.fork, []

    def fork():
        forks.append(True)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError):
        _workers.Workers(str, LISTS, 2)
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 2
    assert_no_child()
