import errno
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

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


@pytest.mark.parametrize("slow", [1, 4], ids=["other-worker-behind", "other-worker-ahead"])
def test_a_failure_is_raised_whichever_worker_runs_ahead(slow):
    # worker 0 runs items 0, 2, 4, ... and worker 1 items 1, 3, 5, ...; item
    # 4 raises.  A slow item 1 leaves worker 1 behind: the failure is
    # recorded before it reaches item 3, which still runs.  A slow item 4
    # lets worker 1 run items 5, 7 and 9 before the failure is recorded.
    def run(x):
        if x == slow:
            time.sleep(0.3)
        if x == 4:
            raise ValueError(f"item {x}")
        return 10 * x

    workers = _workers.Workers(run, [list(range(10)), [10, 11, 12]], 2)
    try:
        first = workers.results(0)
        assert [next(first) for _ in range(4)] == [0, 10, 20, 30]
        with pytest.raises(ValueError, match="item 4"):
            next(first)
        assert list(workers.results(1)) == [100, 110, 120]
    finally:
        workers.close()
    assert_no_child()


def test_failures_racing_in_four_workers_raise_the_first_of_each_list():
    # the workers record failures of one list at once, unlocked: a lost
    # update leaves a later failure's index, so fewer items are skipped, but
    # no item before a list's first failure is skipped.  A failing item is
    # instant and the others take up to 10 ms, so most failures are
    # recorded while another worker is still behind them.
    rng = random.Random(5)
    lists = [[(k, rng.random() < 0.2, rng.random() / 100) for k in range(40)] for _ in range(10)]

    def run(item):
        k, fails, pause = item
        if fails:
            raise ValueError(k)
        time.sleep(pause)
        return k

    workers = _workers.Workers(run, lists, 4)
    try:
        for n, some in enumerate(lists):
            first = next((k for k, fails, _ in some if fails), len(some))
            results = workers.results(n)
            assert [next(results) for _ in range(first)] == list(range(first))
            if first < len(some):
                with pytest.raises(ValueError, match=f"^{first}$"):
                    next(results)
    finally:
        workers.close()
    assert_no_child()


def test_more_replies_than_a_pipe_buffer_holds_come_back_in_order():
    # each worker's 100 replies of 2 KiB overfill its 64 KiB pipe, so both
    # block on a full pipe until the reader reaches them
    def run(x):
        return x.to_bytes(2, "little") * 1024

    workers = _workers.Workers(run, [list(range(200))], 2)
    try:
        time.sleep(0.2)
        assert list(workers.results(0)) == [run(x) for x in range(200)]
    finally:
        workers.close()
    assert_no_child()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_a_worker_exits_once_the_process_that_forked_it_is_gone():
    # the forking process reads one reply from each worker, prints their
    # pids and exits at once; each worker then fails its next reply write
    script = (
        "import os, time\n"
        "from mfaudio import _workers\n"
        "workers = _workers.Workers(lambda x: time.sleep(0.1) or os.getpid(), [list(range(1000))], 2)\n"
        "results = workers.results(0)\n"
        "print(next(results), next(results), flush=True)\n"
        "os._exit(0)\n"
    )
    src = str(Path(_workers.__file__).resolve().parents[1])
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": env_path}) as proc:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=30) == 0
        assert len(set(pids)) == 2
        deadline = time.monotonic() + 5
        while not all(map(ended, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(ended, pids))


def ended(pid):
    """Whether process ``pid`` has exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_worker_ignores_sigint():
    # a terminal's Ctrl-C reaches every process of its process group; only
    # the process that forked the workers acts on it
    def run(x):
        time.sleep(0.02)
        return os.getpid()

    workers = _workers.Workers(run, [list(range(20))], 2)
    try:
        results = workers.results(0)
        pids = {next(results), next(results)}
        for pid in pids:
            os.kill(pid, signal.SIGINT)
        assert set(results) == pids
    finally:
        workers.close()
    assert_no_child()


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
