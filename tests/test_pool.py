"""The fork pool on its own: reply order, lazy hand-out, errors and clean
exits."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cartier._pool import ForkPool
from cartier.search import WorkerDiedError

ROOT = Path(__file__).resolve().parents[1]


def later_first(n):
    # the first items take longest, so replies arrive out of order
    time.sleep(0.01 * (5 - n) if n < 5 else 0)
    return n * n


def fails_at_2(n):
    if n == 2:
        raise ValueError("item 2")
    return n


def exits(code):
    os._exit(code)


def killed(_):
    os.kill(os.getpid(), signal.SIGKILL)


def unpicklable(_):
    return lambda: None


@pytest.fixture(autouse=True)
def no_child_left():
    # a hung wait for a worker fails the test instead of hanging the run
    def timeout(signum, frame):
        raise TimeoutError("pool test ran over 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # every worker was reaped when its pool closed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_replies_come_in_request_order():
    # three workers: each closes the others' pipe ends, or close() would
    # wait for ever on a worker whose request pipe another one holds open
    with ForkPool(3, (later_first, fails_at_2)) as pool:
        assert list(pool.map(later_first, range(8))) == [n * n for n in range(8)]
        # the same workers serve a second map
        assert list(pool.map(fails_at_2, [0, 1])) == [0, 1]


def test_requests_are_drawn_as_workers_come_free():
    drawn = []

    def requests():
        for n in range(6):
            drawn.append(n)
            yield n

    with ForkPool(2, (later_first,)) as pool:
        replies = pool.map(later_first, requests())
        # one request per worker is out before the first reply is asked for
        assert drawn == [0, 1]
        assert list(replies) == [n * n for n in range(6)]
        assert drawn == list(range(6))


def test_worker_exception_is_raised_at_its_place_with_its_type():
    got = []
    with ForkPool(2, (fails_at_2,)) as pool:
        with pytest.raises(ValueError, match="item 2"):
            for value in pool.map(fails_at_2, range(6)):
                got.append(value)
    assert got == [0, 1]


@pytest.mark.parametrize(
    "function, how", [(exits, "exit code 3"), (killed, "signal 9")]
)
def test_worker_that_ends_without_answering(function, how):
    with pytest.raises(WorkerDiedError, match=rf"pool worker [0-9]+ ended \({how}\)"):
        with ForkPool(2, (function,)) as pool:
            list(pool.map(function, [3]))


def test_request_to_a_worker_that_ended_while_idle():
    with pytest.raises(WorkerDiedError, match=r"ended \(signal 9\)"):
        with ForkPool(1, (abs,)) as pool:
            pid = pool._pids[0]
            os.kill(pid, signal.SIGKILL)
            # wait for its end but leave it for the pool to reap
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            list(pool.map(abs, [-1]))


def test_unpicklable_reply_is_an_error_not_a_dead_worker():
    with ForkPool(1, (unpicklable,)) as pool:
        with pytest.raises(RuntimeError, match="unpicklable reply"):
            list(pool.map(unpicklable, [0]))


def test_workers_flush_no_inherited_stdio():
    # the parent's unflushed stdout buffer is copied into every worker;
    # os._exit drops those copies, so it is written once
    probe = (
        "import sys\n"
        "from cartier._pool import ForkPool\n"
        "sys.stdout.write('once')\n"
        "with ForkPool(3, (abs,)) as pool:\n"
        "    assert list(pool.map(abs, [-1, -2, -3, -4])) == [1, 2, 3, 4]\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "once", "")
