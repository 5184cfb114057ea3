"""A fixed set of forked worker processes for one search.

Each worker is a copy of this process made by ``os.fork``, so it inherits
the search's tasks and the functions it may be asked to run: a request
names one of those functions by position and carries its argument, and only
the argument and the reply cross the worker's pipes, each as an 8-byte
little-endian length followed by a pickle.  A worker answers one request at
a time; ``map`` hands the next request to whichever worker answered and
yields the replies in request order.  An exception raised on a worker is
raised here, with its type, when its place in that order comes; a worker
that ends without answering raises ``WorkerDiedError`` at once.

Workers close every pipe end that is not their own, ignore SIGINT (the
parent decides when they stop) and leave with ``os._exit``, which flushes
no inherited stdio buffer and runs no atexit handler.  ``close`` reaps
every worker: an idle one exits when its request pipe closes, and on an
error path every one is killed first.

A forked worker holds only the thread that forked it, so a pool must be
started from a process with no other thread that could hold a lock the
worker needs; the command line has none.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from typing import Callable, Iterable, Iterator, Sequence

from .search import WorkerDiedError

_HEADER = 8  # bytes of the length that precedes each pickle


def _send(fd: int, obj: object) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(_HEADER, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``fd``, or None at end of file."""
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _recv(fd: int) -> object:
    """The next message on ``fd``; None at end of file, where no message
    is None."""
    header = _read(fd, _HEADER)
    if header is None:
        return None
    data = _read(fd, int.from_bytes(header, "little"))
    return None if data is None else pickle.loads(data)


def _serve(functions: Sequence[Callable], requests: int, replies: int) -> None:
    """A worker's loop: answer each (function index, argument) request with
    (True, result) or (False, the exception raised) until the request
    pipe closes."""
    while (request := _recv(requests)) is not None:
        index, arg = request
        try:
            reply = (True, functions[index](arg))
        except Exception as exc:  # MemoryError included
            reply = (False, exc)
        try:
            _send(replies, reply)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            _send(replies, (False, RuntimeError(f"unpicklable reply: {exc!r}")))


class ForkPool:
    """``workers`` forked processes that run any of ``functions``.

    Use it as a context manager, which reaps every worker on the way out.
    If a fork fails, the workers already started are reaped before the
    error is raised.
    """

    def __init__(self, workers: int, functions: Sequence[Callable]):
        self._functions = tuple(functions)
        self._pids: list[int | None] = []  # None once reaped
        self._requests: list[int] = []  # write ends, one per worker
        self._replies: list[int] = []  # read ends, one per worker
        try:
            for _ in range(workers):
                self._start()
        except BaseException:
            self.close(kill=True)
            raise

    def _start(self) -> None:
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            raise
        if pid == 0:  # the worker
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (*self._requests, *self._replies, req_w, rep_r):
                    os.close(fd)
                _serve(self._functions, req_r, rep_w)
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self._pids.append(pid)
        self._requests.append(req_w)
        self._replies.append(rep_r)

    def __enter__(self) -> ForkPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)

    def close(self, kill: bool = False) -> None:
        """Close the parent's pipe ends and reap every worker, killing each
        first when ``kill``."""
        for fd in (*self._requests, *self._replies):
            os.close(fd)
        self._requests, self._replies = [], []
        for pid in self._pids:
            if pid is not None:
                if kill:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._pids = []

    def map(self, function: Callable, args: Iterable) -> Iterator:
        """``function(arg)`` for each of ``args``, run on the workers and
        yielded in the order of ``args``.  The first requests go out before
        this returns, so the workers start while the caller does other work;
        ``args`` is drawn one item at a time, as workers come free.  Draw
        every reply before the next ``map``: a reply still in flight would
        be taken for one of its."""
        index = self._functions.index(function)
        items = enumerate(args)
        busy: dict[int, int] = {}  # reply fd -> item number

        def hand_out(worker: int) -> None:
            item = next(items, None)
            if item is not None:
                try:
                    _send(self._requests[worker], (index, item[1]))
                except BrokenPipeError:  # the worker ended while idle
                    raise self._died(worker) from None
                busy[self._replies[worker]] = item[0]

        for worker in range(len(self._pids)):
            hand_out(worker)
        return self._replies_in_order(busy, hand_out)

    def _replies_in_order(self, busy: dict[int, int], hand_out) -> Iterator:
        done: dict[int, tuple[bool, object]] = {}
        next_n = 0
        while busy:
            for fd in select.select(list(busy), [], [])[0]:
                reply = _recv(fd)
                worker = self._replies.index(fd)
                if reply is None:
                    raise self._died(worker)
                done[busy.pop(fd)] = reply
                hand_out(worker)
            while next_n in done:
                ok, value = done.pop(next_n)
                if not ok:
                    raise value
                yield value
                next_n += 1

    def _died(self, worker: int) -> WorkerDiedError:
        pid = self._pids[worker]
        _, status = os.waitpid(pid, 0)
        self._pids[worker] = None
        code = os.waitstatus_to_exitcode(status)
        how = f"exit code {code}" if code >= 0 else f"signal {-code}"
        return WorkerDiedError(f"pool worker {pid} ended ({how}) before answering")
