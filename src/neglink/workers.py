"""The one BLAS thread policy, and `map_split`: a map over independent items on every usable CPU.

Importing neglink pins numpy's OpenBLAS to one thread, here, once per
process, whatever `OPENBLAS_NUM_THREADS` and the like say: a second thread
would change the outputs' last bits, and it busy-waits at these shapes. A
numpy build without OpenBLAS thread control keeps its own settings.

`map_split` splits the items into contiguous runs, one per worker. The
parent computes the first run and forked children the others, each sending
back its pickled results, or its exception, through a pipe; results are
joined in item order, so they do not depend on the worker count. The parent
computes every item itself when there is one usable CPU or one item, where
`os.sched_getaffinity` is missing (where it exists, so does `fork`), or
where no OpenBLAS thread control is found.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal

import numpy  # noqa: F401  # loads the OpenBLAS that the pin below finds

from .errors import WorkerError

# (get, set) thread-count symbols: numpy's bundled scipy-openblas first, then a plain OpenBLAS.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads():
    """(get, set) for the thread count of the OpenBLAS loaded in this process, or None."""
    try:
        with open("/proc/self/maps", "rb") as fh:  # one mapping a line, its file's path last
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if b"openblas" in line.lower()})
        libs = [ctypes.CDLL(os.fsdecode(path)) for path in paths]
    except OSError:
        return None
    for lib in libs:
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                return get, set_  # ctypes' default, int arguments and result, fits both
    return None


if _blas_threads() is not None:  # the pin, when `neglink/__init__.py` first imports this module
    _blas_threads()[1](1)


def map_split(fn, items) -> list:
    """`[fn(x) for x in items]`, with contiguous runs of items computed by forked children.

    A child's exception is raised here unchanged, the first in item order;
    a child that dies without a result, or one that cannot be started,
    raises `WorkerError`. On any exception every child still running is
    killed and reaped.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items)) if hasattr(os, "sched_getaffinity") else 1
    if workers < 2 or _blas_threads() is None:
        return [fn(x) for x in items]
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    runs = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children: list[list[int]] = []  # [pid, read fd or -1] of each child not yet reaped, in item order
    try:
        children.extend(_fork(fn, run) for run in runs[1:])
        out = [fn(x) for x in runs[0]]
        while children:
            out.extend(_collect(children))
        return out
    finally:
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            if fd >= 0:
                os.close(fd)
            os.waitpid(pid, 0)


def _fork(fn, run) -> list[int]:
    """Start a child computing `fn` over `run`; returns its pid and the read end of its pipe."""
    fds: list[int] = []
    try:
        fds.extend(os.pipe())
        pid = os.fork()
    except OSError as e:  # out of processes or descriptors: nothing started, nothing left open
        for fd in fds:
            os.close(fd)
        raise WorkerError(f"could not start a worker process: {e}") from e
    read_fd, write_fd = fds
    if pid == 0:  # the child: it never returns from here
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, [fn(x) for x in run]))
            except BaseException as e:  # sent to the parent, which raises it
                payload = pickle.dumps((False, e))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    return [pid, read_fd]


def _collect(children: list[list[int]]) -> list:
    """The first child's results: its pipe read to EOF, then the child reaped and removed."""
    pid, fd = children[0]
    children[0][1] = -1  # the file object closes it, also when the read is interrupted
    with os.fdopen(fd, "rb") as fh:
        payload = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    children.pop(0)
    if code != 0 or not payload:
        how = f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exited with status {code}"
        raise WorkerError(f"worker process {pid} {how} before returning its results")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value
