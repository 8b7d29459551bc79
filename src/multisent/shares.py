"""Run a job's shares at once: share 0 in this process, each other share in a forked worker.

`preprocess_corpus` deals its records and `evaluate` its folds into one
share per usable CPU in contiguous runs (`share_run`): results in
share order are in item order, and the lowest share that raises holds
the lowest failing item. `predict`'s length-sorted batches are the one
exception, dealt round-robin because contiguous runs would put every
long batch in one share. A worker is a bare `os.fork` that runs its
share at once and inherits everything the share reads by the fork:
only the share's result, or its exception, comes back, pickled, through
one pipe per worker. With one usable CPU nothing is forked.

A worker inherits this process's memory, workspace slabs included, and
slabs are shared maps (`nn.workspace`): a share that runs in a worker
makes its own workspace. No share forks again: `run_shares` called from
inside a share, here or in a worker, runs all its shares in that
process.

A worker asks the kernel to SIGKILL it when its parent ends, however that
ends (`prctl(PR_SET_PDEATHSIG)`); where it cannot, nothing is forked.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from typing import NoReturn

from .errors import MultisentError

_in_share = False   # True while this process runs a share; a worker never clears it

# libc's prctl(option, arg2), looked up only where the OS can say which CPUs this process may use
_prctl = getattr(ctypes.CDLL(None), "prctl", None) if hasattr(os, "sched_getaffinity") else None
if _prctl is not None:
    _prctl.argtypes, _prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity); 1 where prctl is not found."""
    return len(os.sched_getaffinity(0)) if _prctl is not None else 1


def share_run(share: int, shares: int, items: int) -> range:
    """share's items: one contiguous run, as many as round-robin dealing gives it."""
    size, extra = divmod(items, shares)
    return range(share * size + min(share, extra), (share + 1) * size + min(share + 1, extra))


def run_shares(run_share, shares: int) -> list:
    """[run_share(0), ..., run_share(shares - 1)]: share 0 here, each other in a forked worker.

    With fewer than two shares, or when called from inside a share,
    nothing is forked. A share that raises makes this raise its
    exception, the lowest such share's, so a MultisentError keeps its
    class and attributes; a result that cannot be pickled raises the
    pickling error instead. A worker that ends without a result raises a
    MultisentError naming its exit code, negative for a signal. Every
    worker has been reaped and every pipe closed when this returns or
    raises; on a raise, workers still running are sent SIGKILL first.
    """
    if shares < 2 or _in_share:
        return _run_here(run_share, range(shares))
    parent = os.getpid()
    readers: list[int] = []     # by share, from share 1
    running: list[int] = []     # pids of the workers not yet reaped
    try:
        for share in range(1, shares):
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(run_share, share, readers, writer, parent)
                running.append(pid)
            finally:
                os.close(writer)    # before the next fork, so a dead worker's pipe reads EOF
        results = _run_here(run_share, range(1))
        for pid, reader in zip(list(running), readers):
            # read before reaping: a result larger than the pipe's buffer blocks its writer
            chunks = []
            while chunk := os.read(reader, 1 << 16):
                chunks.append(chunk)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code != 0 or not chunks:
                raise MultisentError(
                    f"a worker process exited with code {code} before returning its share"
                )
            ok, value = pickle.loads(b"".join(chunks))
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            os.close(reader)
        for pid in running:
            os.waitpid(pid, 0)


def _run_here(run_share, shares: range) -> list:
    """[run_share(share) for share in shares], in this process: no share forks a worker."""
    global _in_share
    outer, _in_share = _in_share, True
    try:
        return [run_share(share) for share in shares]
    finally:
        _in_share = outer


def _work(run_share, share: int, readers: list[int], writer: int, parent: int) -> NoReturn:
    """A worker's whole life: run its share, write back its message, leave through os._exit.

    It leaves at once if it cannot ask to die with its parent or the parent
    is already gone, and gives SIGTERM its default action back, so a SIGTERM
    to the process group ends it. The message is (True, result) or (False,
    exception), pickled; the exit code is 0 only once all of it is written.
    """
    global _in_share
    code = 1
    try:
        if _prctl(1, signal.SIGKILL) != 0 or os.getppid() != parent:    # 1: PR_SET_PDEATHSIG
            return
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _in_share = True
        for reader in readers:      # its own pipe's and the earlier workers'
            os.close(reader)
        try:
            message = (True, run_share(share))
        except Exception as err:  # sent to the parent, which raises it
            message = (False, err)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # a result or exception that cannot be pickled
            data = pickle.dumps((False, err), pickle.HIGHEST_PROTOCOL)
        view = memoryview(data)
        while view:
            view = view[os.write(writer, view):]
        code = 0
    finally:
        os._exit(code)
