"""Run a job's shares at once: share 0 in this process, each other share in a forked worker.

`evaluate` deals its folds, and `predict` its records, into one share
per usable CPU in contiguous runs (`share_run`): results in share order
are in item order, and the lowest share that raises holds the lowest
failing item. `predict`'s length-sorted batches are the one exception,
dealt round-robin because contiguous runs would put every long batch in
one share. A worker is a fork-context `multiprocessing.Process` whose
target is its share, so it starts at once and inherits everything the
share reads by the fork: only the share's result, or its exception,
comes back, through one `Pipe` per worker. With one usable CPU nothing
is forked.

A worker inherits this process's memory, workspace slabs included, and
slabs are shared maps (`nn.workspace`): a share that runs in a worker
makes its own workspace. No share forks again.
"""

from __future__ import annotations

import os

from .errors import MultisentError


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity); 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def share_run(share: int, shares: int, items: int) -> range:
    """share's items: one contiguous run, as many as round-robin dealing gives it."""
    size, extra = divmod(items, shares)
    return range(share * size + min(share, extra), (share + 1) * size + min(share + 1, extra))


def run_shares(run_share, shares: int) -> list:
    """[run_share(0), ..., run_share(shares - 1)]: share 0 here, each other in a forked worker.

    With fewer than two shares nothing is forked. A share that raises
    makes this raise its exception, the lowest such share's, so a
    MultisentError keeps its class and attributes; a worker that exits
    without a result raises a MultisentError naming its exit code.
    Every worker has been joined and every pipe closed when this
    returns or raises; on a raise, workers still running are
    terminated first.
    """
    if shares < 2:
        return [run_share(share) for share in range(shares)]
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    workers, readers = [], []   # by share, from share 1
    finished = False
    try:
        for share in range(1, shares):
            reader, writer = fork.Pipe(duplex=False)
            readers.append(reader)
            with writer:    # closed here before the next fork, so a dead worker's pipe reads EOF
                process = fork.Process(target=_send_share, args=(run_share, share, writer),
                                       daemon=True)
                process.start()
                workers.append(process)
        results = [run_share(0)]
        for process, reader in zip(workers, readers):
            # read before joining: a result larger than the pipe's buffer blocks its writer
            try:
                ok, value = reader.recv()
            except (EOFError, OSError):
                process.join()
                raise MultisentError(
                    f"a worker process exited with code {process.exitcode} "
                    f"before returning its share"
                ) from None
            if not ok:
                raise value
            results.append(value)
        finished = True
        return results
    finally:
        for reader in readers:
            reader.close()
        for process in workers:
            if not finished:
                process.terminate()
            process.join()
            process.close()


def _send_share(run_share, share: int, conn) -> None:
    """A worker's target: run its share and send back (True, result) or (False, exception)."""
    try:
        message = (True, run_share(share))
    except Exception as err:  # sent to the parent, which raises it
        message = (False, err)
    with conn:
        conn.send(message)
