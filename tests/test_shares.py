"""The share runner: results in share order, errors as raised, no worker or fd left behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multisent
from multisent import shares
from multisent.cli import main
from multisent.errors import CoverageError, MultisentError
from multisent.shares import run_shares, share_run

from conftest import no_worker_left, signal_parent

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


@pytest.mark.parametrize("shares", [0, 1, 2, 3])
def test_results_come_back_in_share_order(shares):
    parent = os.getpid()
    with no_worker_left():
        results = run_shares(lambda share: (share, os.getpid() == parent), shares)
    assert results == [(share, share == 0) for share in range(shares)]


def test_result_larger_than_a_pipe_buffer():
    with no_worker_left():
        results = run_shares(lambda share: bytes([share]) * (4 << 20), 2)
    assert [len(r) for r in results] == [4 << 20, 4 << 20]
    assert results[1] == b"\x01" * (4 << 20)


def test_lowest_raising_share_wins_and_keeps_its_class():
    def run_share(share):
        if share:
            raise CoverageError(f"share {share}", shortfall=share)
        return "fine"

    with no_worker_left(), pytest.raises(CoverageError, match="share 1") as caught:
        run_shares(run_share, 3)
    assert caught.value.shortfall == 1


def test_share_0_raising_ends_every_worker():
    def run_share(share):
        if share == 0:
            raise ValueError("share 0")
        time.sleep(60)   # would outlive the test if left running

    with no_worker_left(), pytest.raises(ValueError, match="share 0"):
        run_shares(run_share, 3)


@pytest.mark.parametrize("end, code", [
    pytest.param(lambda: os._exit(1), 1, id="exit-1"),
    pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), -9, id="sigkill"),
])
def test_worker_that_ends_without_a_result_names_its_exit_code(end, code):
    def run_share(share):
        if share == 2:
            end()
        return share

    message = f"a worker process exited with code {code} before returning its share"
    with no_worker_left(), pytest.raises(MultisentError, match=message):
        run_shares(run_share, 3)


def test_result_that_cannot_be_pickled_raises_the_pickling_error():
    with no_worker_left(), pytest.raises(TypeError, match="cannot pickle 'generator' object"):
        run_shares(lambda share: (i for i in range(share)), 2)


def test_a_share_never_forks_again(monkeypatch, tmp_path):
    real = os.fork

    def fork():
        with open(tmp_path / "forks.txt", "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    with no_worker_left():
        results = run_shares(
            lambda outer: [(outer, inner, os.getpid())
                           for outer, inner in run_shares(lambda inner: (outer, inner), 3)], 3)
    # every share ran its own 3 inner shares in its own process
    assert [[(o, i) for o, i, _ in run] for run in results] == [
        [(outer, inner) for inner in range(3)] for outer in range(3)]
    assert all(len({pid for _, _, pid in run}) == 1 for run in results)
    forks = (tmp_path / "forks.txt").read_text(encoding="utf-8").split()
    assert forks == [str(os.getpid())] * 2
    # and a later call here forks again
    with no_worker_left():
        assert run_shares(lambda share: share, 2) == [0, 1]
    assert len((tmp_path / "forks.txt").read_text(encoding="utf-8").split()) == 3


def test_share_runs_are_contiguous_and_as_long_as_round_robin_gives():
    for items in (0, 1, 2, 5, 6, 10, 13):
        for shares in (1, 2, 3, 4, 7):
            runs = [share_run(share, shares, items) for share in range(shares)]
            assert [i for run in runs for i in run] == list(range(items))
            assert [len(run) for run in runs] == [len(range(share, items, shares))
                                                  for share in range(shares)]


# A forking `multisent evaluate` that prints whether multiprocessing was ever imported.
EVALUATE = """
import os, sys
from multisent.cli import main

forks = []
os.register_at_fork(before=lambda: forks.append(1))
os.sched_getaffinity = lambda pid: {0, 1}
code = main(sys.argv[1:])
print(len(forks), "multiprocessing" in sys.modules)
sys.exit(code)
"""


def test_forking_evaluate_never_imports_multiprocessing(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--seed", "0", "--tweets", "12", "--dim", "8"]) == 0
    cfg = tmp_path / "nb.cfg"
    cfg.write_text(f"corpus = {tmp_path / 'corpus.jsonl'}\nlanguages = en,ja,zh\n"
                   "kind = nb\nfolds = 2\nseed = 0\n", encoding="utf-8")
    src = str(Path(multisent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", EVALUATE, "evaluate", "--config", str(cfg),
         "--out", str(tmp_path / "nb.json")],
        env=env, check=True, capture_output=True, text=True, timeout=300)
    forks, imported = done.stdout.split()[-2:]
    assert int(forks) == 2   # one worker to preprocess, one for the second fold
    assert imported == "False"


# run_shares over two shares that each compute for 10 s; the worker first
# writes its pid to the file argv[1].
BUSY_SHARES = """
import os, signal, sys, time
from pathlib import Path
from multisent.shares import run_shares

signal.signal(signal.SIGTERM, signal.SIG_DFL)   # even when started with SIGTERM ignored

def run_share(share):
    if share == 1:
        Path(sys.argv[1]).write_text(f"{os.getpid()}\\n", encoding="utf-8")
    end = time.monotonic() + 10
    while time.monotonic() < end:
        pass

run_shares(run_share, 2)
"""


def test_sigterm_to_the_parent_ends_its_workers(tmp_path):
    # nothing catches SIGTERM, so the parent dies by it, without a traceback
    assert signal_parent(BUSY_SHARES, [], tmp_path, signal.SIGTERM) == (-signal.SIGTERM, "")


def test_sigkill_to_the_parent_ends_its_workers(tmp_path):
    assert signal_parent(BUSY_SHARES, [], tmp_path, signal.SIGKILL) == (-signal.SIGKILL, "")


def test_no_worker_where_it_cannot_be_made_to_end_with_its_parent(monkeypatch):
    monkeypatch.setattr(shares, "_prctl", None)
    assert shares.usable_cpus() == 1
