"""The share runner: results in share order, errors as raised, no worker left behind."""

import multiprocessing
import os
import time

import pytest

from multisent.errors import CoverageError
from multisent.shares import run_shares, share_run

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


@pytest.mark.parametrize("shares", [0, 1, 2, 3])
def test_results_come_back_in_share_order(shares):
    parent = os.getpid()
    results = run_shares(lambda share: (share, os.getpid() == parent), shares)
    assert results == [(share, share == 0) for share in range(shares)]
    assert multiprocessing.active_children() == []


def test_result_larger_than_a_pipe_buffer():
    results = run_shares(lambda share: bytes([share]) * (4 << 20), 2)
    assert [len(r) for r in results] == [4 << 20, 4 << 20]
    assert results[1] == b"\x01" * (4 << 20)


def test_lowest_raising_share_wins_and_keeps_its_class():
    def run_share(share):
        if share:
            raise CoverageError(f"share {share}", shortfall=share)
        return "fine"

    with pytest.raises(CoverageError, match="share 1") as caught:
        run_shares(run_share, 3)
    assert caught.value.shortfall == 1
    assert multiprocessing.active_children() == []


def test_share_0_raising_ends_every_worker():
    def run_share(share):
        if share == 0:
            raise ValueError("share 0")
        time.sleep(60)   # would outlive the test if left running

    with pytest.raises(ValueError, match="share 0"):
        run_shares(run_share, 3)
    assert multiprocessing.active_children() == []


def test_share_runs_are_contiguous_and_as_long_as_round_robin_gives():
    for items in (0, 1, 2, 5, 6, 10, 13):
        for shares in (1, 2, 3, 4, 7):
            runs = [share_run(share, shares, items) for share in range(shares)]
            assert [i for run in runs for i in run] == list(range(items))
            assert [len(run) for run in runs] == [len(range(share, items, shares))
                                                  for share in range(shares)]
