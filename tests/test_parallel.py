import os
import time

import pytest

from subforge import hyperbolicity, parallel
from subforge.ball import enumerate_ball
from subforge.hyperbolicity import compute_delta
from subforge.parallel import fork_map, split

from reference import odd_relator_presentation


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _pin(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus, lengths", [(1, [7]), (2, [4, 3]), (3, [3, 2, 2]), (9, [1] * 7)])
def test_split_is_contiguous_and_capped(monkeypatch, cpus, lengths):
    _pin(monkeypatch, cpus)
    chunks = split(list(range(7)))
    assert [len(c) for c in chunks] == lengths
    assert sum(chunks, []) == list(range(7))
    assert split([]) == [[]]


def test_fork_map_returns_chunk_results_in_order():
    parent = os.getpid()
    got = fork_map(lambda chunk: (sum(chunk), os.getpid() == parent), [[1, 2], [3], [4, 5, 6]])
    # the first chunk runs in the caller, the others in children
    assert got == [(3, True), (3, False), (15, False)]
    assert _no_children_left()


def test_fork_map_one_chunk_runs_in_the_caller():
    parent = os.getpid()
    assert fork_map(lambda chunk: os.getpid() == parent, [[1]]) == [True]
    assert _no_children_left()


def test_child_error_reaches_the_caller():
    def fn(chunk):
        if chunk == [2]:
            raise ValueError(f"chunk {chunk} failed")
        return chunk

    with pytest.raises(ValueError, match=r"^chunk \[2\] failed$"):
        fork_map(fn, [[1], [2], [3]])
    assert _no_children_left()


def test_caller_interrupt_kills_every_child():
    def fn(chunk):
        if chunk == [0]:
            raise KeyboardInterrupt
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, [[0], [1], [2]])
    assert time.perf_counter() - t0 < 30
    assert _no_children_left()


@pytest.fixture(scope="module")
def odd_relator_ball():
    return enumerate_ball(odd_relator_presentation(), 4)


@pytest.mark.parametrize(
    "ball_name, r",
    [("surface4_ball", 2), ("f2_ball", 3), ("odd_relator_ball", 2)],
    # delta covers every anchored triangle of B_r
    ids=["exhaustive-surface4_ball-2", "exhaustive-f2_ball-3", "exhaustive-odd_relator_ball-2"],
)
def test_delta_is_the_same_for_any_chunk_count(ball_name, r, request, monkeypatch):
    ball = request.getfixturevalue(ball_name)
    # these balls hold far fewer pairs than the fork threshold
    monkeypatch.setattr(hyperbolicity, "FORK_PAIRS", 0)
    _pin(monkeypatch, 1)
    serial = compute_delta(ball, r)
    for cpus in (2, 3):
        _pin(monkeypatch, cpus)
        # field-by-field equality: value, witness, triangles_computed and the rest
        assert compute_delta(ball, r) == serial
    assert _no_children_left()


def test_delta_forks_only_from_the_threshold(f2_ball, monkeypatch):
    # one chunk in the caller below FORK_PAIRS computed pairs, one per CPU
    # from there on
    _pin(monkeypatch, 3)
    counts = []

    def recording_fork_map(fn, chunks):
        counts.append(len(chunks))
        return [fn(chunk) for chunk in chunks]

    monkeypatch.setattr(hyperbolicity, "fork_map", recording_fork_map)
    serial = compute_delta(f2_ball, 3)
    computed = serial.triangles_computed
    assert 1 < computed < hyperbolicity.FORK_PAIRS
    for threshold in (computed + 1, computed):
        monkeypatch.setattr(hyperbolicity, "FORK_PAIRS", threshold)
        assert compute_delta(f2_ball, 3) == serial
    assert counts == [1, 1, 3]
