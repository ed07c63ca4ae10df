"""The ordered fork map behind CSV writing and walk path groups.

The worker count comes from the CPU affinity mask, which each test patches.
Every table and column must be identical to the serial one at any count, and
the serial cases must fork nothing: there ``multiprocessing.get_context``
is made to fail.
"""
import multiprocessing
import os
import time

import numpy as np
import pytest

from spiderlaw import (
    LawKind,
    LawSpec,
    SpiderConfig,
    StopBatch,
    StoppingRule,
    save_sample_batch,
    simulate_batch,
    stop_batch,
)
from spiderlaw import output, walk
from spiderlaw.figures import write_curve_csv
from spiderlaw.laws import DensityCurve
from spiderlaw.parallel import ordered_map
from spiderlaw.walk import write_batch_csv

CPUS = (1, 2, 64)  # serial, two workers, more CPUs than tasks


class TaskFailed(ValueError):
    pass


def _use_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _pool_sizes(monkeypatch) -> list:
    """Record the size of every pool that ``ordered_map`` starts."""
    sizes, real = [], multiprocessing.get_context

    class Context:
        def __init__(self, method):
            self.ctx = real(method)

        def Pool(self, processes, **kwargs):
            sizes.append(processes)
            return self.ctx.Pool(processes, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", Context)
    return sizes


def _refuse(*args, **kwargs):
    raise AssertionError("a serial map started a pool")


# ---------------------------------------------------------------------------
# the map itself
# ---------------------------------------------------------------------------

def test_results_come_back_in_index_order(monkeypatch):
    # later tasks finish first, so an unordered map would reorder them
    _use_cpus(monkeypatch, 4)
    sizes = _pool_sizes(monkeypatch)

    def task(i):
        time.sleep(0.01 * (8 - i))
        return i, os.getpid()

    results = list(ordered_map(task, 8))
    assert [i for i, _ in results] == list(range(8))
    assert sizes == [4]
    assert os.getpid() not in {pid for _, pid in results}


@pytest.mark.parametrize("cpus", [1, 4])
def test_task_exception_keeps_its_type(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)

    def task(i):
        if i == 3:
            raise TaskFailed(f"task {i}")
        return i

    with pytest.raises(TaskFailed, match="task 3"):
        list(ordered_map(task, 8))


def test_cpu_count_stands_in_for_a_missing_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sizes = _pool_sizes(monkeypatch)
    assert list(ordered_map(lambda i: i * i, 8)) == [i * i for i in range(8)]
    assert sizes == [3]


def test_serial_cases_fork_nothing(monkeypatch):
    square = lambda i: i * i  # noqa: E731
    monkeypatch.setattr(multiprocessing, "get_context", _refuse)
    _use_cpus(monkeypatch, 64)
    for count in (0, 1, 2, 3):  # fewer than two tasks per worker
        assert list(ordered_map(square, count)) == [i * i for i in range(count)]
    _use_cpus(monkeypatch, 1)
    assert list(ordered_map(square, 100)) == [i * i for i in range(100)]
    _use_cpus(monkeypatch, 64)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert list(ordered_map(square, 100)) == [i * i for i in range(100)]


def test_a_daemonic_worker_maps_serially(monkeypatch):
    # each outer task runs in a pool worker, where starting a pool must fail
    _use_cpus(monkeypatch, 64)

    def task(i):
        assert multiprocessing.current_process().daemon
        multiprocessing.get_context = _refuse
        return list(ordered_map(lambda j: i + j, 8))

    assert list(ordered_map(task, 4)) == [[i + j for j in range(8)] for i in range(4)]


# ---------------------------------------------------------------------------
# CSV tables: the bytes do not depend on the CPU count
# ---------------------------------------------------------------------------

ROWS = 1000  # 16 chunks of 64 rows


def _sample_table(path):
    values = np.random.default_rng(3).random((ROWS, 3))
    save_sample_batch(path, values, "occupation", {"n": 3}, seed=0)


def _curve_table(path):
    z = np.linspace(0.0, 1.0, ROWS) / 3.0
    write_curve_csv(DensityCurve(LawSpec(LawKind.ARC_SINE), z, z * z, np.sqrt(z)), path)


def _walk_table(path):
    rng = np.random.default_rng(4)
    discarded = rng.random(ROWS) < 0.2
    stopped = rng.integers(1, 10 ** 6, ROWS)
    counts = rng.random((ROWS, 2)) * stopped[:, None]
    write_batch_csv(path, StopBatch(
        config=SpiderConfig(n=2, steps=10, paths=ROWS, allow_small_steps=True),
        rule=None, run_id=0, counts=counts, stopped_step=stopped,
        zero_visits=rng.integers(1, 1000, ROWS), last_zero_step=stopped // 2,
        discarded=discarded))


@pytest.mark.parametrize("write", [_sample_table, _curve_table, _walk_table],
                         ids=["sample", "curve", "walk"])
def test_csv_bytes_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path, write):
    monkeypatch.setattr(output, "_CHUNK_ROWS", 64)
    sizes = _pool_sizes(monkeypatch)
    tables = {}
    for cpus in CPUS:
        _use_cpus(monkeypatch, cpus)
        write(tmp_path / f"{cpus}.csv")
        tables[cpus] = (tmp_path / f"{cpus}.csv").read_bytes()
    assert sizes == [2, 8]
    assert tables[2] == tables[1] and tables[64] == tables[1]
    assert tables[1].count(b"\r\n") == ROWS + 1
    if write is _walk_table:
        assert b",,,,,,true\r\n" in tables[1]


# ---------------------------------------------------------------------------
# walk batches: the columns do not depend on the CPU count
# ---------------------------------------------------------------------------

_RULES = {
    "plain": None,
    "fixed_time": StoppingRule.fixed_time(0.8),
    "inverse_occupation": StoppingRule.inverse_occupation(0.5, ray=2),
    "inverse_local_time": StoppingRule.inverse_local_time(1.0, cap_multiplier=4.0),
}


def _run(config, rule):
    if rule is None:
        return simulate_batch(config, run_id=5)
    return stop_batch(config, rule, run_id=5)


@pytest.mark.parametrize("kind", list(_RULES))
def test_walk_columns_do_not_depend_on_the_cpu_count(monkeypatch, kind):
    config = SpiderConfig(n=3, steps=1500, paths=200, seed=11, allow_small_steps=True)
    rule = _RULES[kind]
    # one group of every path, before the round is shrunk to 10+ groups
    reference = _run(config, rule)
    monkeypatch.setattr(walk, "_ROUND_ELEMENTS", 512)
    sizes = _pool_sizes(monkeypatch)
    for cpus in CPUS:
        _use_cpus(monkeypatch, cpus)
        batch = _run(config, rule)
        for column in ("counts", "stopped_step", "zero_visits", "last_zero_step",
                       "discarded"):
            assert np.array_equal(getattr(batch, column), getattr(reference, column))
    groups = -(-config.paths // (512 // walk._block_size(config, rule or walk._PLAIN_WALK)))
    assert 10 <= groups <= 128
    assert sizes == [2, groups // 2]
    if kind == "inverse_local_time":
        assert 0 < reference.discard_count < config.paths
