"""The ordered fork map behind CSV writing, sample chunks, walk path groups
and ``verify``.

The worker count comes from the CPU affinity mask, which each test patches.
Every table and column must be identical to the serial one at any count, and
the serial cases must fork nothing: there ``multiprocessing.get_context``
is made to fail.
"""
import contextlib
import json
import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from spiderlaw import (
    BatchMeta,
    LawSpec,
    RngStream,
    SpiderConfig,
    StopBatch,
    StoppingRule,
    composite_stream_id,
    sample_occupation_exact,
    sample_stable_half,
    stop_batch,
)
from spiderlaw import cli, errors, gof, laws, output, samplers, suites, walk
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
            if multiprocessing.current_process().daemon:
                raise AssertionError("a pool was nested in a pool worker")
            sizes.append(processes)
            return self.ctx.Pool(processes, **kwargs)

    monkeypatch.setattr(multiprocessing, "get_context", Context)
    return sizes


def _refuse(*args, **kwargs):
    raise AssertionError("a serial map started a pool")


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when a map never returns."""
    def expire(signum, frame):
        raise AssertionError(f"the map did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


# one instance of every exception class in spiderlaw.errors
_ERRORS = {
    errors.ParameterDomainError: ("mu must lie in (0, 1)",),
    errors.UsageError: ("need at least 10 samples",),
    errors.NonFiniteSamplesError: (3, 10),
}


def test_every_package_error_reaches_the_caller_whole(monkeypatch):
    # an error that failed to unpickle would stop the pool's result thread,
    # and the map would wait for ever
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, Exception)
               and c.__module__ == errors.__name__}
    assert defined == set(_ERRORS)
    _use_cpus(monkeypatch, 2)
    sizes = _pool_sizes(monkeypatch)
    for cls, args in _ERRORS.items():
        def task(i):
            if i == 3:
                raise cls(*args)
            return i

        expected = cls(*args)
        with _deadline(30), pytest.raises(cls) as caught:
            list(ordered_map(task, 8))
        assert type(caught.value) is cls
        assert caught.value.args == expected.args
        assert vars(caught.value) == vars(expected)
        assert str(caught.value) == str(expected)
    assert sizes == [2] * len(_ERRORS)


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


def _drawn_table(path, count=ROWS, law="occupation", seed=2):
    """``sample`` a law into ``path``; returns its sidecar."""
    argv = ["sample", "--law", law, "--count", str(count), "--seed", str(seed),
            "--out", str(path), "--deterministic"]
    assert cli.main(argv + (["--n", "3"] if law == "occupation" else [])) == 0
    return json.loads(path.with_suffix(".json").read_text())


def _curve_table(path):
    z = np.linspace(0.0, 1.0, ROWS) / 3.0
    write_curve_csv(DensityCurve(LawSpec.arcsine(), z, z * z, np.sqrt(z)), path)


def _walk_table(path):
    rng = np.random.default_rng(4)
    discarded = rng.random(ROWS) < 0.2
    stopped = rng.integers(1, 10 ** 6, ROWS)
    counts = rng.random((ROWS, 2)) * stopped[:, None]
    write_batch_csv(path, StopBatch(
        config=SpiderConfig(n=2, steps=10, paths=ROWS),
        counts=counts, stopped_step=stopped,
        zero_visits=rng.integers(1, 1000, ROWS), last_zero_step=stopped // 2,
        discarded=discarded))


@pytest.mark.parametrize("write", [_drawn_table, _curve_table, _walk_table],
                         ids=["drawn-sample", "curve", "walk"])
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


def test_a_chunk_formatted_first_waits_for_its_offset(monkeypatch, tmp_path):
    # chunk 0 is made 0.2 s late, so chunk 1 is formatted first and must wait
    # for chunk 0's end before it writes
    monkeypatch.setattr(output, "_CHUNK_ROWS", 64)
    sizes = _pool_sizes(monkeypatch)
    rng = np.random.default_rng(5)
    rows = output.sliced([np.arange(ROWS), rng.standard_normal(ROWS)])

    def chunk(k):
        if k == 0:
            time.sleep(0.2)
        return rows(k)

    tables = {}
    for cpus in CPUS:
        _use_cpus(monkeypatch, cpus)
        with _deadline(60):
            output.write_csv(tmp_path / f"{cpus}.csv", ["i", "x"], ROWS, chunk)
        tables[cpus] = (tmp_path / f"{cpus}.csv").read_bytes()
    assert sizes == [2, 8]
    assert tables[2] == tables[1] and tables[64] == tables[1]
    assert tables[1].count(b"\r\n") == ROWS + 1


@pytest.mark.parametrize("cpus", [2, 64])
def test_a_failed_chunk_reaches_the_caller(monkeypatch, tmp_path, cpus):
    # the chunks after chunk 1 wait for an offset that is never set; the
    # error still comes back, and no worker is left waiting
    monkeypatch.setattr(output, "_CHUNK_ROWS", 64)
    _use_cpus(monkeypatch, cpus)
    sizes = _pool_sizes(monkeypatch)
    rows = output.sliced([np.arange(ROWS)])

    def chunk(k):
        if k == 1:
            raise TaskFailed(f"chunk {k}")
        return rows(k)

    with _deadline(30), pytest.raises(TaskFailed, match="chunk 1"):
        output.write_csv(tmp_path / "t.csv", ["i"], ROWS, chunk)
    assert sizes == [min(cpus, 8)]
    assert not multiprocessing.active_children()


def test_only_tallies_come_back_from_the_chunk_tasks(monkeypatch, tmp_path):
    # each worker writes the bytes it formats; the caller gets a chunk's
    # redraw count and nothing else.  Rejecting stable(1/2) draws above 10
    # forces redraws in every chunk.
    monkeypatch.setattr(output, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(samplers, "_finite_positive",
                        lambda v: np.isfinite(v) & (v > 0.0) & (v < 10.0))
    _use_cpus(monkeypatch, 2)
    yielded = []

    def recording_map(fn, count):
        for value in ordered_map(fn, count):
            yielded.append(value)
            yield value

    monkeypatch.setattr(output, "ordered_map", recording_map)
    sidecar = _drawn_table(tmp_path / "t.csv", law="stable-half", seed=3)
    assert len(yielded) == -(-ROWS // 64)
    assert all(type(value) is int for value in yielded)
    assert sum(yielded) == sidecar["redraw_count"] > 0


# ---------------------------------------------------------------------------
# sample: chunk c is drawn from stream (seed, (_SAMPLE_RUN_ID, c))
# ---------------------------------------------------------------------------

R = 64  # rows per chunk, patched down from 16,384


def test_a_sample_chunk_depends_only_on_seed_and_index(monkeypatch, tmp_path):
    monkeypatch.setattr(output, "_CHUNK_ROWS", R)
    tables = {}
    for count in (2 * R, 3 * R + 5):
        _drawn_table(tmp_path / f"{count}.csv", count)
        tables[count] = np.loadtxt(tmp_path / f"{count}.csv", delimiter=",", skiprows=1)
    assert tables[3 * R + 5].shape == (3 * R + 5, 3)
    assert np.array_equal(tables[2 * R][R:], tables[3 * R + 5][R:2 * R])
    for c in range(4):
        rows = tables[3 * R + 5][c * R:(c + 1) * R]
        stream = RngStream(2, composite_stream_id(samplers._SAMPLE_RUN_ID, c))
        assert np.array_equal(rows, sample_occupation_exact(3, stream, len(rows)))


def test_sample_sidecar_counts_every_chunk(monkeypatch, tmp_path):
    # rejecting stable(1/2) draws above 10 (|N| < 0.22, about 18% of them)
    # forces redraws in every chunk; each stays inside its chunk's stream
    monkeypatch.setattr(output, "_CHUNK_ROWS", R)
    monkeypatch.setattr(samplers, "_finite_positive",
                        lambda v: np.isfinite(v) & (v > 0.0) & (v < 10.0))
    count = 4 * R + 40
    redraws = []
    for c in range(5):
        meta = BatchMeta()
        stream = RngStream(3, composite_stream_id(samplers._SAMPLE_RUN_ID, c))
        sample_stable_half(stream, min(R, count - c * R), meta)
        redraws.append(meta.redraws)
    assert min(redraws) > 0
    sizes = _pool_sizes(monkeypatch)
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        sidecar = _drawn_table(tmp_path / f"{cpus}.csv", count, "stable-half", seed=3)
        assert sidecar["redraw_count"] == sum(redraws)
        assert sidecar["stream_count"] == 5
        assert sidecar["n_samples"] == count
    assert sizes == [2]
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


# ---------------------------------------------------------------------------
# walk batches: the columns do not depend on the CPU count
# ---------------------------------------------------------------------------

_RULES = {
    "plain": StoppingRule.fixed_time(),
    "fixed_time": StoppingRule.fixed_time(0.8),
    "inverse_occupation": StoppingRule.inverse_occupation(0.5, ray=2),
    "inverse_local_time": StoppingRule.inverse_local_time(1.0),
}


@pytest.mark.parametrize("kind", list(_RULES))
def test_walk_columns_do_not_depend_on_the_cpu_count(monkeypatch, kind):
    config = SpiderConfig(n=3, steps=1500, paths=200, seed=11)
    rule = _RULES[kind]
    if kind == "inverse_local_time":
        # a bound lowered to 4x the horizon makes discards happen
        monkeypatch.setattr(walk, "_EXACT_STEPS", 4 * config.steps)
    # one group of every path, before the round is shrunk to 10+ groups
    reference = stop_batch(config, rule, run_id=5)
    monkeypatch.setattr(walk, "_ROUND_ELEMENTS", 512)
    sizes = _pool_sizes(monkeypatch)
    for cpus in CPUS:
        _use_cpus(monkeypatch, cpus)
        batch = stop_batch(config, rule, run_id=5)
        for column in ("counts", "stopped_step", "zero_visits", "last_zero_step",
                       "discarded"):
            assert np.array_equal(getattr(batch, column), getattr(reference, column))
    groups = -(-config.paths // (512 // walk._block_size(config, rule)))
    assert 10 <= groups <= 128
    assert sizes == [2, groups // 2]
    if kind == "inverse_local_time":
        assert 0 < reference.discard_count < config.paths


# ---------------------------------------------------------------------------
# verify: the reports do not depend on the CPU count
# ---------------------------------------------------------------------------

def test_verify_reports_do_not_depend_on_the_cpu_count(monkeypatch):
    # 6 transform tasks and 2 occupation tasks make one map of 8 tasks; the
    # walk maps inside the occupation tasks run serially in their workers
    monkeypatch.setattr(suites, "TRANSFORM_SAMPLES", 20_000)
    monkeypatch.setattr(suites, "_OCCUPATION_PATHS", 200)
    sizes = _pool_sizes(monkeypatch)
    lines = {}
    for cpus in CPUS:
        _use_cpus(monkeypatch, cpus)
        reports, _ = suites.run_suite("all", 5)
        lines[cpus] = [r.to_json_line() for r in reports]
    assert sizes == [2, 4]
    assert lines[2] == lines[1] and lines[64] == lines[1]
    assert len(lines[1]) == 85


def test_transform_batches_follow_the_chunk_stream_layout(monkeypatch):
    # 20,000 draws make two chunks, the second one partial; chunk c of task
    # k's batch is drawn from stream (seed, (64 + k, c)) and folded in order
    monkeypatch.setattr(suites, "TRANSFORM_SAMPLES", 20_000)
    seed = 5
    sizes = (output._CHUNK_ROWS, 20_000 - output._CHUNK_ROWS)

    def chunks(k, draw):
        return [draw(RngStream(seed, composite_stream_id(64 + k, c)), size)
                for c, size in enumerate(sizes)]

    def band(name, target, values):
        state = gof.Moments()
        for v in values:
            state = state.merge(gof.Moments.of(v))
        return gof.mc_transform_check(state, target, name=name, seed=seed)

    # the stable batch at mu = 0.7 is task 4, the ratio batch at mu = 0.3 task 1
    mu = 0.7
    s = chunks(4, lambda rng, size: samplers.sample_positive_stable(mu, rng, size))
    rebuilt = [band(f"laplace[mu={mu},lam={lam}]", math.exp(-lam ** mu),
                    [np.exp(-lam * v) for v in s]) for lam in suites.LAPLACE_LAMBDAS]
    rebuilt += [band(f"moment[mu={mu},s={order}]", laws.fractional_moment(order, mu),
                     [v ** (mu * order) for v in s]) for order in suites.MOMENT_ORDERS]
    mu = 0.3
    x = chunks(1, lambda rng, size: samplers.sample_ratio_X(mu, rng, size))
    rebuilt += [band(f"stieltjes[mu={mu},s={t}]", laws.stieltjes_transform(t, mu),
                     [1.0 / (1.0 + t * v) for v in x]) for t in suites.STIELTJES_S]
    rebuilt += [band(f"mellin[mu={mu},s={0.25 * mu:g}]", laws.mellin_transform(0.25 * mu, mu),
                     [v ** (0.25 * mu) for v in x])]
    rebuilt.append(gof.ks_one_sample(
        np.concatenate(x) ** mu, lambda v: laws.ratio_power_cdf(v, mu),
        name=f"ratio_power_ks[mu={mu}]", seed=seed, threshold=suites.RATIO_POWER_P_MIN))

    reports = {r.test_name: r.to_json_line() for r in suites.transform_suite(seed)}
    assert [reports[r.test_name] for r in rebuilt] == [r.to_json_line() for r in rebuilt]
    assert all(r.n1 == 20_000 for r in rebuilt)
