"""The runtime needs numpy alone: the test-only packages stay out of a run,
and a bare import starts no process machinery.  The benchmark's tracer still
finds every call site it rebinds."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _loaded_after(code):
    """Top-level modules loaded by a fresh interpreter that runs ``code``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {name.split(".")[0] for name in json.loads(out.splitlines()[-1])}


def test_a_density_run_loads_no_test_only_package():
    loaded = _loaded_after(
        "import contextlib, io, spiderlaw\n"
        "from spiderlaw.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--suite', 'densities']) == 0")
    assert "numpy" in loaded
    assert not loaded & {"scipy", "hypothesis", "mpmath"}


def test_a_bare_import_loads_no_multiprocessing():
    assert "multiprocessing" not in _loaded_after("import spiderlaw")


def test_the_float_kernel_loads_with_the_first_csv_not_with_the_package(tmp_path):
    # its module and exact big-int tables cost about 20 ms, kept out of a bare
    # import; write_csv loads them in the parent, so forked workers inherit them
    loaded = (
        "import sys, numpy, spiderlaw\n"
        "from spiderlaw import output\n"
        "print('spiderlaw.fields' in sys.modules)\n"
        "output.write_csv(sys.argv[1], ['n'], 1, output.sliced([numpy.ones(1)]))\n"
        "print('spiderlaw.fields' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", loaded, str(tmp_path / "t.csv")],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]
    assert (tmp_path / "t.csv").read_bytes() == b"n\r\n1.0\r\n"


def test_the_benchmark_tracer_records_its_spans():
    # perfbench/tracer.py rebinds public names of the package; a rename
    # there would leave its per-layer metrics silently empty
    script = (
        "import json, tracer\n"
        "t = tracer.install()\n"
        "from spiderlaw import samplers, suites, walk\n"
        "from spiderlaw.rng import RngStream\n"
        "suites.run_suite('densities', 1)\n"
        "walk.stop_batch(walk.SpiderConfig(n=3, steps=1000, paths=50, seed=1),\n"
        "                walk.StoppingRule.inverse_local_time(1.0))\n"
        "samplers.sample_positive_stable(0.5, RngStream(1), 10)\n"
        "print(json.dumps({'names': sorted({s['name'] for s in t.spans}),\n"
        "                  'streams': t.streams}))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    recorded = json.loads(out.splitlines()[-1])
    assert {"suites.density_suite", "laws.integrate_density", "laws.density_mean",
            "quadrature.adaptive_quadrature", "walk.inverse_local_time",
            "samplers.sample_positive_stable"} <= set(recorded["names"])
    assert recorded["streams"] == 1


def test_the_walk_outputs_keep_the_benchmark_contract(monkeypatch, tmp_path):
    # perfbench/checks.py reads the walk CSV columns, the discard flags and
    # the run manifest; a break there would otherwise show only in the
    # benchmark.  Its KS bound is set for 10,000 paths, too tight for 300.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import workloads

    monkeypatch.setattr(workloads, "WALK_PATHS", 300)
    assert workloads.run("inverse_walk", 1, tmp_path) == 0
    results, counts = checks.check_walk(tmp_path)
    failed = [(name, detail) for name, ok, detail in results.results
              if not ok and not name.endswith(":ks_col1_vs_spider_cdf")]
    assert not failed
    assert len(counts) == len(workloads.walk_batches())
    assert all(c["rows"] == c["kept"] + c["discarded"] == 300 for c in counts.values())


def test_the_occupation_outputs_keep_the_benchmark_contract(monkeypatch, tmp_path):
    # perfbench/checks.py reads the occupation CSV and sidecar, and its tracer
    # counts the rows of the sample handed to save_sample_batch.  Its KS bound
    # is set for 1e6 rows, too tight for four chunks.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import workloads

    rows = 3 * (1 << 14) + 100
    monkeypatch.setattr(workloads, "OCCUPATION_ROWS", rows)
    assert workloads.run("occupation_csv", 1, tmp_path) == 0
    results = checks.check_occupation(tmp_path, 1)
    assert len(results.results) > 1
    assert not [(name, detail) for name, ok, detail in results.results
                if not ok and name != "csv:ks_col1_vs_spider_cdf"]

    script = (
        "import json, sys, tracer\n"
        "t = tracer.install()\n"
        "from spiderlaw.cli import main\n"
        "assert main(['sample', '--law', 'occupation', '--n', '3', '--count', sys.argv[1],\n"
        "             '--out', sys.argv[2], '--deterministic']) == 0\n"
        "print(json.dumps([s['counts'] for s in t.spans\n"
        "                  if s['name'] == 'samplers.save_sample_batch']))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", script, str(rows), str(tmp_path / "traced")],
                         env=env, check=True, capture_output=True, text=True).stdout
    spans = json.loads(out.splitlines()[-1])
    assert [span["rows"] for span in spans] == [rows]
