"""The runtime needs numpy alone: the test-only packages stay out of a run,
and a bare import starts no process machinery.  The README's library example
and command lines run, and the benchmark's tracer still finds every call
site it rebinds."""
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from spiderlaw.cli import main

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


def test_the_readme_library_example_runs():
    # a public name removed from the package but left in the README fails here
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run([sys.executable, "-c", example], env=env, check=True,
                   capture_output=True, text=True)


def test_the_readme_command_lines_run(monkeypatch, tmp_path, capsys):
    # an option removed from the command line but kept in the README fails here
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 5 and all(argv[0] == "spiderlaw" for argv in lines)
    for argv in lines:
        assert main(argv[1:]) == 0, shlex.join(argv)


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


def test_the_tracer_sees_each_walk_batch_stop_and_write(tmp_path):
    # the tracer rebinds walk.stop_batch and walk.write_batch_csv, which
    # run_walk_batch looks up by name; a batch run that stopped calling
    # either would leave the inverse_walk layer metrics empty
    script = (
        "import json, sys, tracer\n"
        "t = tracer.install()\n"
        "import checks, workloads\n"
        "workloads.WALK_PATHS = 300\n"
        "assert workloads.run('inverse_walk', 1, sys.argv[1]) == 0\n"
        "results, counts = checks.check_walk(sys.argv[1])\n"
        "print(json.dumps({'spans': [[s['name'], s['counts']] for s in t.spans],\n"
        "                  'counts': [[k[0], k[1], v] for k, v in counts.items()]}))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    recorded = json.loads(out.splitlines()[-1])
    stops = [(name, c) for name, c in recorded["spans"] if name.startswith("walk.inverse_")]
    writes = [c for name, c in recorded["spans"] if name == "walk.write_batch_csv"]
    assert len(stops) == len(writes) == len(recorded["counts"]) == 4
    # spans come in batch order, the order check_walk counts the CSVs in
    for (name, traced), write, (kind, n, checked) in zip(stops, writes, recorded["counts"]):
        assert name == kind
        assert traced["excursions"] == checked["excursions"] > 0
        assert traced["paths"] == write["rows"] == checked["rows"] == 300
        assert write["bytes"] == checked["bytes"]


def test_walk_and_occupation_csvs_leave_numpy_ma_unloaded(tmp_path):
    # the CSV writer blanks fields through a plain row mask; numpy.ma costs
    # a process about 10 ms and 1 MiB to import
    script = (
        "import sys\n"
        "from spiderlaw.cli import main\n"
        "from spiderlaw.walk import SpiderConfig, StoppingRule, run_walk_batch\n"
        "d = sys.argv[1]\n"
        "run_walk_batch(SpiderConfig(n=3, steps=1000, paths=50, seed=1),\n"
        "               StoppingRule.inverse_local_time(), d + '/w.csv', d + '/w.json')\n"
        "assert main(['sample', '--law', 'occupation', '--n', '3', '--count', '1000',\n"
        "             '--out', d + '/o.csv', '--deterministic']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split()[-1] == "False"


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
    # two CPUs, whatever the runner has, so the checks read a table whose
    # chunks pool workers wrote
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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


def test_the_verify_outputs_keep_the_benchmark_contract(monkeypatch, tmp_path, capsys):
    # perfbench/checks.py reads verify's JSONL reports, its stdout summary and
    # its exit code; the densities suite writes all three in well under a second
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks

    code = main(["verify", "--suite", "densities", "--seed", "1",
                 "--out", str(tmp_path / "reports.jsonl")])
    results, reports = checks.read_reports(tmp_path, capsys.readouterr().out, code, 1)
    assert reports and code == 0
    assert not [(name, detail) for name, ok, detail in results.results if not ok]
