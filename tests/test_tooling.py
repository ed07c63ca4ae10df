"""The runtime needs numpy alone: the test-only packages stay out of a run,
and a bare import starts no process machinery."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
