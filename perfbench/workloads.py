"""The benchmark's workloads: what one iteration runs, and where its outputs go.

Each workload is closed-loop with one client: one command or library call at
a time, with the program's default ``--threads 1``.  The harness imports this
module without importing spiderlaw; only :func:`run` (in the child) does.
"""
from __future__ import annotations

import itertools
from pathlib import Path

NAMES = ("verify_all", "occupation_csv", "inverse_walk")

# units of work behind work_per_s, one per iteration
WORK_UNIT = {"verify_all": "checks", "occupation_csv": "rows", "inverse_walk": "paths"}

OCCUPATION_RAYS = 3
OCCUPATION_ROWS = 1_000_000
WALK_STEPS = 20_000
WALK_PATHS = 10_000
WALK_RAYS = (3, 8)
WALK_RULES = ("inverse_occupation", "inverse_local_time")
OCCUPATION_LEVEL = 0.5
OCCUPATION_RAY = 2
LOCAL_TIME_LEVEL = 1.0


def walk_batches():
    """(n, rule kind, run id) of every inverse_walk batch, in run order."""
    return [(n, kind, run_id)
            for run_id, (n, kind) in enumerate(itertools.product(WALK_RAYS, WALK_RULES))]


def walk_csv(workdir, n, kind) -> Path:
    return Path(workdir) / f"walk_n{n}_{kind}.csv"


def sizes(workload) -> dict:
    """Input sizes of one iteration, for the run record."""
    if workload == "verify_all":
        return {"suite": "all"}
    if workload == "occupation_csv":
        return {"n": OCCUPATION_RAYS, "count": OCCUPATION_ROWS}
    return {"steps": WALK_STEPS, "paths_per_batch": WALK_PATHS, "n": list(WALK_RAYS),
            "rules": list(WALK_RULES), "batches": len(walk_batches())}


def cli_argv(workload, seed, workdir):
    """The spiderlaw command line of a CLI workload."""
    if workload == "verify_all":
        return ["verify", "--suite", "all", "--seed", str(seed),
                "--out", str(Path(workdir) / "reports.jsonl")]
    return ["sample", "--law", "occupation", "--n", str(OCCUPATION_RAYS),
            "--count", str(OCCUPATION_ROWS), "--seed", str(seed),
            "--out", str(Path(workdir) / "occupation.csv"), "--deterministic"]


def outputs(workload, workdir) -> list[Path]:
    """Output files whose bytes must repeat exactly at a fixed seed.

    The walk run manifests are left out: they record wall time.
    """
    workdir = Path(workdir)
    if workload == "verify_all":
        return [workdir / "reports.jsonl"]
    if workload == "occupation_csv":
        return [workdir / "occupation.csv", workdir / "occupation.json",
                workdir / "occupation.manifest.json"]
    return [walk_csv(workdir, n, kind) for n, kind, _ in walk_batches()]


def run(workload, seed, workdir) -> int:
    """Run one iteration in this process; returns the exit code."""
    if workload in ("verify_all", "occupation_csv"):
        from spiderlaw.cli import main
        return main(cli_argv(workload, seed, workdir))

    from spiderlaw.walk import SpiderConfig, StoppingRule, run_walk_batch
    rules = {
        "inverse_occupation": StoppingRule.inverse_occupation(
            OCCUPATION_LEVEL, ray=OCCUPATION_RAY),
        "inverse_local_time": StoppingRule.inverse_local_time(LOCAL_TIME_LEVEL),
    }
    for n, kind, run_id in walk_batches():
        config = SpiderConfig(n=n, steps=WALK_STEPS, paths=WALK_PATHS, seed=seed)
        csv_path = walk_csv(workdir, n, kind)
        run_walk_batch(config, rules[kind], csv_path, csv_path.with_suffix(".run.json"),
                       run_id=run_id)
    return 0
