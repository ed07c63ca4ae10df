"""spiderlaw benchmark: end-to-end metrics per workload, or a traced breakdown.

usage (from the root of a checkout):
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each iteration runs in a fresh child interpreter, one after another (a
closed loop with one client), until ``--seconds`` have passed.  The child
imports spiderlaw from ``src/`` of the checkout.  Every iteration's outputs
must repeat the first iteration's byte for byte, and the last iteration's are
checked in full.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
medians over the iterations.  ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics: span times recorded by
wrappers around spiderlaw's public functions (see tracer.py), work counts
derived from outputs, and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``attempted``/``failed`` count checks: the program's own reports
for verify_all (a failed report is counted, not hidden), and the
benchmark's output checks for the other workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks as output_checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
PROBE_CHUNK = 512
PROBE_STREAMS = 4096  # the tracer keeps this many keys


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, stdout_path, stderr_path):
    """Run one child to completion; wall time and peak RSS from its own rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            signal.alarm(0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "end": end, "wall_s": end - start,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def measure_setup(workdir):
    """Median time for a fresh interpreter to import spiderlaw, after one
    untimed import that leaves the byte-code cache warm."""
    argv = [sys.executable, "-c", "import spiderlaw"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        res = run_child(argv, workdir / "setup.out", workdir / "setup.err")
        if res["code"] != 0:
            fail(f"import spiderlaw failed:\n{(workdir / 'setup.err').read_text()}")
        if i:
            times.append(res["wall_s"])
    return statistics.median(times)


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class WorkloadRun:
    """Iterations of one workload, their checks and their counts."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.workdir = WORKROOT / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.untraced = []
        self.traced = []
        self.integrity = output_checks.Checks()  # must all pass for correct
        self.counted = output_checks.Checks()    # reported as attempted/failed
        self.work_items = None
        self.reference_digest = None
        self.program_failed = []     # names of failed verify reports
        self.walk_counts = None

    def iterate(self, traced):
        argv = [sys.executable, str(BENCH_DIR / "child.py"), self.workload,
                str(self.seed), str(self.workdir)]
        spans_path = self.workdir / "spans.json"
        if traced:
            argv.append(str(spans_path))
        # a crashed iteration must not pass on the previous one's files
        for path in workloads.outputs(self.workload, self.workdir):
            path.unlink(missing_ok=True)
        res = run_child(argv, self.workdir / "stdout.txt", self.workdir / "stderr.txt")
        allowed = (0, 1) if self.workload == "verify_all" else (0,)
        if res["code"] not in allowed:
            fail(f"{self.workload} exited {res['code']}:\n"
                 f"{(self.workdir / 'stderr.txt').read_text()[-4000:]}")
        self._check(res["code"], len(self.untraced) + len(self.traced))
        if traced:
            with open(spans_path) as fh:
                res["trace"] = json.load(fh)
            spans_path.unlink()
            self.traced.append(res)
        else:
            self.untraced.append(res)

    def _check(self, code, index):
        """Per iteration: verify's reports, and byte-identity with the first
        iteration's outputs; the heavier output checks run once, at the end."""
        outputs = workloads.outputs(self.workload, self.workdir)
        label = f"iteration{index}"
        if self.workload == "verify_all":
            stdout = (self.workdir / "stdout.txt").read_text()
            integrity, reports = output_checks.read_reports(
                self.workdir, stdout, code, self.seed)
            self.integrity.results += [(f"{label}:{n}", ok, d) for n, ok, d in integrity.results]
            for r in reports:
                self.counted.add(f"{label}:{r['test_name']}", r["verdict"] == "pass")
            self.program_failed = [r["test_name"] for r in reports if r["verdict"] != "pass"]
            self.work_items = len(reports)
        current = digest(outputs)
        if self.reference_digest is None:
            self.reference_digest = current
        elif self.workload == "verify_all":
            self.integrity.add(f"{label}:outputs_repeat", current == self.reference_digest)
        else:
            self.counted.add(f"{label}:outputs_repeat", current == self.reference_digest)

    def check_outputs(self):
        """Full checks of the last iteration's outputs, which every earlier
        iteration repeated byte for byte."""
        if self.workload == "occupation_csv":
            checks = output_checks.check_occupation(self.workdir, self.seed)
            self.work_items = workloads.OCCUPATION_ROWS
        elif self.workload == "inverse_walk":
            checks, self.walk_counts = output_checks.check_walk(self.workdir)
            self.work_items = workloads.WALK_PATHS * len(workloads.walk_batches())
        else:
            return
        self.counted.results += checks.results

    @property
    def correct(self):
        intact = not self.integrity.failed
        if self.workload == "verify_all":
            return intact
        return intact and not self.counted.failed


def end_to_end(run, setup_s):
    wall = statistics.median(r["wall_s"] for r in run.untraced)
    return {
        "wall_s": wall,
        "work_per_s": run.work_items / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in run.untraced),
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans, root_start, root_end, integrity, label):
    """Duration, self time and counts per span name; the root is the child
    process as the harness timed it, and its self time is ``cli``."""
    eps = 1e-6
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        lo, hi = (parent["start"], parent["end"]) if parent else (root_start, root_end)
        if not (lo - eps <= s["start"] <= s["end"] <= hi + eps):
            integrity.add(f"{label}:span_nests:{s['name']}", False)
        covered[s["parent"]] += s["end"] - s["start"]
    agg = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": defaultdict(int)})
    for s in spans:
        a = agg[s["name"]]
        a["s"] += s["end"] - s["start"]
        a["self_s"] += s["end"] - s["start"] - covered[s["id"]]
        a["calls"] += 1
        for key, value in s["counts"].items():
            a["counts"][key] += value
    agg["cli"]["s"] = root_end - root_start
    agg["cli"]["self_s"] = root_end - root_start - covered[None]
    agg["cli"]["calls"] = 1
    total_self = sum(a["self_s"] for a in agg.values())
    integrity.add(f"{label}:self_times_sum_to_wall",
                  abs(total_self - (root_end - root_start)) < 1e-3)
    integrity.add(f"{label}:self_times_nonnegative",
                  all(a["self_s"] >= -1e-3 for a in agg.values()))
    return agg


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(agg, streams, stream_setup_us, reports_total, reports_failed):
    def get(name):
        return agg.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    m = {}
    fixed = get("walk.fixed_time")
    m["walk.fixed_time.s"] = fixed["s"]
    m["walk.fixed_time.steps"] = count("walk.fixed_time", "steps")
    m["walk.fixed_time.ns_per_step"] = _ratio(fixed["s"], m["walk.fixed_time.steps"], 1e9)
    for rule in ("inverse_occupation", "inverse_local_time"):
        name = f"walk.{rule}"
        paths = count(name, "paths")
        m[f"{name}.s"] = get(name)["s"]
        m[f"{name}.paths"] = paths
        m[f"{name}.us_per_path"] = _ratio(get(name)["s"], paths, 1e6)
        m[f"{name}.excursions_per_path"] = _ratio(count(name, "excursions"), count(name, "kept"))
        m[f"{name}.discard_frac"] = _ratio(count(name, "discarded"), paths)
    m["rng.stream_setup_us"] = stream_setup_us
    m["rng.streams"] = streams
    for name, unit in (("walk.write_batch_csv", "rows"), ("samplers.save_sample_batch", "rows"),
                       ("samplers.sample_occupation_exact", "rows"),
                       ("samplers.sample_positive_stable", "draws")):
        work = count(name, unit)
        m[f"{name}.s"] = get(name)["s"]
        m[f"{name}.{unit}"] = work
        m[f"{name}.ns_per_{unit[:-1]}"] = _ratio(get(name)["s"], work, 1e9)
    m["walk.write_batch_csv.bytes"] = count("walk.write_batch_csv", "bytes")
    m["samplers.save_sample_batch.bytes"] = count("samplers.save_sample_batch", "bytes")
    m["samplers.redraws"] = (count("samplers.sample_positive_stable", "redraws")
                             + count("samplers.sample_occupation_exact", "redraws"))
    m["gof.mc_transform_check.self_s"] = get("gof.mc_transform_check")["self_s"]
    m["gof.ks_two_sample.s"] = get("gof.ks_two_sample")["s"]
    m["gof.ks_one_sample.s"] = get("gof.ks_one_sample")["s"]
    m["gof.ks.calls"] = get("gof.ks_two_sample")["calls"] + get("gof.ks_one_sample")["calls"]
    m["gof.verify_occupation_identity.self_s"] = get("gof.verify_occupation_identity")["self_s"]
    m["gof.checks_total"] = reports_total
    m["gof.checks_failed"] = reports_failed
    for suite in ("density_suite", "convergence_suite", "transform_suite", "occupation_suite"):
        m[f"suites.{suite}.s"] = get(f"suites.{suite}")["s"]
    m["laws.integrate_density.s"] = get("laws.integrate_density")["s"]
    m["laws.density_mean.s"] = get("laws.density_mean")["s"]
    m["quadrature.calls"] = get("quadrature.adaptive_quadrature")["calls"]
    m["cli.self_s"] = get("cli")["self_s"]
    return m


def probe_stream_setup(keys):
    """Median microseconds to build one generator, over the workload's keys."""
    sys.path.insert(0, str(SRC))
    from spiderlaw.rng import RngStream
    keys = [tuple(k) for k in keys]
    keys = (keys * (PROBE_STREAMS // len(keys) + 1))[:PROBE_STREAMS]
    per_stream = []
    for lo in range(0, len(keys), PROBE_CHUNK):
        chunk = keys[lo:lo + PROBE_CHUNK]
        t0 = time.perf_counter()
        for seed, stream_id in chunk:
            RngStream(seed, stream_id).generator
        per_stream.append((time.perf_counter() - t0) / len(chunk) * 1e6)
    return statistics.median(per_stream)


def traced_metrics(run):
    per_iteration = []
    for i, res in enumerate(run.traced):
        trace = res["trace"]
        agg = self_times(trace["spans"], res["start"], res["end"], run.integrity, f"trace{i}")
        if run.walk_counts is not None:
            for rule in workloads.WALK_RULES:
                name = f"walk.{rule}"
                csv_exc = sum(c["excursions"] for (k, _), c in run.walk_counts.items()
                              if k == name)
                run.integrity.add(f"trace{i}:{name}:excursions_match_csv",
                                  agg[name]["counts"]["excursions"] == csv_exc)
        if run.workload == "occupation_csv":
            with open(workloads.outputs(run.workload, run.workdir)[1]) as fh:
                sidecar_redraws = json.load(fh)["redraw_count"]
            run.integrity.add(f"trace{i}:redraws_match_sidecar",
                              agg["samplers.sample_occupation_exact"]["counts"]["redraws"]
                              == sidecar_redraws)
        per_iteration.append((agg, trace))
    keys = per_iteration[0][1]["stream_keys"]
    setup_us = probe_stream_setup(keys) if keys else 0.0
    failed = len(run.program_failed) if run.workload == "verify_all" else 0
    total = run.work_items if run.workload == "verify_all" else 0
    metrics = [layer_metrics(agg, trace["streams"], setup_us, total, failed)
               for agg, trace in per_iteration]
    out = {name: statistics.median(m[name] for m in metrics) for name in metrics[0]}
    untraced = statistics.median(r["wall_s"] for r in run.untraced)
    traced = statistics.median(r["wall_s"] for r in run.traced)
    out["trace.overhead_s"] = traced - untraced
    # the spans partition each traced child's time, so their self times sum
    # to its wall time; that differs from the untraced wall by the overhead
    run.integrity.add("self_times_match_untraced_wall_within_overhead",
                      abs(statistics.median(sum(a["self_s"] for a in agg.values())
                                            for agg, _ in per_iteration) - untraced)
                      <= abs(out["trace.overhead_s"]) + 1e-3)
    largest = max(per_iteration[0][0].items(), key=lambda kv: kv[1]["self_s"])
    return out, largest[0]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the checkout root")
    with open(path) as fh:
        return json.load(fh)


def metadata(seed, seconds, trace, names):
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha, "seed": seed, "seconds": seconds,
            "trace": trace, "sizes": {w: workloads.sizes(w) for w in names}}


def emit(spec_metrics, values, workload):
    out = {}
    for spec in spec_metrics:
        name = spec["name"]
        if name not in values:
            fail(f"{workload}: metric {name} was not measured")
        out[name] = {"value": float(values[name]), "unit": spec["unit"]}
        print(f"  {name:<42} {values[name]:>16.6g} {spec['unit']}")
    return out


def run_workload(workload, seed, seconds, trace, spec):
    run = WorkloadRun(workload, seed)
    setup_s = None if trace else measure_setup(run.workdir)
    deadline = time.perf_counter() + seconds
    while True:
        run.iterate(traced=False)
        if trace:
            run.iterate(traced=True)
        if time.perf_counter() >= deadline:
            break
    run.check_outputs()
    attempted, failed = run.counted.attempted, len(run.counted.failed)
    n_iter = len(run.untraced) + len(run.traced)
    print(f"{workload}: seed {seed}, {n_iter} iterations"
          f"{' (half traced)' if trace else ''}, "
          f"{run.work_items} {workloads.WORK_UNIT[workload]} per iteration")
    for label, its in (("untraced", run.untraced), ("traced", run.traced)):
        if its:
            print(f"  {label} wall_s per iteration: "
                  + " ".join(f"{r['wall_s']:.3f}" for r in its))
    if trace:
        values, largest = traced_metrics(run)
        metrics = emit(spec["per_layer"], values, workload)
        print(f"  largest self time: {largest}")
    else:
        metrics = emit(spec["end_to_end"], end_to_end(run, setup_s), workload)
    per_iter = (failed / n_iter, attempted / n_iter)
    print(f"  {'failed_frac':<42} {failed / attempted:>16.6g} "
          f"({per_iter[0]:g}/{per_iter[1]:g} checks per iteration)")
    if run.program_failed:
        print(f"  failed checks: {', '.join(run.program_failed)}")
    for name in run.counted.failed if workload != "verify_all" else []:
        print(f"  failed check: {name}")
    for name in run.integrity.failed:
        print(f"  integrity check failed: {name}")
    return {"correct": run.correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "spiderlaw" / "__init__.py").is_file():
        fail(f"no spiderlaw sources under {SRC}")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_alarm)
    print("run " + json.dumps(metadata(args.seed, args.seconds, args.trace, names)))
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec) for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
