"""Checks of each workload's outputs, with numpy and the standard library only.

The KS distance and the spider CDF here are the benchmark's own, not
``spiderlaw.gof`` or ``spiderlaw.laws``, so a defect in the program's
statistics cannot vouch for the program's output.  The bounds were fixed
before any measurement was taken.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

import workloads

# 1e6 exact draws: sqrt(1e6) * 0.005 = 5, where the Kolmogorov tail is ~4e-22
EXACT_KS_BOUND = 0.005
# lattice walk at 20k steps: the budget verify_occupation_identity grants
# for lattice bias plus sampling noise at 10k paths
WALK_KS_BOUND = 0.03
# the same discard limit as verify_occupation_identity
MAX_DISCARD_FRACTION = 0.01
SIMPLEX_TOL = 1e-9


def spider_cdf(z, n):
    """P(one occupation fraction of an n-ray spider <= z), on [0, 1]."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 - (2.0 / math.pi) * np.arctan(np.sqrt((1.0 - z) / z) / (n - 1))


def ks_distance(samples, cdf) -> float:
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    c = cdf(x)
    return float(max((np.arange(1, m + 1) / m - c).max(), (c - np.arange(m) / m).max()))


class Checks:
    """Named pass/fail results, in the order they were made."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), str(detail)))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [f"{name} ({detail})" if detail else name
                for name, ok, detail in self.results if not ok]


def _simplex(checks, label, frac):
    checks.add(f"{label}:finite", np.isfinite(frac).all())
    checks.add(f"{label}:in_unit_interval", ((frac >= 0.0) & (frac <= 1.0)).all())
    gap = float(np.abs(frac.sum(axis=1) - 1.0).max()) if frac.size else 0.0
    checks.add(f"{label}:rows_sum_to_1", gap <= SIMPLEX_TOL, f"max gap {gap:.3g}")


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

def read_reports(workdir, stdout_text, exit_code, seed):
    """Parse the JSONL reports and check they are whole and self-consistent.

    Returns (integrity Checks, reports).  A failed report is the program's
    verdict, counted by the caller; only a malformed or inconsistent report
    file fails integrity.
    """
    checks = Checks()
    reports = []
    with open(workloads.outputs("verify_all", workdir)[0]) as fh:
        for line in fh:
            reports.append(json.loads(line))
    names = [r["test_name"] for r in reports]
    checks.add("reports:nonempty", reports)
    checks.add("reports:unique_names", len(set(names)) == len(names))

    def passes(r):
        if r["rule"] == "p_min":
            return r["p_value"] is not None and r["p_value"] >= r["threshold"]
        return r["statistic"] <= r["threshold"]

    failed = [r["test_name"] for r in reports if r["verdict"] != "pass"]
    checks.add("reports:verdicts_follow_rule",
               all((r["verdict"] == "pass") == passes(r) for r in reports))
    checks.add("reports:seeds", all(r["seed"] in (0, seed) for r in reports))
    summary = f"{len(reports)} checks, {len(failed)} failed"
    checks.add("stdout:summary_matches", summary in stdout_text, summary)
    checks.add("exit_code", exit_code == (1 if failed else 0), f"exit {exit_code}")
    return checks, reports


# ---------------------------------------------------------------------------
# occupation_csv
# ---------------------------------------------------------------------------

def check_occupation(workdir, seed) -> Checks:
    checks = Checks()
    n, rows = workloads.OCCUPATION_RAYS, workloads.OCCUPATION_ROWS
    csv_path, sidecar_path = workloads.outputs("occupation_csv", workdir)[:2]
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    checks.add("csv:header", header == [f"occupation_n{n}_ray{j + 1}" for j in range(n)])
    frac = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    checks.add("csv:rows", frac.shape == (rows, n), f"shape {frac.shape}")
    _simplex(checks, "csv", frac)
    d = ks_distance(frac[:, 0], lambda z: spider_cdf(z, n))
    checks.add("csv:ks_col1_vs_spider_cdf", d <= EXACT_KS_BOUND, f"D = {d:.5f}")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    checks.add("sidecar:fields",
               sidecar.get("law") == "occupation" and sidecar.get("seed") == seed
               and sidecar.get("n_samples") == rows
               and isinstance(sidecar.get("redraw_count"), int)
               and sidecar["redraw_count"] >= 0)
    return checks


# ---------------------------------------------------------------------------
# inverse_walk
# ---------------------------------------------------------------------------

def check_walk(workdir):
    """Check every batch CSV; returns (Checks, counts per batch).

    Counts per batch, keyed by the span name of its rule and n: rows, bytes,
    discarded paths, kept paths and excursions used, where excursions per
    kept path are ``zero_visits - 1`` complete ones plus the straddling one
    when the path stopped away from the origin (last zero before the stop).
    """
    checks = Checks()
    counts = {}
    for n, kind, _ in workloads.walk_batches():
        path = workloads.walk_csv(workdir, n, kind)
        label = f"n{n}_{kind}"
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        checks.add(f"{label}:header",
                   header == (["path_id"] + [f"frac_ray{j + 1}" for j in range(n)]
                              + ["zero_visits", "last_zero_fraction", "stopped_step",
                                 "discarded"]))
        checks.add(f"{label}:rows", len(rows) == workloads.WALK_PATHS, f"{len(rows)} rows")
        checks.add(f"{label}:path_ids", [r[0] for r in rows]
                   == [str(p) for p in range(len(rows))])
        discard_rows = [r for r in rows if r[-1] == "true"]
        kept_rows = [r for r in rows if r[-1] == "false"]
        checks.add(f"{label}:discard_flags", len(discard_rows) + len(kept_rows) == len(rows))
        checks.add(f"{label}:discard_rows_empty",
                   all(field == "" for r in discard_rows for field in r[1:-1]))
        discard_frac = len(discard_rows) / max(len(rows), 1)
        checks.add(f"{label}:discard_frac<=1%", discard_frac <= MAX_DISCARD_FRACTION,
                   f"{discard_frac:.4f}")
        kept = np.array([[float(x) for x in r[1:-1]] for r in kept_rows]).reshape(-1, n + 3)
        frac = kept[:, :n]
        _simplex(checks, label, frac)
        d = ks_distance(frac[:, 0], lambda z: spider_cdf(z, n))
        checks.add(f"{label}:ks_col1_vs_spider_cdf", d <= WALK_KS_BOUND, f"D = {d:.5f}")
        with open(path.with_suffix(".run.json")) as fh:
            manifest = json.load(fh)
        checks.add(f"{label}:manifest_discards", manifest["discard_count"] == len(discard_rows))
        zero_visits, last_zero = kept[:, n], kept[:, n + 1]
        counts[(f"walk.{kind}", n)] = {
            "rows": len(rows),
            "bytes": path.stat().st_size,
            "discarded": len(discard_rows),
            "kept": len(kept_rows),
            "excursions": int((zero_visits - 1).sum() + (last_zero < 1.0).sum()),
        }
    return checks, counts
