import json
import os
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spiderlaw import GofReport, arcsine_cdf, arcsine_pdf, ks_one_sample, output
from spiderlaw.cli import main
from spiderlaw.samplers import ChunkedSample, sample_positive_stable


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]])


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_occupation(tmp_path):
    out = tmp_path / "occ"
    code = main(["sample", "--law", "occupation", "--n", "3", "--count", "1000",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "occ.csv")
    assert rows.shape == (1000, 3)
    assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    manifest = json.loads((tmp_path / "occ.manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert all(json.loads((tmp_path / "occ.json").read_text()))


def test_sample_memory_does_not_grow_with_count(monkeypatch, tmp_path):
    # one chunk at a time is drawn and formatted, so 32 chunks peak about as
    # high as 8; holding the whole sample would take 4 times the rows
    monkeypatch.setattr(output, "_CHUNK_ROWS", 4096)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def peak(chunks):
        argv = ["sample", "--law", "occupation", "--n", "3", "--count", str(4096 * chunks),
                "--seed", "5", "--out", str(tmp_path / f"occ{chunks}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # imports and lazy set-up happen before any peak is taken
    assert peak(32) <= 1.5 * peak(8)


def test_sample_writes_each_draw_as_its_repr(tmp_path):
    # at mu = 0.01 the draws span the float range: an inf, which takes the
    # per-value fallback, and exponents of both signs
    assert main(["sample", "--law", "stable", "--mu", "0.01", "--count", "2000",
                 "--seed", "1", "--deterministic", "--out", str(tmp_path / "s")]) == 0
    draw = lambda rng, size, meta: sample_positive_stable(0.01, rng, size, meta=meta)
    (draws,), _ = ChunkedSample(draw, 2000, seed=1, width=1).chunk(0)
    body = (tmp_path / "s.csv").read_bytes().split(b"\r\n", 1)[1]
    assert body == "".join(repr(v) + "\r\n" for v in draws.tolist()).encode()
    assert b"inf\r\n" in body and b"e+" in body and b"e-" in body


def test_sample_arcsine_law_is_right(tmp_path):
    out = tmp_path / "arc"
    assert main(["sample", "--law", "arcsine", "--count", "100000",
                 "--seed", "9", "--out", str(out)]) == 0
    _, rows = _read_csv(tmp_path / "arc.csv")
    assert ks_one_sample(rows[:, 0], arcsine_cdf, seed=9).passed


def test_sample_spider_walk(tmp_path):
    out = tmp_path / "walk"
    code = main(["sample", "--law", "spider-walk", "--n", "3", "--steps", "1000",
                 "--count", "40", "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "walk.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "path_id" and header[1] == "frac_ray1"
    assert header[-1] == "discarded"
    assert len(lines) == 41
    fracs = np.array([[float(v) for v in line.split(",")[1:4]] for line in lines[1:]])
    assert np.abs(fracs.sum(axis=1) - 1.0).max() <= 1e-12


def test_sample_spider_walk_rejects_too_many_rays(tmp_path, capsys):
    code = main(["sample", "--law", "spider-walk", "--n", "40000", "--steps", "1000",
                 "--count", "5", "--seed", "4", "--out", str(tmp_path / "walk")])
    assert code == 2
    assert "ray count" in capsys.readouterr().err
    assert not (tmp_path / "walk.csv").exists()


def test_sample_usage_errors(tmp_path, monkeypatch):
    out = str(tmp_path / "x")
    assert main(["sample", "--law", "occupation", "--n", "3", "--count", "0",
                 "--out", out]) == 2
    assert main(["sample", "--law", "ratio-a", "--count", "10", "--out", out]) == 2
    assert main(["sample", "--law", "nope", "--count", "10", "--out", out]) == 2
    assert main(["sample", "--law", "occupation", "--n", "1", "--count", "5",
                 "--out", out]) == 2
    assert main(["sample", "--law", "stable", "--mu", "1.5", "--count", "5",
                 "--out", out]) == 2
    assert not (tmp_path / "x.csv").exists()  # the sampler's checks run first

    def no_walk(*args, **kwargs):
        raise AssertionError("a walk ran for rejected input")

    monkeypatch.setattr("spiderlaw.cli.run_walk_batch", no_walk)
    walk = ["sample", "--law", "spider-walk", "--n", "3", "--out", out]
    assert main(walk + ["--steps", "1000", "--count", "0"]) == 2
    assert main(walk + ["--steps", "999", "--count", "1"]) == 2  # statistical floor
    assert main(walk + ["--steps", str(2 ** 53), "--count", "1"]) == 2


# each law's options, the parameters it records and its CSV header at them
EVERY_LAW = {
    "arcsine": ([], {}, ["arcsine"]),
    "stable": (["--mu", "0.5"], {"mu": 0.5}, ["stable_mu0.5"]),
    "stable-half": ([], {}, ["stable_half"]),
    "ratio-power": (["--mu", "0.3"], {"mu": 0.3}, ["ratio_power_mu0.3"]),
    "ratio-a": (["--mu", "0.7"], {"mu": 0.7}, ["ratio_a_mu0.7"]),
    "occupation": (["--n", "3"], {"n": 3},
                   [f"occupation_n3_ray{j}" for j in (1, 2, 3)]),
    "spider-marginal": (["--n", "4"], {"n": 4}, ["spider_marginal_n4"]),
    "spider-walk": (["--n", "3", "--steps", "1000"], {"n": 3, "steps": 1000},
                    ["path_id", "frac_ray1", "frac_ray2", "frac_ray3", "zero_visits",
                     "last_zero_fraction", "stopped_step", "discarded"]),
}
LAW_OPTIONS = {"mu": "0.5", "n": "3", "steps": "1000"}


@pytest.mark.parametrize("law", list(EVERY_LAW))
def test_sample_every_law(tmp_path, capsys, law):
    options, parameters, header = EVERY_LAW[law]
    argv = ["sample", "--law", law, "--count", "20", "--seed", "3", "--deterministic"]
    assert main(argv + options + ["--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s.csv").read_text().splitlines()[0].split(",") == header
    if law == "spider-walk":
        run = json.loads((tmp_path / "s.run.json").read_text())
        assert (run["n"], run["steps"], run["paths"]) == (3, 1000, 20)
    else:
        sidecar = json.loads((tmp_path / "s.json").read_text())
        assert sidecar["parameters"] == parameters
    manifest = json.loads((tmp_path / "s.manifest.json").read_text())
    assert manifest["parameters"] == {"law": law, **parameters, "count": 20}

    # an option the law ignores, or one it needs left out, is a usage error
    # that names the option, before any output exists
    rejected = tmp_path / "rejected"
    wrong = [(options + [f"--{opt}", value], f"takes no --{opt}")
             for opt, value in LAW_OPTIONS.items() if opt not in parameters]
    wrong += [(options[:k] + options[k + 2:], f"requires {options[k]}")
              for k in range(0, len(options), 2)]
    for opts, message in wrong:
        assert main(argv + opts + ["--out", str(rejected / "s")]) == 2
        assert message in capsys.readouterr().err
    assert not rejected.exists()


def test_sample_out_with_a_dot_keeps_its_name(tmp_path):
    # ".csv" is appended unless the name already ends in it, so runs named
    # by their mu do not overwrite one another
    for mu in ("0.3", "0.5", "0.7"):
        assert main(["sample", "--law", "ratio-a", "--mu", mu, "--count", "20",
                     "--out", str(tmp_path / f"ra_{mu}"), "--deterministic"]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"ra_{mu}{ext}" for mu in ("0.3", "0.5", "0.7")
                           for ext in (".csv", ".json", ".manifest.json"))
    assert json.loads((tmp_path / "ra_0.5.json").read_text())["parameters"] == {"mu": 0.5}
    assert main(["sample", "--law", "arcsine", "--count", "20",
                 "--out", str(tmp_path / "x.txt")]) == 0
    assert (tmp_path / "x.txt.csv").is_file() and (tmp_path / "x.txt.json").is_file()


def test_outputs_into_missing_directory(tmp_path):
    out = tmp_path / "no" / "such" / "dir"
    assert main(["sample", "--law", "arcsine", "--count", "20",
                 "--out", str(out / "x")]) == 0
    assert (out / "x.csv").is_file()
    assert main(["verify", "--suite", "convergence",
                 "--out", str(out / "r.jsonl")]) == 0
    assert (out / "r.jsonl").is_file()


@pytest.mark.parametrize("argv, work", [
    (["sample", "--law", "arcsine", "--count", "10", "--out", "afile/x"],
     "spiderlaw.cli.sample_arcsine"),
    (["verify", "--suite", "densities", "--out", "afile/r.jsonl"],
     "spiderlaw.cli.run_suite"),
    (["figure-spider", "--out", "afile/f"], "spiderlaw.cli.build_density_curve"),
], ids=["sample", "verify", "figure-spider"])
def test_out_under_a_regular_file(tmp_path, monkeypatch, capsys, argv, work):
    afile = tmp_path / "afile"
    afile.write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError("work ran for an unusable --out")

    monkeypatch.setattr(work, no_work)
    argv = [str(tmp_path / a) if a.startswith("afile/") else a for a in argv]
    assert main(argv) == 2
    assert str(afile) in capsys.readouterr().err


@pytest.mark.parametrize("argv, target, work", [
    (["sample", "--law", "arcsine", "--count", "10", "--out", "x"], "x.csv",
     "spiderlaw.cli.sample_arcsine"),
    (["verify", "--suite", "densities", "--out", "r.jsonl"], "r.jsonl",
     "spiderlaw.cli.run_suite"),
    (["sample", "--law", "arcsine", "--count", "10", "--out", "x"], "x.json",
     "spiderlaw.cli.sample_arcsine"),
    (["sample", "--law", "arcsine", "--count", "10", "--out", "x"],
     "x.manifest.json", "spiderlaw.cli.sample_arcsine"),
    (["sample", "--law", "spider-walk", "--n", "3", "--steps", "100", "--count", "4",
      "--out", "x"], "x.run.json", "spiderlaw.cli.run_walk_batch"),
    (["figure-ratio", "--mu", "0.5", "--out", "f"], "f_ratio_a_mu0.5.csv",
     "spiderlaw.cli.build_density_curve"),
    (["figure-ratio", "--mu", "0.5", "--out", "f"], "f_ratio_a_mu0.5.json",
     "spiderlaw.cli.build_density_curve"),
    (["figure-spider", "--n", "3", "--out", "f"], "f.manifest.json",
     "spiderlaw.cli.build_density_curve"),
], ids=["sample", "verify", "sample-sidecar", "sample-manifest", "walk-run-manifest",
        "figure-csv", "figure-sidecar", "figure-manifest"])
def test_out_naming_a_directory(tmp_path, monkeypatch, capsys, argv, target, work):
    # a declared output file is an existing directory: exit 2 before any
    # work runs, and no CSV is written
    (tmp_path / target).mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("work ran for an unusable --out")

    monkeypatch.setattr(work, no_work)
    argv[-1] = str(tmp_path / argv[-1])
    assert main(argv) == 2
    assert str(tmp_path / target) in capsys.readouterr().err
    assert not [p for p in tmp_path.iterdir() if p.is_file() and p.suffix == ".csv"]


def test_sample_ratio_power_at_tiny_mu_redraws_nothing(tmp_path):
    # X**mu is formed from the log ratio, so no draw overflows at mu = 0.005
    out = tmp_path / "rp"
    assert main(["sample", "--law", "ratio-power", "--mu", "0.005", "--count", "100000",
                 "--seed", "1", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "rp.json").read_text())
    assert sidecar["redraw_count"] == 0
    _, rows = _read_csv(tmp_path / "rp.csv")
    assert np.isfinite(rows).all() and (rows > 0).all()


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SPIDER_SEED", "777")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--law", "stable-half", "--count", "50", "--out", str(a),
                 "--deterministic"]) == 0
    assert main(["sample", "--law", "stable-half", "--count", "50", "--out", str(b),
                 "--deterministic"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    sidecar = json.loads((tmp_path / "a.json").read_text())
    assert sidecar["seed"] == 777
    monkeypatch.setenv("SPIDER_SEED", "not-a-number")
    assert main(["sample", "--law", "stable-half", "--count", "5",
                 "--out", str(tmp_path / "c")]) == 2


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_figure_ratio_outputs(tmp_path):
    prefix = tmp_path / "fig1"
    code = main(["figure-ratio", "--out", str(prefix), "--deterministic"])
    assert code == 0
    svg = tmp_path / "fig1.svg"
    tree = ET.parse(svg)
    paths = [el for el in tree.getroot().iter() if el.tag.endswith("path")]
    assert len(paths) == 5  # one per default mu

    # the mu = 1/2 curve is the arc-sine curve
    _, rows = _read_csv(tmp_path / "fig1_ratio_a_mu0.5.csv")
    interior = rows[1:-1]
    assert np.abs(interior[:, 1] - arcsine_pdf(interior[:, 0])).max() <= 1e-12
    # every emitted curve is symmetric about 1/2
    for mu in ("0.1", "0.25", "0.5", "0.75", "0.9"):
        _, rows = _read_csv(tmp_path / f"fig1_ratio_a_mu{mu}.csv")
        pdf = rows[1:-1, 1]
        assert np.allclose(pdf, pdf[::-1], rtol=0, atol=1e-12)


def test_figure_ratio_rerun_is_byte_identical(tmp_path):
    args = ["figure-ratio", "--mu", "0.3,0.6", "--out", str(tmp_path / "ra"),
            "--deterministic"]
    suffixes = ("_ratio_a_mu0.3.csv", "_ratio_a_mu0.6.csv", ".svg",
                ".manifest.json")
    assert main(args) == 0
    first = {s: (tmp_path / f"ra{s}").read_bytes() for s in suffixes}
    assert main(args) == 0
    for s in suffixes:
        assert (tmp_path / f"ra{s}").read_bytes() == first[s]


def test_figure_spider_outputs(tmp_path):
    prefix = tmp_path / "fig2"
    code = main(["figure-spider", "--out", str(prefix), "--deterministic"])
    assert code == 0
    tree = ET.parse(tmp_path / "fig2.svg")
    paths = [el for el in tree.getroot().iter() if el.tag.endswith("path")]
    assert len(paths) == 5

    # the two-ray curve is the arc-sine curve
    _, rows = _read_csv(tmp_path / "fig2_spider_occupation_n2.csv")
    interior = rows[1:-1]
    assert np.abs(interior[:, 1] - arcsine_pdf(interior[:, 0])).max() <= 1e-12

    # growing ray count pushes mass toward 0: cdf(0.1) increases in n,
    # and for n=8 the mass below 0.1 beats the mass above 0.9
    cdf_at = {}
    for n in (2, 3, 4, 5, 8):
        _, rows = _read_csv(tmp_path / f"fig2_spider_occupation_n{n}.csv")
        grid = rows[:, 0]
        cdf_at[n] = (rows[grid == 0.1, 2][0], rows[grid == 0.9, 2][0])
        assert (rows[1:-1, 1] > 0).all()
    lows = [cdf_at[n][0] for n in (2, 3, 4, 5, 8)]
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert cdf_at[8][0] > 1.0 - cdf_at[8][1]


@pytest.mark.parametrize("argv", [
    ["figure-ratio", "--mu", "0.1234567,0.1234568"],
    ["figure-spider", "--n", "3,3"],
], ids=["ratio-labels-round-alike", "spider-repeated-n"])
def test_figure_colliding_names_are_rejected(tmp_path, monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran for colliding output names")

    monkeypatch.setattr("spiderlaw.cli.build_density_curve", no_work)
    assert main(argv + ["--out", str(tmp_path / "f" / "fig")]) == 2
    assert "share the output" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_figure_manifest_keeps_a_dotted_name(tmp_path):
    assert main(["figure-spider", "--n", "3", "--out", str(tmp_path / "fs_0.1"),
                 "--deterministic"]) == 0
    manifest = json.loads((tmp_path / "fs_0.1.manifest.json").read_text())
    assert manifest["outputs"][-1] == str(tmp_path / "fs_0.1.svg")


def test_figure_usage_error(tmp_path):
    assert main(["figure-ratio", "--mu", "1.5", "--out", str(tmp_path / "f")]) == 2
    assert main(["figure-spider", "--n", "1", "--out", str(tmp_path / "g")]) == 2


def test_figure_ratio_near_one(tmp_path, capsys):
    # the density peaks sharply at 1/2 as mu -> 1; a grid too coarse to
    # resolve the peak is a usage error, not a crash
    assert main(["figure-ratio", "--mu", "0.98", "--out", str(tmp_path / "a")]) == 0
    assert main(["figure-ratio", "--mu", "0.999", "--out", str(tmp_path / "b")]) == 2
    assert "--grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_convergence_suite(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    code = main(["verify", "--suite", "convergence", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert all(entry["verdict"] == "pass" for entry in parsed)
    stdout = capsys.readouterr().out
    assert "convergence" in stdout
    # the six per-ray-count distances are reported on their own line
    distances = [l for l in stdout.splitlines() if l.startswith("convergence distances")]
    assert len(distances) == 1 and distances[0].count("n=") == 6


def test_verify_densities_suite(tmp_path):
    assert main(["verify", "--suite", "densities",
                 "--out", str(tmp_path / "d.jsonl")]) == 0


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "everything"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = GofReport("forced", 1.0, None, 0, 0, 0, 0.5, "stat_max")
    monkeypatch.setattr("spiderlaw.cli.run_suite", lambda name, seed: ([failing], {}))
    assert main(["verify", "--suite", "densities"]) == 1
    err = capsys.readouterr().err
    assert "forced" in err
