"""Command line front end.

Subcommands
-----------
sample         draw from a law (or run walk batches) into CSV + JSON sidecar
figure-ratio   density curves of the two-stable ratio law over a list of mu
figure-spider  occupation-marginal density curves over a list of ray counts
verify         run a pre-registered verification suite, emit JSON-line reports

Exit codes: 0 success, 1 verification failure, 2 usage error (bad arguments
or an unusable --out).  The seed comes from --seed, else the SPIDER_SEED
environment variable, else 0.  With --deterministic all outputs (including
manifests) are byte-identical across reruns.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ParameterDomainError, UsageError
from .figures import render_curves_svg, write_curve_csv
from .gof import summary_table, write_reports_jsonl
from .laws import LawKind, LawSpec, build_density_curve
from .output import prepare_out, write_json
from .rng import RngStream, composite_stream_id
from .samplers import (
    BatchMeta,
    StableParams,
    sample_arcsine,
    sample_cauchy_spider_marginal,
    sample_occupation_exact,
    sample_positive_stable,
    sample_ratio_A,
    sample_ratio_X,
    sample_stable_half,
    save_sample_batch,
)
from .suites import SUITE_NAMES, run_suite
from .walk import SpiderConfig, run_walk_batch

_SAMPLE_RUN_ID = 8  # stream namespace for CLI sampling, clear of walk run ids


@dataclass
class RunManifest:
    """What a command did: parameters in, files out."""

    command: str
    parameters: dict
    seed: int
    started: str | None
    finished: str | None = None
    outputs: list[str] = field(default_factory=list)
    tool_version: str = __version__

    @classmethod
    def begin(cls, command, parameters, seed, deterministic):
        stamp = None if deterministic else datetime.now(timezone.utc).isoformat()
        return cls(command=command, parameters=parameters, seed=seed, started=stamp)

    def finish(self, path, deterministic):
        for out in self.outputs:
            p = Path(out)
            if not p.is_file() or p.stat().st_size == 0:
                raise RuntimeError(f"declared output missing or empty: {out}")
        self.finished = None if deterministic else datetime.now(timezone.utc).isoformat()
        write_json(path, asdict(self))


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("SPIDER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"SPIDER_SEED is not an integer: {env!r}") from exc
    return 0


def _parse_floats(text) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated float list: {text!r}") from exc


def _parse_ints(text) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list: {text!r}") from exc


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

_LAWS = (
    "arcsine", "stable", "stable-half", "ratio-power", "ratio-a",
    "occupation", "spider-marginal", "spider-walk",
)


def _require_mu(args) -> StableParams:
    if args.mu is None:
        raise UsageError(f"--law {args.law} requires --mu")
    return StableParams(args.mu)


def _require_n(args) -> int:
    if args.n is None:
        raise UsageError(f"--law {args.law} requires --n")
    return args.n


def cmd_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    count = args.count
    if args.law == "spider-walk" and args.paths is not None:
        count = args.paths
    if count is None:
        raise UsageError("--count is required (or --paths for spider-walk)")
    if count < 1:
        raise UsageError(f"sample count must be positive: {count}")
    out = Path(args.out)
    csv_path = prepare_out(out if out.suffix == ".csv" else out.with_suffix(".csv"))
    manifest_path = csv_path.with_suffix(".manifest.json")
    manifest = RunManifest.begin(
        "sample",
        {"law": args.law, "mu": args.mu, "n": args.n, "count": count,
         "steps": args.steps},
        seed, args.deterministic,
    )
    meta = BatchMeta()
    rng = RngStream(seed, composite_stream_id(_SAMPLE_RUN_ID, 0))

    if args.law == "spider-walk":
        n = _require_n(args)
        if args.steps is None:
            raise UsageError("--law spider-walk requires --steps")
        config = SpiderConfig(n=n, steps=args.steps, paths=count, seed=seed)
        run_manifest_path = csv_path.with_suffix(".run.json")
        run_walk_batch(config, None, csv_path, run_manifest_path,
                       record_wall_time=not args.deterministic)
        manifest.outputs += [str(csv_path), str(run_manifest_path)]
        manifest.finish(manifest_path, args.deterministic)
        return 0

    parameters: dict = {}
    if args.law == "arcsine":
        values = sample_arcsine(rng, count, meta=meta)
        law_name = "arcsine"
    elif args.law == "stable":
        params = _require_mu(args)
        values = sample_positive_stable(params, rng, count, meta=meta)
        law_name, parameters = "stable", {"mu": params.mu}
    elif args.law == "stable-half":
        values = sample_stable_half(rng, count, meta=meta)
        law_name = "stable_half"
    elif args.law == "ratio-power":
        params = _require_mu(args)
        values = sample_ratio_X(params, rng, count, meta=meta) ** params.mu
        law_name, parameters = "ratio_power", {"mu": params.mu}
    elif args.law == "ratio-a":
        params = _require_mu(args)
        values = sample_ratio_A(params, rng, count, meta=meta)
        law_name, parameters = "ratio_a", {"mu": params.mu}
    elif args.law == "occupation":
        n = _require_n(args)
        values = sample_occupation_exact(n, rng, count, meta=meta)
        law_name, parameters = "occupation", {"n": n}
    elif args.law == "spider-marginal":
        n = _require_n(args)
        values = sample_cauchy_spider_marginal(n, rng, count, meta=meta)
        law_name, parameters = "spider_marginal", {"n": n}
    else:
        raise UsageError(f"unknown law {args.law!r}")

    sidecar = save_sample_batch(csv_path, values, law_name, parameters, seed, meta=meta)
    manifest.outputs += [str(csv_path), sidecar]
    manifest.finish(manifest_path, args.deterministic)
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _emit_figure(args, parameters, laws, labels, title) -> int:
    """One CSV + sidecar per law, the SVG overlay, then the run manifest."""
    prefix = prepare_out(args.out)
    manifest = RunManifest.begin(args.command, {**parameters, "grid": args.grid},
                                 _resolve_seed(args.seed), args.deterministic)
    curves = []
    for law in laws:
        curve = build_density_curve(law, interior_points=args.grid).validate()
        csv_path = prefix.parent / f"{prefix.name}_{law.label()}.csv"
        sidecar = write_curve_csv(curve, csv_path)
        curves.append(curve)
        manifest.outputs += [str(csv_path), sidecar]
    svg_path = prefix.parent / f"{prefix.name}.svg"
    render_curves_svg(curves, labels, svg_path, title=title,
                      deterministic=args.deterministic)
    manifest.outputs.append(str(svg_path))
    manifest.finish(prefix.with_suffix(".manifest.json"), args.deterministic)
    return 0


def cmd_figure_ratio(args) -> int:
    mus = _parse_floats(args.mu)
    if not mus:
        raise UsageError("need at least one mu")
    return _emit_figure(args, {"mu": mus},
                        [LawSpec(LawKind.STABLE_RATIO_A, mu=mu) for mu in mus],
                        [f"mu = {mu:g}" for mu in mus],
                        "density of the two-stable occupation ratio")


def cmd_figure_spider(args) -> int:
    rays = _parse_ints(args.n)
    if not rays:
        raise UsageError("need at least one ray count")
    return _emit_figure(args, {"n": rays},
                        [LawSpec(LawKind.SPIDER_OCCUPATION, n=n) for n in rays],
                        [f"n = {n}" for n in rays],
                        "density of one spider occupation fraction")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.out:
        prepare_out(args.out)
    reports, extras = run_suite(args.suite, seed)
    if args.out:
        write_reports_jsonl(reports, args.out)
    print(summary_table(reports))
    points = extras.get("points")
    if points:
        print("convergence distances: "
              + ", ".join(f"n={p.n}: {p.distance:.6f}" for p in points))
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(r.test_name for r in failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiderlaw",
        description="occupation-time laws of the Brownian spider: sample, plot, verify",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw samples into CSV + JSON sidecar")
    p.add_argument("--law", required=True, choices=_LAWS)
    p.add_argument("--mu", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--paths", type=int, help="path count for --law spider-walk")
    p.add_argument("--steps", type=int, help="walk length for --law spider-walk")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("figure-ratio", help="density curves over a list of mu")
    p.add_argument("--mu", default="0.1,0.25,0.5,0.75,0.9")
    p.add_argument("--grid", type=int, default=999)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_figure_ratio)

    p = sub.add_parser("figure-spider", help="density curves over a list of ray counts")
    p.add_argument("--n", default="2,3,4,5,8")
    p.add_argument("--grid", type=int, default=999)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_figure_spider)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="JSON-lines report path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (UsageError, ParameterDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
