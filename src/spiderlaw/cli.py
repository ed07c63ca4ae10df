"""Command line front end.

Subcommands
-----------
sample         draw from a law (or run walk batches) into CSV + JSON sidecar
figure-ratio   density curves of the two-stable ratio law over a list of mu
figure-spider  occupation-marginal density curves over a list of ray counts
verify         run a pre-registered verification suite, emit JSON-line reports

Exit codes: 0 success, 1 verification failure, 2 usage error (bad arguments
or an unusable --out).  sample and verify take --seed, else SPIDER_SEED, else
0, in [0, 2**64); the figures draw nothing and take no seed.  With
--deterministic all outputs (including manifests) are byte-identical across
reruns.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ParameterDomainError, UsageError, integer
from .figures import render_curves_svg, write_curve_csv
from .gof import summary_table, write_reports_jsonl
from .laws import LawSpec, build_density_curve
from .output import prepare_out, sidecar_path, write_json
from .rng import RngStream
from .samplers import (
    BatchMeta,
    ChunkedSample,
    sample_occupation_exact,
    sample_positive_stable,
    sample_ratio_power,
    sample_stable_half,
    save_sample_batch,
)
from .suites import SUITE_NAMES, run_suite
from .walk import SpiderConfig, StoppingRule, run_walk_batch


@dataclass
class RunManifest:
    """What a command did: parameters in, files out."""

    command: str
    parameters: dict
    seed: int | None  # None for a command that draws nothing
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
    """--seed, else SPIDER_SEED, else 0: a 64-bit word of every stream's key."""
    if value is None:
        env = os.environ.get("SPIDER_SEED", "0")
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(f"SPIDER_SEED is not an integer: {env!r}") from exc
    return integer(value, "seed", 0, 1 << 64)


def _parse_list(text, kind) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated {kind.__name__} list: {text!r}") from exc


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

# law -> (the options it takes besides --count, its draw given those options);
# the walk writes its own outputs.  A law on [0, 1] draws through the
# ``LawSpec`` its options build.  The other draws look their samplers up in
# this module when called, as ``cmd_sample`` does ``save_sample_batch``, so a
# caller may rebind those names here.
_LAWS = {
    "arcsine": ((), lambda rng, count, meta: LawSpec.arcsine().sample(rng, count, meta)),
    "stable": (("mu",), lambda rng, count, meta, mu:
               sample_positive_stable(mu, rng, count, meta=meta)),
    "stable-half": ((), lambda rng, count, meta: sample_stable_half(rng, count, meta=meta)),
    "ratio-power": (("mu",), lambda rng, count, meta, mu:
                    sample_ratio_power(mu, rng, count, meta=meta)),
    "ratio-a": (("mu",), lambda rng, count, meta, mu:
                LawSpec.ratio_a(mu).sample(rng, count, meta)),
    "occupation": (("n",), lambda rng, count, meta, n:
                   sample_occupation_exact(n, rng, count, meta=meta)),
    "spider-marginal": (("n",), lambda rng, count, meta, n:
                        LawSpec.spider(n).sample(rng, count, meta)),
    "spider-walk": (("n", "steps"), None),
}
_LAW_OPTIONS = ("mu", "n", "steps")


def _law_parameters(args) -> dict:
    """The options the law takes, each required; any other is an error."""
    takes = set(_LAWS[args.law][0])
    given = {opt for opt in _LAW_OPTIONS if getattr(args, opt) is not None}
    for problem, opts in (("takes no", given - takes), ("requires", takes - given)):
        if opts:
            raise UsageError(f"--law {args.law} {problem} "
                             + ", ".join(f"--{opt}" for opt in sorted(opts)))
    return {opt: getattr(args, opt) for opt in _LAWS[args.law][0]}


def cmd_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    count = args.count
    if count is None:
        raise UsageError("--count is required")
    if count < 1:
        raise UsageError(f"sample count must be positive: {count}")
    parameters = _law_parameters(args)
    out = Path(args.out)
    csv_path = prepare_out(out if out.name.endswith(".csv") else out.parent / f"{out.name}.csv")
    # every declared output is checked before any draw: the sidecar (a
    # walk's run manifest) and the command manifest beside the CSV
    json_path = prepare_out(csv_path.with_suffix(
        ".run.json" if args.law == "spider-walk" else ".json"))
    manifest_path = prepare_out(csv_path.with_suffix(".manifest.json"))
    manifest = RunManifest.begin(
        "sample", {"law": args.law, **parameters, "count": count}, seed, args.deterministic)

    draw = _LAWS[args.law][1]
    if draw is None:
        if args.steps < 1000:  # a coarser lattice is too far from the limit laws
            raise UsageError(f"--law spider-walk needs --steps >= 1000: {args.steps}")
        config = SpiderConfig(n=args.n, steps=args.steps, paths=count, seed=seed)
        run_walk_batch(config, StoppingRule.fixed_time(), csv_path, json_path,
                       record_wall_time=not args.deterministic)
        manifest.outputs += [str(csv_path), str(json_path)]
    else:
        # chunks are drawn as they are written, so a zero-row draw runs the
        # sampler's own checks before any output, and its shape gives the width
        empty = draw(RngStream(seed), 0, BatchMeta(), **parameters)
        values = ChunkedSample(functools.partial(draw, **parameters), count, seed,
                               width=empty.shape[1] if empty.ndim == 2 else 1)
        sidecar = save_sample_batch(csv_path, values, args.law.replace("-", "_"), parameters)
        manifest.outputs += [str(csv_path), sidecar]
    manifest.finish(manifest_path, args.deterministic)
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

# command -> (its list option, the item type, the default list, what one item
# is, the command's help, the law of an item, the legend format, the SVG title)
_FIGURES = {
    "figure-ratio": ("mu", float, "0.1,0.25,0.5,0.75,0.9", "mu",
                     "density curves over a list of mu", LawSpec.ratio_a,
                     "mu = {:g}", "density of the two-stable occupation ratio"),
    "figure-spider": ("n", int, "2,3,4,5,8", "ray count",
                      "density curves over a list of ray counts", LawSpec.spider,
                      "n = {}", "density of one spider occupation fraction"),
}


def cmd_figure(args) -> int:
    """One CSV + sidecar per law, the SVG overlay, then the run manifest."""
    option, item, _, noun, _, make_law, legend, title = _FIGURES[args.command]
    values = _parse_list(getattr(args, option), item)
    if not values:
        raise UsageError(f"need at least one {noun}")
    laws = [make_law(value) for value in values]
    names = [law.label() for law in laws]
    clash = sorted({name for name in names if names.count(name) > 1})
    if clash:
        raise UsageError(f"curves would share the output {', '.join(clash)}; "
                         "give distinct values")
    out = Path(args.out)
    svg_path = prepare_out(out.parent / f"{out.name}.svg")
    manifest_path = prepare_out(out.parent / f"{out.name}.manifest.json")
    csv_paths = [prepare_out(out.parent / f"{out.name}_{name}.csv") for name in names]
    for csv_path in csv_paths:
        prepare_out(sidecar_path(csv_path))
    manifest = RunManifest.begin(args.command, {option: values, "grid": args.grid},
                                 None, args.deterministic)
    curves = []
    for law, csv_path in zip(laws, csv_paths):
        curve = build_density_curve(law, interior_points=args.grid).validate()
        sidecar = write_curve_csv(curve, csv_path)
        curves.append(curve)
        manifest.outputs += [str(csv_path), sidecar]
    render_curves_svg(curves, [legend.format(value) for value in values], svg_path,
                      title=title)
    manifest.outputs.append(str(svg_path))
    manifest.finish(manifest_path, args.deterministic)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.out:
        prepare_out(args.out)
    reports, points = run_suite(args.suite, seed)
    if args.out:
        write_reports_jsonl(reports, args.out)
    print(summary_table(reports))
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
    p.add_argument("--steps", type=int, help="walk length for --law spider-walk")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_sample)

    for command, (option, _, default, _, help_text, *_) in _FIGURES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument(f"--{option}", default=default)
        p.add_argument("--grid", type=int, default=999)
        p.add_argument("--out", required=True)
        p.add_argument("--deterministic", action="store_true")
        p.set_defaults(func=cmd_figure)

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
