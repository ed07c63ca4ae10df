"""Span recording from outside the program.

:func:`install` rebinds the public names that spiderlaw's callers look up at
call time (for example ``spiderlaw.gof.stop_batch``) to wrappers that record
one span per call: a name, start and end on the ``time.perf_counter`` clock,
the id of the enclosing span, and work counts derived from the call's
arguments and result.  No file of the program changes, and spans stay in
memory until :meth:`Tracer.dump` writes them out.

``perf_counter`` is CLOCK_MONOTONIC on Linux, shared by all processes, so
the harness can place a child's spans inside the interval it measured
around that child.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time


_KEPT_STREAM_KEYS = 4096  # as many as the harness probe builds


class Tracer:
    """Spans of one process, in call order.

    ``streams`` counts the generators the process built; ``stream_keys``
    keeps the (seed, stream_id) of the first few thousand, enough for the
    harness to time building the same streams again.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.streams = 0
        self.stream_keys: list[tuple[int, int]] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, counts=None):
        """Run ``fn`` inside a span; ``counts(result)`` gives its work counts."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if counts is not None:
            span["counts"] = counts(result)
        return result

    def wrap(self, name, fn, counts=None):
        """A stand-in for ``fn`` that records a span named ``name``.

        ``name`` may be a callable of the call's arguments; ``counts`` is
        called as ``counts(args, kwargs, result)``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            get = None if counts is None else (lambda res: counts(args, kwargs, res))
            return self.call(label, fn, args, kwargs, get)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "streams": self.streams,
                       "stream_keys": self.stream_keys}, fh)


# ---------------------------------------------------------------------------
# work counts, derived from arguments and results only
# ---------------------------------------------------------------------------

def _stop_counts(args, kwargs, batch):
    """Paths, discards, steps and excursions of a StopBatch.

    Excursions used per kept path are the complete ones, ``zero_visits - 1``,
    plus the straddling one when the rule fired away from the origin.
    """
    kept = batch.kept
    straddle = batch.last_zero_step[kept] < batch.stopped_step[kept]
    return {
        "paths": int(batch.config.paths),
        "discarded": int(batch.discard_count),
        "kept": int(kept.sum()),
        "steps": int(batch.stopped_step[kept].sum()),
        "excursions": int((batch.zero_visits[kept] - 1).sum() + straddle.sum()),
    }


def _stop_name(config, rule, *args, **kwargs):
    return f"walk.{rule.kind}"


def _save_counts(args, kwargs, result):
    csv_path, values = args[:2]
    return {"rows": len(values), "bytes": os.path.getsize(str(csv_path))}


def _batch_csv_counts(args, kwargs, result):
    csv_path, batch = args[:2]
    return {"rows": int(batch.config.paths), "bytes": os.path.getsize(str(csv_path))}


def _wrap_sampler(tracer, name, fn, unit, batch_meta):
    """Samplers take ``(param, rng, size=None, meta=None)``; a call without a
    BatchMeta gets a fresh one, which only counts redraws, so the redraw
    count is observed without changing a single draw."""

    @functools.wraps(fn)
    def traced(param, rng, size=None, meta=None):
        meta = batch_meta() if meta is None else meta
        before = meta.redraws
        drawn = 1 if size is None else int(size)
        return tracer.call(
            name, fn, (param, rng, size, meta), {},
            lambda res: {unit: drawn, "redraws": meta.redraws - before})

    return traced


def install() -> Tracer:
    """Rebind spiderlaw's call sites to span-recording wrappers."""
    tracer = Tracer()
    mod = {name: importlib.import_module(f"spiderlaw.{name}")
           for name in ("cli", "gof", "quadrature", "rng", "samplers", "suites", "walk")}
    BatchMeta = mod["samplers"].BatchMeta

    plain = [
        ("suites", "density_suite", "suites.density_suite"),
        ("suites", "convergence_suite", "suites.convergence_suite"),
        ("suites", "transform_suite", "suites.transform_suite"),
        ("suites", "occupation_suite", "suites.occupation_suite"),
        ("suites", "mc_transform_check", "gof.mc_transform_check"),
        ("suites", "verify_occupation_identity", "gof.verify_occupation_identity"),
        ("suites", "integrate_density", "laws.integrate_density"),
        ("suites", "density_mean", "laws.density_mean"),
        ("gof", "ks_two_sample", "gof.ks_two_sample"),
        ("gof", "ks_one_sample", "gof.ks_one_sample"),
        ("quadrature", "adaptive_quadrature", "quadrature.adaptive_quadrature"),
    ]
    for module, attr, name in plain:
        setattr(mod[module], attr, tracer.wrap(name, getattr(mod[module], attr)))

    # stop_batch is looked up by gof (verify) and by walk (run_walk_batch)
    for module in ("gof", "walk"):
        setattr(mod[module], "stop_batch",
                tracer.wrap(_stop_name, getattr(mod[module], "stop_batch"), _stop_counts))
    mod["walk"].write_batch_csv = tracer.wrap(
        "walk.write_batch_csv", mod["walk"].write_batch_csv, _batch_csv_counts)
    mod["cli"].save_sample_batch = tracer.wrap(
        "samplers.save_sample_batch", mod["cli"].save_sample_batch, _save_counts)

    # suites calls the stable sampler directly, and through sample_ratio_X,
    # which finds it in the samplers module
    for module in ("suites", "samplers"):
        setattr(mod[module], "sample_positive_stable", _wrap_sampler(
            tracer, "samplers.sample_positive_stable",
            getattr(mod[module], "sample_positive_stable"), "draws", BatchMeta))
    for module in ("cli", "gof"):
        setattr(mod[module], "sample_occupation_exact", _wrap_sampler(
            tracer, "samplers.sample_occupation_exact",
            getattr(mod[module], "sample_occupation_exact"), "rows", BatchMeta))

    # every stream builds its generator once, on first use
    RngStream = mod["rng"].RngStream
    build = RngStream.generator.fget

    def generator(stream):
        if stream._generator is None:
            tracer.streams += 1
            if len(tracer.stream_keys) < _KEPT_STREAM_KEYS:
                tracer.stream_keys.append((stream.seed, stream.stream_id))
        return build(stream)

    RngStream.generator = property(generator)
    return tracer
