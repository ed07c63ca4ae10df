"""Exact samplers for the laws studied by the package.

All samplers are pure functions of their parameters, an :class:`RngStream`
and a sample size; drawing is vectorised, and the probability-zero
degenerate outcomes of the underlying representations (an exactly-zero
uniform, exponential or normal) are redrawn and counted through
:class:`BatchMeta`.

The one-sided stable(mu) variable is generated by Kanter's representation

    S = (a(V) / E) ** ((1 - mu) / mu),
    a(v) = [ sin(mu v)**mu sin((1-mu) v)**(1-mu) / sin(v) ] ** (1/(1-mu)),

with V uniform on (0, pi) and E a unit exponential, which realises the
Laplace transform E[exp(-lambda S)] = exp(-lambda**mu) exactly and without
rejection.  One kernel returns log(a(V) / E), and every stable-based law is
a function of it: S itself, the ratio X = S/S', its power X**mu, and
Lamperti's law A = expit(-log X + log(p/q)/mu), which ``laws.LawSpec.sample``
draws from :func:`_log_ratio` at each of its points: the ratio A = S'/(S'+S)
(p = 1/2) and the n-ray spider marginal (mu = 1/2, p = 1/n) among them.
X**mu is formed from the logs, so it is finite for every mu.  An S or X
beyond the float range is kept as its correctly rounded value, inf or 0.0,
just as A keeps 0.0 and 1.0; nothing that overflows is redrawn.
The mu = 1/2 case has the direct form 1 / (2 N**2) for a standard normal N.

A :class:`ChunkedSample` lays a large sample out in chunks of
``output._CHUNK_ROWS`` rows, chunk c drawn, redraws included, from its own
Philox stream ``(seed, composite_stream_id(run_id, c))``, so a sample is
never held whole: :func:`save_sample_batch` draws and writes it one chunk
per task, and ``verify``'s transform batches fold it into their bands chunk
by chunk, each on its run in the table of :mod:`spiderlaw.rng`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import output
from .errors import integer
from .laws import _validate_mu, _validate_rays
from .output import sidecar_path, write_csv, write_json
from .rng import SAMPLE_RUN, RngStream, composite_stream_id


@dataclass
class BatchMeta:
    """Bookkeeping for a sampling batch; counts degenerate redraws."""

    redraws: int = 0


_MAX_REDRAW_ROUNDS = 64


def _clean(draw, ok, size, meta: BatchMeta | None):
    """Draw ``size`` values, redrawing entries rejected by ``ok``."""
    values = draw(integer(size, "sample size", 0))
    bad = ~ok(values)
    rounds = 0
    while np.any(bad):
        k = int(bad.sum())
        if meta is not None:
            meta.redraws += k
        values[bad] = draw(k)
        bad = ~ok(values)
        rounds += 1
        if rounds > _MAX_REDRAW_ROUNDS:
            raise RuntimeError("sampler failed to produce finite draws")
    return values


def _finite_positive(values):
    return np.isfinite(values) & (values > 0.0)


# ---------------------------------------------------------------------------
# stable laws and their ratios
# ---------------------------------------------------------------------------

def _kanter(mu, rng: RngStream, size, meta: BatchMeta | None):
    """log(a(V) / E), so that log S = (1 - mu) / mu times the result.

    Only an exact-zero uniform or exponential gives a non-finite log; those
    are redrawn.
    """

    def draw(k):
        v = rng.generator.uniform(0.0, np.pi, k)
        e = rng.generator.standard_exponential(k)
        # (mu log sin(mu v) + (1-mu) log sin((1-mu) v) - log sin v) / (1-mu) - log e,
        # the same ufuncs in the same order, in place: two arrays beside v and e
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = np.multiply(mu, v)
            np.log(np.sin(log_a, out=log_a), out=log_a)
            log_a *= mu
            b = np.multiply(1.0 - mu, v)
            np.log(np.sin(b, out=b), out=b)
            b *= 1.0 - mu
            log_a += b
            np.log(np.sin(v, out=v), out=v)
            log_a -= v
            log_a /= 1.0 - mu
            log_a -= np.log(e, out=e)
            return log_a

    return _clean(draw, np.isfinite, size, meta)


def _log_ratio(mu, rng: RngStream, size, meta: BatchMeta | None):
    """The kernel's log for S minus that for S', drawn in that order, so that
    log(S / S') = (1 - mu) / mu times the result.  It is finite for every mu,
    even where log S itself is not a float."""
    log_s = _kanter(mu, rng, size, meta)
    log_s -= _kanter(mu, rng, size, meta)
    return log_s


def sample_positive_stable(mu, rng: RngStream, size, meta: BatchMeta | None = None):
    """One-sided stable(mu) draws with E[exp(-lam S)] = exp(-lam**mu)."""
    mu = _validate_mu(mu)
    s = _kanter(mu, rng, size, meta)
    s *= (1.0 - mu) / mu
    with np.errstate(over="ignore"):
        return np.exp(s, out=s)


def sample_stable_half(rng: RngStream, size, meta: BatchMeta | None = None):
    """Stable(1/2) draws as 1 / (2 N**2); Laplace transform exp(-sqrt(lam))."""

    def draw(k):
        n = rng.generator.standard_normal(k)
        with np.errstate(divide="ignore"):
            return 1.0 / (2.0 * n * n)

    return _clean(draw, _finite_positive, size, meta)


def sample_ratio_X(mu, rng: RngStream, size, meta: BatchMeta | None = None):
    """Ratio X = S / S' of two independent stable(mu) draws."""
    mu = _validate_mu(mu)
    x = _log_ratio(mu, rng, size, meta)
    x *= (1.0 - mu) / mu
    with np.errstate(over="ignore"):
        return np.exp(x, out=x)


def sample_ratio_power(mu, rng: RngStream, size, meta: BatchMeta | None = None):
    """Y = X**mu = (S / S')**mu, the law of :func:`~spiderlaw.laws.ratio_power_pdf`."""
    mu = _validate_mu(mu)
    return np.exp((1.0 - mu) * _log_ratio(mu, rng, size, meta))


def sample_occupation_exact(n: int, rng: RngStream, size,
                            meta: BatchMeta | None = None):
    """Occupation-fraction vectors: rows of n iid stable(1/2) draws,
    normalised, as an array of shape (size, n) whose rows each sum to 1."""
    n, size = _validate_rays(n), integer(size, "sample size", 0)
    t = sample_stable_half(rng, size * n, meta).reshape(size, n)
    return t / t.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# batch output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkedSample:
    """``count`` rows of ``draw(rng, size, meta)``, each ``width`` values wide,
    drawn a chunk at a time.

    Chunk c holds rows ``c * R`` up to ``(c + 1) * R``, R = ``output._CHUNK_ROWS``,
    and is drawn, its redraws included, from its own stream
    ``RngStream(seed, composite_stream_id(run_id, c))``.  So each chunk is a
    pure function of (seed, run_id, c): ``count`` only says where the last
    chunk ends, and no chunk depends on which process draws it.
    """

    draw: Callable
    count: int
    seed: int
    width: int
    run_id: int = SAMPLE_RUN

    def __len__(self):
        return self.count

    @property
    def chunks(self) -> int:
        return -(-self.count // output._CHUNK_ROWS)

    def chunk(self, c):
        """Chunk c as ``output.write_csv`` takes it: its ``width`` columns,
        and the redraws they took."""
        meta = BatchMeta()
        lo = c * output._CHUNK_ROWS
        rng = RngStream(self.seed, composite_stream_id(self.run_id, c))
        rows = self.draw(rng, min(output._CHUNK_ROWS, self.count - lo), meta)
        return rows.reshape(-1, self.width).T, meta.redraws


def save_sample_batch(csv_path, values: ChunkedSample, law: str, parameters: dict):
    """Write samples as CSV plus a JSON sidecar describing the batch.

    The chunks of ``values`` are drawn and formatted one task each, so the
    sample is never held whole.  One column per coordinate; the header
    carries the law name and its parameters so the CSV is self-describing.
    The sidecar's ``seed`` is the one the chunks are drawn from, its
    ``redraw_count`` the sum of every chunk's redraws, and ``stream_count``
    the number of chunk streams.
    """
    suffix = "".join(f"_{k}{v:g}" for k, v in sorted(parameters.items()))
    if values.width == 1:
        header = [f"{law}{suffix}"]
    else:
        header = [f"{law}{suffix}_ray{j + 1}" for j in range(values.width)]
    redraws = write_csv(csv_path, header, len(values), values.chunk)
    sidecar = sidecar_path(csv_path)
    write_json(sidecar, {
        "law": law,
        "parameters": dict(parameters),
        "seed": values.seed,
        "stream_count": values.chunks,
        "n_samples": len(values),
        "redraw_count": redraws,
    })
    return sidecar
