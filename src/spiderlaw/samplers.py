"""Exact samplers for the laws studied by the package.

All samplers are pure functions of their parameters and an :class:`RngStream`;
drawing is vectorised, and the probability-zero degenerate outcomes of the
underlying representations (an exactly-zero normal, a non-finite ratio) are
redrawn and counted through :class:`BatchMeta`.

The one-sided stable(mu) variable is generated by Kanter's representation

    S = (a(V) / E) ** ((1 - mu) / mu),
    a(v) = [ sin(mu v)**mu sin((1-mu) v)**(1-mu) / sin(v) ] ** (1/(1-mu)),

with V uniform on (0, pi) and E a unit exponential, which realises the
Laplace transform E[exp(-lambda S)] = exp(-lambda**mu) exactly and without
rejection.  The mu = 1/2 case has the direct form 1 / (2 N**2) for a standard
normal N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .output import sidecar_path, write_csv, write_json
from .rng import RngStream


@dataclass(frozen=True)
class StableParams:
    """Exponent of a one-sided stable law, constrained to (0, 1)."""

    mu: float

    def __post_init__(self):
        mu = float(self.mu)
        if not 0.0 < mu < 1.0:
            raise ParameterDomainError(f"stable exponent must lie in (0, 1): {self.mu}")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class SimplexVector:
    """Occupation fractions: n >= 2 entries in [0, 1] summing to 1."""

    fractions: tuple[float, ...]

    def __post_init__(self):
        frac = tuple(float(f) for f in self.fractions)
        if len(frac) < 2:
            raise ParameterDomainError(f"need at least 2 fractions, got {len(frac)}")
        arr = np.asarray(frac)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ParameterDomainError("fractions must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ParameterDomainError(f"fractions sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "fractions", frac)

    def __len__(self):
        return len(self.fractions)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.fractions)


@dataclass
class BatchMeta:
    """Bookkeeping for a sampling batch; counts degenerate redraws."""

    redraws: int = 0


def _bump(meta: BatchMeta | None, count: int):
    if meta is not None and count:
        meta.redraws += int(count)


def _clean(draw, ok, size, meta: BatchMeta | None, max_rounds=64):
    """Draw ``size`` values, redrawing entries rejected by ``ok``."""
    n = 1 if size is None else int(size)
    if n < 0:
        raise ParameterDomainError(f"sample size must be nonnegative: {size}")
    values = draw(n)
    bad = ~ok(values)
    rounds = 0
    while np.any(bad):
        k = int(bad.sum())
        _bump(meta, k)
        values[bad] = draw(k)
        bad = ~ok(values)
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("sampler failed to produce finite draws")
    return float(values[0]) if size is None else values


def _finite_positive(values):
    return np.isfinite(values) & (values > 0.0)


# ---------------------------------------------------------------------------
# stable laws and their ratios
# ---------------------------------------------------------------------------

def sample_positive_stable(params: StableParams, rng: RngStream, size=None,
                           meta: BatchMeta | None = None):
    """One-sided stable(mu) draw(s) with E[exp(-lam S)] = exp(-lam**mu)."""
    mu = params.mu

    def draw(k):
        v = rng.uniform(k, 0.0, np.pi)
        e = rng.exponential(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = (
                mu * np.log(np.sin(mu * v))
                + (1.0 - mu) * np.log(np.sin((1.0 - mu) * v))
                - np.log(np.sin(v))
            ) / (1.0 - mu)
            return np.exp((1.0 - mu) / mu * (log_a - np.log(e)))

    return _clean(draw, _finite_positive, size, meta)


def sample_stable_half(rng: RngStream, size=None, meta: BatchMeta | None = None):
    """Stable(1/2) draw(s) as 1 / (2 N**2); Laplace transform exp(-sqrt(lam))."""

    def draw(k):
        n = rng.normal(k)
        with np.errstate(divide="ignore"):
            return 1.0 / (2.0 * n * n)

    return _clean(draw, _finite_positive, size, meta)


def sample_ratio_X(params: StableParams, rng: RngStream, size=None,
                   meta: BatchMeta | None = None):
    """Ratio X = S / S' of two independent stable(mu) draws."""

    def draw(k):
        num = sample_positive_stable(params, rng, k, meta)
        den = sample_positive_stable(params, rng, k, meta)
        return num / den

    return _clean(draw, _finite_positive, size, meta)


def _expit(x):
    """1 / (1 + exp(-x)), without overflow for either sign of x."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def sample_ratio_A(params: StableParams, rng: RngStream, size=None,
                   meta: BatchMeta | None = None):
    """A = S' / (S' + S) = 1 / (1 + X) for independent stable(mu) S, S'.

    Formed in log space as expit(log S' - log S), so the two tails round
    alike; a draw that rounds to 0.0 or 1.0 is a correct float result and is
    kept.
    """

    def draw(k):
        s = sample_positive_stable(params, rng, k, meta)
        s_prime = sample_positive_stable(params, rng, k, meta)
        return _expit(np.log(s_prime) - np.log(s))

    return _clean(draw, np.isfinite, size, meta)


def sample_occupation_exact(n: int, rng: RngStream, size=None,
                            meta: BatchMeta | None = None):
    """Occupation-fraction vector(s): n iid stable(1/2) draws, normalised.

    Returns a :class:`SimplexVector` when ``size`` is None, otherwise an
    array of shape (size, n) whose rows each sum to 1.
    """
    if int(n) != n or int(n) < 2:
        raise ParameterDomainError(f"ray count must be an integer >= 2: {n}")
    n = int(n)
    rows = 1 if size is None else int(size)
    t = sample_stable_half(rng, rows * n, meta).reshape(rows, n)
    fractions = t / t.sum(axis=1, keepdims=True)
    if size is None:
        return SimplexVector(tuple(fractions[0]))
    return fractions


def sample_cauchy_spider_marginal(n: int, rng: RngStream, size=None,
                                  meta: BatchMeta | None = None):
    """One occupation fraction via its Cauchy form 1 / (1 + (n-1)^2 C^2)."""
    if int(n) != n or int(n) < 2:
        raise ParameterDomainError(f"ray count must be an integer >= 2: {n}")
    n = int(n)

    def draw(k):
        c = rng.cauchy(k)
        return 1.0 / (1.0 + (n - 1) ** 2 * c * c)

    ok = lambda v: np.isfinite(v) & (v > 0.0) & (v <= 1.0)
    return _clean(draw, ok, size, meta)


_ARCSINE_METHODS = ("cosine", "normal_ratio", "stable_ratio", "cauchy")


def sample_arcsine(rng: RngStream, size=None, method="cosine",
                   meta: BatchMeta | None = None):
    """Arc-sine draw(s) by any of the four classical representations.

    ``cosine``       cos(U)^2 with U uniform on [0, 2 pi)
    ``normal_ratio`` N^2 / (N^2 + N'^2)
    ``stable_ratio`` T / (T + T') for iid stable(1/2) T, T'
    ``cauchy``       1 / (1 + C^2)
    """
    if method not in _ARCSINE_METHODS:
        raise ParameterDomainError(f"unknown arcsine method: {method!r}")

    if method == "cosine":
        def draw(k):
            return np.cos(rng.uniform(k, 0.0, 2.0 * np.pi)) ** 2
    elif method == "normal_ratio":
        def draw(k):
            a = rng.normal(k) ** 2
            b = rng.normal(k) ** 2
            with np.errstate(invalid="ignore"):
                return a / (a + b)
    elif method == "stable_ratio":
        def draw(k):
            t1 = sample_stable_half(rng, k, meta)
            t2 = sample_stable_half(rng, k, meta)
            return t1 / (t1 + t2)
    else:
        def draw(k):
            c = rng.cauchy(k)
            return 1.0 / (1.0 + c * c)

    ok = lambda v: np.isfinite(v) & (v >= 0.0) & (v <= 1.0)
    return _clean(draw, ok, size, meta)


# ---------------------------------------------------------------------------
# batch output
# ---------------------------------------------------------------------------

def save_sample_batch(csv_path, values, law: str, parameters: dict, seed: int,
                      meta: BatchMeta | None = None):
    """Write samples as CSV plus a JSON sidecar describing the batch.

    One column per coordinate; the header carries the law name and its
    parameters so the CSV is self-describing.
    """
    arr = np.asarray(values, dtype=float).reshape(len(values), -1)
    suffix = "".join(f"_{k}{v:g}" for k, v in sorted(parameters.items()))
    if arr.shape[1] == 1:
        header = [f"{law}{suffix}"]
    else:
        header = [f"{law}{suffix}_ray{j + 1}" for j in range(arr.shape[1])]
    write_csv(csv_path, header, arr.T)
    sidecar = sidecar_path(csv_path)
    write_json(sidecar, {
        "law": law,
        "parameters": dict(parameters),
        "seed": int(seed),
        "stream_count": 1,
        "n_samples": int(arr.shape[0]),
        "redraw_count": 0 if meta is None else int(meta.redraws),
    })
    return sidecar
