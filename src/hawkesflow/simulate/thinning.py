"""Exact simulation of Hawkes streams by Ogata-style thinning.

One loop simulates every model.  Each kernel adds to its target's
intensity in one of two ways, and both kinds mix freely in one model:

* an exponential-family kernel adds one state per exponential term, the
  sum of ``alpha * beta * exp(-beta * lag)`` over past source events,
  kept by the exact O(1) recursion: decay between candidates, a jump of
  ``alpha * beta`` when the source fires;
* any other kernel adds its values summed over the source's recent
  events, those within ``support(KERNEL_TRUNCATION_EPS)``, so a past event
  is dropped once the kernel stays below 1e-8 per second.  Each source's
  history is searched once per evaluation and its lags serve every target.

The dominating rate is refreshed after every candidate, accepted or not:
the baseline, plus the positive part of each exponential state (a
decaying term's current value bounds its future; an inhibitory one is
bounded by zero), plus each windowed kernel's ``upper_bound_from_vec``
over its lags.  A candidate draws one exponential gap, then one uniform;
the uniform picks the component by walking the cumulative intensity,
which is clipped at zero.  ``clipping_frequency`` is the share of
candidates with any negative intensity, which only inhibitory kernels
produce.  A factorized model is simulated as the D x D kernel matrix it
derives, which has the same law: ``(p_i * lambda_g)^+ = p_i * lambda_g^+``.

Every run discards a stationarity burn-in of ``max(100 / min positive
baseline, 10 s)`` (capped at 1000 s) before the reported session starts.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain

import numpy as np

from ..errors import StabilityError
from ..events.types import MultivariateEventStream, Session
from .kernels import SumOfExponentialsKernel
from .model import HawkesModel

__all__ = ["simulate"]

KERNEL_TRUNCATION_EPS = 1e-8
BURN_IN_CAP = 1000.0
_RNG_BLOCK = 1 << 15


class _BlockRng:
    """Counter-based generator handing out Python floats from cached blocks.

    ``exponential()`` and ``uniform()`` each draw a block of ``_RNG_BLOCK``
    values from the shared Philox stream when their previous block runs out.
    """

    def __init__(self, seed: int):
        gen = np.random.Generator(np.random.Philox(seed))
        self.exponential = _draws(gen.standard_exponential)
        self.uniform = _draws(gen.random)


def _draws(draw):
    floats = chain.from_iterable(iter(lambda: draw(_RNG_BLOCK).tolist(), None))
    return partial(next, floats)


class _History:
    """Recent events of one source, for the kernels it feeds by windowed sums."""

    def __init__(self, kernels: list):
        self.kernels = kernels  # (target, kernel) pairs
        self.window = max(k.support(KERNEL_TRUNCATION_EPS) for _, k in kernels)
        self.times = np.empty(1024)
        self.left = 0
        self.n = 0

    def lags(self, at: float) -> np.ndarray:
        """Lags from ``at`` back to the events still inside the window."""
        lags = at - self.times[self.left:self.n]
        old = int(np.count_nonzero(lags > self.window))
        self.left += old
        return lags[old:]

    def push(self, t: float) -> None:
        if self.n == len(self.times):
            live = self.times[self.left:self.n]
            self.times = np.empty(max(2 * len(live), 1024))
            self.times[:len(live)] = live
            self.left, self.n = 0, len(live)
        self.times[self.n] = t
        self.n += 1


def _burn_in(baseline: np.ndarray) -> float:
    positive = baseline[baseline > 0]
    if len(positive) == 0:
        return 0.0
    return min(max(100.0 / float(positive.min()), 10.0), BURN_IN_CAP)


def _finalize(times_per_comp: list[list[float]], dimension: int, horizon: float,
              burn: float, meta: dict) -> MultivariateEventStream:
    arrays = []
    for times in times_per_comp:
        t = np.asarray(times, dtype=float)
        t = t[t >= burn] - burn
        arrays.append(t[t <= horizon])
    session = Session("sim-seed-%d" % meta.get("seed", 0), horizon,
                      tuple(arrays), meta)
    return MultivariateEventStream(dimension, (session,))


def _thin(model: HawkesModel, total_time: float,
          rng: _BlockRng) -> tuple[list[list[float]], int, int]:
    """Thinning on ``[0, total_time]``: event times per component, the
    number of candidates and the number of candidates with clipping."""
    d = model.dimension
    jumps, betas, targets = [], [], []
    src_terms = [[] for _ in range(d)]  # exponential terms each source feeds
    src_windowed = [[] for _ in range(d)]
    for i, row in enumerate(model.kernels):
        for j, kernel in enumerate(row):
            if not isinstance(kernel, SumOfExponentialsKernel):
                src_windowed[j].append((i, kernel))
                continue
            for alpha, beta in kernel.terms:
                if alpha != 0.0:
                    src_terms[j].append(len(jumps))
                    jumps.append(alpha * beta)
                    betas.append(beta)
                    targets.append(i)
    history = [_History(ks) if ks else None for ks in src_windowed]
    histories = [h for h in history if h is not None]
    # A term keeps the sign of its jump, so the positive states are those of
    # the excitatory terms; an event of source j raises their sum by rises[j].
    rises = [sum(jumps[k] for k in ks if jumps[k] > 0.0) for ks in src_terms]

    mu = model.baseline.tolist()
    mu_sum = float(model.baseline.sum())
    exp = math.exp
    gap, uniform = rng.exponential, rng.uniform
    times: list[list[float]] = [[] for _ in range(d)]
    state = [0.0] * len(jumps)
    excess = 0.0  # sum of the positive states, which bounds their future
    t = 0.0
    candidates = 0
    clipped = 0
    while True:
        bound = mu_sum + excess
        for h in histories:
            lags = h.lags(t)
            if len(lags):
                for _, kernel in h.kernels:
                    bound += float(np.sum(kernel.upper_bound_from_vec(lags)))
        if bound <= 0.0:
            break
        t_new = t + gap() / bound
        if t_new > total_time:
            break
        dt = t_new - t
        t = t_new
        candidates += 1
        lam = mu.copy()
        excess = 0.0
        for k, b in enumerate(betas):
            s = state[k] * exp(-b * dt)
            state[k] = s
            lam[targets[k]] += s
            if s > 0.0:
                excess += s
        for h in histories:
            lags = h.lags(t)
            if len(lags):
                for i, kernel in h.kernels:
                    lam[i] += float(np.sum(kernel.value(lags)))
        if min(lam) < 0.0:
            clipped += 1
            lam = [v if v > 0.0 else 0.0 for v in lam]
        u = uniform() * bound
        cumulative = 0.0
        for comp, v in enumerate(lam):
            cumulative += v
            if u < cumulative:
                times[comp].append(t)
                for k in src_terms[comp]:
                    state[k] += jumps[k]
                excess += rises[comp]
                if history[comp] is not None:
                    history[comp].push(t)
                break
    return times, candidates, clipped


def simulate(model: HawkesModel, horizon: float, seed: int) -> MultivariateEventStream:
    """Simulate one session of length ``horizon`` seconds.

    Works for every flavor; a factorized model runs as its derived kernel
    matrix.  Deterministic given ``(model, horizon, seed)``.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    radius = model.branching_radius()
    if radius >= 1.0:
        raise StabilityError(f"unstable model: branching radius {radius:.4f} >= 1")

    burn = _burn_in(model.baseline)
    times, candidates, clipped = _thin(model, horizon + burn, _BlockRng(seed))
    meta = {
        "seed": seed,
        "horizon": horizon,
        "burn_in": burn,
        "model_hash": model.content_hash(),
        "flavor": model.flavor.value,
        "rng": "philox",
        "candidates": candidates,
        "clipping_frequency": clipped / candidates if candidates else 0.0,
    }
    return _finalize(times, model.dimension, horizon, burn, meta)
