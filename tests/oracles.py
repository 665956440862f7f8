"""Independent numerical oracles used to freeze expected test values.

These deliberately avoid the package's estimation and solving code paths:
the conditional law of a known kernel matrix is obtained by forward
fixed-point iteration of the defining integral equation on a fine uniform
grid with FFT convolutions, and small dense solves are written out
longhand where a test needs a second opinion on the Nystrom system.  The
former per-pair lag lookups ``value_at_lag`` and ``stderr_at_lag``, the
solver's former block-by-block assembly built on them and its LU path
through ``scipy.linalg`` serve as references for the one vectorized law
lookup and the numpy-only solve.  The simulator's former
exponential-state and windowed-history thinning loops serve as references
for its single loop, the former microsecond collision loop for its
cumulative-maximum form, and compensator increments give the
time-rescaling check of simulated streams.  The former row-by-row CSV
writers of laws, kernels and reports are the byte-level reference for the
column-formatted table writer.  The former per-event CSV parser, with its
row objects, is the reference for the error messages and line numbers of
the table parser, and the former tie-nudging loop for its running-maximum
form.  The former
lin-log grid builder, which also took explicit steps, is the bit-level
reference for the builder that derives them from the four sizes, and the
former searchsorted bin lookup for the grid's formula-based one; the lag
lookups here use it, so they do not lean on the lookup they check.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np
import scipy.linalg as sla
from scipy.signal import fftconvolve

from hawkesflow.errors import ParseError
from hawkesflow.estimate import ConditionalLawMatrix, LinLogGrid
from hawkesflow.events import EventType, FlowStatistics, Side
from hawkesflow.events.types import _FULL_BOOK_TYPE_ORDER, _SIDE_ORDER
from hawkesflow.simulate import (
    HawkesModel,
    ModelFlavor,
    PowerLawKernel,
    SumOfExponentialsKernel,
)
from hawkesflow.whsolve import KernelEstimate
from hawkesflow.simulate.thinning import KERNEL_TRUNCATION_EPS


def fixed_point_claw(phi_funcs, lam, t_max: float, dt: float,
                     tol: float = 1e-12, max_iter: int = 500):
    """Conditional laws from kernels by iterating, on t > 0,

        g[i,j](t) = phi[i,j](t) + sum_k int phi[i,k](s) g[k,j](t - s) ds

    which is the form the true second-order statistics satisfy (the true
    law of a one-directional 2D model has g[1,1] = 0, which pins the
    convolution order down).  Negative arguments of g use the stationary
    time-reversal identity.  ``phi_funcs[i][j]`` maps a lag array to kernel
    values; ``lam`` is the vector of stationary rates.  Returns (t, g) with
    g of shape (D, D, n).
    """
    d = len(lam)
    n = int(round(t_max / dt)) + 1
    t = np.arange(n) * dt
    phi = np.array([[np.asarray(phi_funcs[i][j](t), dtype=float)
                     for j in range(d)] for i in range(d)])
    g = phi.copy()
    lam = np.asarray(lam, dtype=float)
    for _ in range(max_iter):
        g_new = phi.copy()
        for i in range(d):
            for j in range(d):
                acc = np.zeros(n)
                for k in range(d):
                    # extend g^{kj} to negative lags by time reversal:
                    # g^{kj}(-u) = (lam_k / lam_j) g^{jk}(u)
                    neg = (lam[k] / lam[j]) * g[j, k][1:][::-1]
                    ext = np.concatenate([neg, g[k, j]])
                    full = fftconvolve(phi[i, k], ext) * dt
                    acc += full[n - 1:2 * n - 1]
                g_new[i, j] += acc
        delta = np.max(np.abs(g_new - g))
        g = g_new
        if delta < tol * max(1.0, np.abs(g).max()):
            break
    return t, g


def bin_average(t: np.ndarray, y: np.ndarray, left: float, right: float,
                k: int = 16) -> float:
    """Average of a densely sampled function over (left, right], by midpoint
    sampling of the linear interpolant (bins may be narrower than the
    sample spacing)."""
    xs = left + (right - left) * (np.arange(k) + 0.5) / k
    return float(np.mean(np.interp(xs, t, y, left=0.0, right=0.0)))


def claw_matrix_from_samples(grid, t: np.ndarray, g: np.ndarray, lam):
    """Package sampled laws into a ConditionalLawMatrix on ``grid``."""
    from hawkesflow.estimate import ConditionalLawMatrix, LinLogGrid

    d = len(lam)
    b = grid.n_bins
    values = np.zeros((d, d, b))
    for i in range(d):
        for j in range(d):
            for k in range(b):
                values[i, j, k] = bin_average(t, g[i, j], grid.edges[k],
                                              grid.edges[k + 1])
    big = np.full((d, d, b), 10 ** 12, dtype=np.int64)
    adm = np.full((d, b), 10 ** 12, dtype=np.int64)
    return ConditionalLawMatrix(grid, values, np.zeros((d, d, b)), big, adm,
                                np.asarray(lam, dtype=float), total_time=1.0,
                                meta={"synthetic": True})


def direct_negative_lag_counts(t_i: np.ndarray, t_j: np.ndarray,
                               duration: float, edges: np.ndarray):
    """Brute-force negative-lag pair counting: for each j-event s, count
    i-events in [s - b, s - a) per bin (a, b], over j-events with the full
    backward window inside the session.  Returns (counts, admissible)."""
    n_bins = len(edges) - 1
    counts = np.zeros(n_bins, dtype=np.int64)
    adm = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        a_edge, b_edge = edges[b], edges[b + 1]
        for s in t_j:
            if s - b_edge < 0:
                continue
            adm[b] += 1
            counts[b] += int(np.sum((t_i >= s - b_edge) & (t_i < s - a_edge)))
    return counts, adm


def session_pair_counts(t_i: np.ndarray, t_j: np.ndarray, duration: float,
                        edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts per bin and admissible j-event counts for one session.

    The estimator's former counter, kept as the reference: one sorted-array
    search over the j-events per bin edge and component pair."""
    n_bins = len(edges) - 1
    pairs = np.zeros(n_bins, dtype=np.int64)
    adm = np.searchsorted(t_j, duration - edges[1:], side="right").astype(np.int64)
    if len(t_j) == 0 or len(t_i) == 0:
        return pairs, adm
    # S_m(n): over the first n j-events, total count of i-events at or below
    # s + edge_m.  pairs[b] = S_{b+1}(adm[b]) - S_b(adm[b]); one search pass
    # per edge serves as the right side of bin b and the left side of b+1.
    counts = np.searchsorted(t_i, t_j + edges[0], side="right")
    left_sum = int(counts[: adm[0]].sum()) if adm[0] > 0 else 0
    for b in range(n_bins):
        counts = np.searchsorted(t_i, t_j + edges[b + 1], side="right")
        n_b = int(adm[b])
        right_sum = int(counts[:n_b].sum()) if n_b > 0 else 0
        pairs[b] = right_sum - left_sum
        if b + 1 < n_bins:
            n_next = int(adm[b + 1])  # n_next <= n_b: windows shrink
            left_sum = right_sum - int(counts[n_next:n_b].sum())
    return pairs, adm


def normalized_law(stream, grid, lam: np.ndarray,
                   weighting: str) -> tuple[np.ndarray, np.ndarray]:
    """Conditional-law values and standard errors by the estimator's former
    per-(i, j) loops over the :func:`session_pair_counts` of each session."""
    d, n_bins, widths = stream.dimension, grid.n_bins, grid.widths
    per_session = []
    for sess in stream.sessions:
        pairs = np.zeros((d, d, n_bins), dtype=np.int64)
        adm = np.zeros((d, n_bins), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                pairs[i, j], adm[j] = session_pair_counts(
                    sess.times[i], sess.times[j], sess.duration, grid.edges)
        per_session.append((pairs, adm))
    pair_tot = sum(pairs for pairs, _ in per_session)
    adm_tot = sum(adm for _, adm in per_session)
    values = np.zeros((d, d, n_bins))
    stderr = np.zeros((d, d, n_bins))
    if weighting == "events":
        for i in range(d):
            for j in range(d):
                ok = adm_tot[j] > 0
                denom = widths[ok] * adm_tot[j][ok]
                values[i, j, ok] = pair_tot[i, j][ok] / denom - lam[i]
                stderr[i, j, ok] = np.sqrt(pair_tot[i, j][ok]) / denom
        return values, stderr
    for i in range(d):
        for j in range(d):
            acc = np.zeros(n_bins)
            var = np.zeros(n_bins)
            n_ok = np.zeros(n_bins, dtype=np.int64)
            for sess_pairs, sess_adm in per_session:
                pairs, adm = sess_pairs[i, j], sess_adm[j]
                ok = adm > 0
                denom = widths[ok] * adm[ok]
                acc[ok] += pairs[ok] / denom
                var[ok] += pairs[ok] / denom ** 2
                n_ok[ok] += 1
            ok = n_ok > 0
            values[i, j, ok] = acc[ok] / n_ok[ok] - lam[i]
            stderr[i, j, ok] = np.sqrt(var[ok]) / n_ok[ok]
    return values, stderr


def brute_force_pair_counts(t_i: np.ndarray, t_j: np.ndarray, duration: float,
                            edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """O(N_i * N_j) pair counting by the definition: pair (s in j, t in i)
    falls in bin b when s + e_b < t <= s + e_{b+1}, and counts when the
    j-event's window fits in the session, s <= duration - e_{b+1}."""
    n_bins = len(edges) - 1
    pairs = np.zeros(n_bins, dtype=np.int64)
    adm = np.zeros(n_bins, dtype=np.int64)
    for s in t_j:
        ok = s <= duration - edges[1:]
        inside = (t_i > s + edges[:-1, None]) & (t_i <= s + edges[1:, None])
        adm += ok
        pairs += ok * inside.sum(axis=1)
    return pairs, adm


def searchsorted_bin_index(grid, lags) -> np.ndarray:
    """Bin index of each lag in ``(0, h_max]``, -1 elsewhere: the former
    ``LinLogGrid.bin_index``, one binary search over the edges, except that
    NaN now reads -1 (it read ``n_bins``)."""
    lags = np.asarray(lags, dtype=float)
    # searchsorted with side='left' maps lag in (edges[b], edges[b+1]]
    # to b+1, hence the -1.
    idx = np.searchsorted(grid.edges, lags, side="left") - 1
    inside = (lags > 0) & (lags <= grid.edges[-1])
    return np.where(inside, idx, -1)


def _bin_values(claw, i: int, j: int, lags: np.ndarray,
                arr: np.ndarray) -> np.ndarray:
    idx = searchsorted_bin_index(claw.grid, lags)
    ok = idx >= 0
    out = np.zeros(lags.shape)
    out[ok] = arr[i, j][idx[ok]]
    return out


def value_at_lag(claw, i: int, j: int, lags, zero: str = "average") -> np.ndarray:
    """Piecewise-constant lookup of the (i <- j) law at signed lags.

    Negative lags use the time-reversal identity.  At exactly zero,
    ``zero="average"`` blends the two one-sided first bins (suited to a
    quadrature point sitting on the jump) while ``zero="right"`` returns
    the right limit.  The former ``ConditionalLawMatrix.value_at_lag``,
    except that a law with an event-free source or target now reads zero at
    every lag.
    """
    lags = np.asarray(lags, dtype=float)
    out = np.zeros(lags.shape)
    # a law that conditions on, or counts, an event-free component is
    # identically zero, whatever the table holds
    if claw.lam[j] == 0 or claw.lam[i] == 0:
        return out
    pos = lags > 0
    neg = lags < 0
    zer = ~pos & ~neg
    out[pos] = _bin_values(claw, i, j, lags[pos], claw.values)
    if neg.any():
        ratio = claw.lam[i] / claw.lam[j]
        out[neg] = ratio * _bin_values(claw, j, i, -lags[neg], claw.values)
    if zer.any():
        right = claw.values[i, j, 0]
        if zero == "right":
            out[zer] = right
        else:
            left = claw.lam[i] / claw.lam[j] * claw.values[j, i, 0]
            out[zer] = 0.5 * (right + left)
    return out


def stderr_at_lag(claw, i: int, j: int, lags) -> np.ndarray:
    """First-order standard error matching ``value_at_lag`` lookups.  The
    former ``ConditionalLawMatrix.stderr_at_lag``."""
    lags = np.asarray(lags, dtype=float)
    out = np.zeros(lags.shape)
    if claw.lam[j] == 0 or claw.lam[i] == 0:
        return out
    pos = lags > 0
    neg = lags < 0
    zer = ~pos & ~neg
    out[pos] = _bin_values(claw, i, j, lags[pos], claw.stderr)
    if neg.any():
        ratio = claw.lam[i] / claw.lam[j]
        out[neg] = ratio * _bin_values(claw, j, i, -lags[neg], claw.stderr)
    if zer.any():
        out[zer] = claw.stderr[i, j, 0]
    return out


def lag_tables(claw, stderr: bool = False):
    """For each source j in turn, the ``(D, 2 n_bins + 2)`` table, row k
    for the (k <- j) law, whose rows ``lag_index`` indexes.  The former
    ``ConditionalLawMatrix.lag_tables``, one source at a time."""
    table = claw.stderr if stderr else claw.values
    d, n = claw.dimension, claw.grid.n_bins
    event_free = claw.lam <= 0
    for j in range(d):
        cols = np.zeros((d, 2 * n + 2))
        if not event_free[j]:
            ratio = claw.lam / claw.lam[j]
            cols[:, :n] = table[:, j]
            cols[:, n:2 * n] = ratio[:, None] * table[j]
            cols[:, 2 * n + 1] = 0.5 * (table[:, j, 0] + ratio * table[j, :, 0])
            cols[event_free] = 0.0
        yield cols


def assemble_system(claw, quad) -> tuple[np.ndarray, np.ndarray]:
    """The Nystrom system as the solver formerly built it: one
    ``value_at_lag`` lookup per block, A[(j,q),(k,m)] = delta +
    w_m g[k,j](x_q - x_m) and b[(j,q), i] = g[i,j](x_q) (right limit at 0)."""
    d = claw.dimension
    q = quad.n_nodes
    nodes = quad.nodes
    lag = nodes[:, None] - nodes[None, :]
    a = np.zeros((d * q, d * q))
    eye = np.eye(q)
    for j in range(d):
        for k in range(d):
            block = quad.weights[None, :] * value_at_lag(claw, k, j, lag)
            if j == k:
                block = block + eye
            a[j * q:(j + 1) * q, k * q:(k + 1) * q] = block
    b = np.zeros((d * q, d))
    for i in range(d):
        for j in range(d):
            b[j * q:(j + 1) * q, i] = value_at_lag(claw, i, j, nodes, zero="right")
    return a, b


def gathered_variance(claw, quad) -> np.ndarray:
    """The solver's former gather of the squared law standard errors at the
    nodes, var_b[(j, q), i]: bin 0 (the right limit) at node 0, a padded
    zero bin past the law's range and zero for an event-free source j or
    target i."""
    d = claw.dimension
    q = quad.n_nodes
    padded = np.concatenate([claw.stderr, np.zeros((d, d, 1))], axis=-1)
    bins = np.where(quad.nodes == 0, 0, searchsorted_bin_index(claw.grid, quad.nodes))
    errs = padded[:, :, bins]
    errs[:, claw.lam == 0] = 0.0
    errs[claw.lam == 0] = 0.0
    return (errs ** 2).transpose(1, 2, 0).reshape(d * q, d)


def lu_reference_solve(claw, quad) -> dict:
    """The solver's former LU path on the reference assembly: ``lu_factor``,
    the ``gecon`` condition estimate, ``lu_solve`` for the kernels and for
    the inverse behind the per-row standard-error propagation.  Returns
    values, norms, stderr (each (D, D, Q)) and the condition estimate."""
    d = claw.dimension
    q = quad.n_nodes
    a, b = assemble_system(claw, quad)
    anorm = np.linalg.norm(a, 1)
    lu, piv = sla.lu_factor(a)
    gecon = sla.get_lapack_funcs("gecon", (a,))
    rcond, _ = gecon(lu, anorm)
    sol = sla.lu_solve((lu, piv), b)
    values = np.empty((d, d, q))
    for i in range(d):
        values[i, :, :] = sol[:, i].reshape(d, q)
    inv_sq = sla.lu_solve((lu, piv), np.eye(d * q)) ** 2
    stderr = np.empty((d, d, q))
    for i in range(d):
        var_b = np.concatenate([
            stderr_at_lag(claw, i, j, quad.nodes) ** 2 for j in range(d)])
        stderr[i, :, :] = np.sqrt(np.maximum(inv_sq @ var_b, 0.0)).reshape(d, q)
    return {"values": values, "norms": values @ quad.weights, "stderr": stderr,
            "condition": np.inf if rcond == 0 else 1.0 / rcond}


class _BlockRng:
    """Counter-based generator with block-cached draws for tight loops."""

    def __init__(self, seed: int, block: int = 1 << 15):
        self.gen = np.random.Generator(np.random.Philox(seed))
        self.block = block
        self._exp = np.empty(0)
        self._uni = np.empty(0)
        self._ei = 0
        self._ui = 0

    def exponential(self) -> float:
        if self._ei >= len(self._exp):
            self._exp = self.gen.standard_exponential(self.block)
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v

    def uniform(self) -> float:
        if self._ui >= len(self._uni):
            self._uni = self.gen.random(self.block)
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return v


def _simulate_exponential(model: HawkesModel, total_time: float,
                          rng: _BlockRng) -> tuple[list[list[float]], int, int]:
    """State-recursion thinning for exponential-family kernel matrices."""
    d = model.dimension
    jumps, betas, tgt, src = [], [], [], []
    for i in range(d):
        for j in range(d):
            for alpha, beta in model.kernels[i][j].terms:
                if alpha == 0.0:
                    continue
                jumps.append(alpha * beta)
                betas.append(beta)
                tgt.append(i)
                src.append(j)
    jumps = np.asarray(jumps)
    betas = np.asarray(betas)
    tgt = np.asarray(tgt, dtype=np.intp)
    src = np.asarray(src, dtype=np.intp)
    src_terms = [np.nonzero(src == j)[0] for j in range(d)]

    mu = model.baseline
    mu_sum = float(mu.sum())
    clip = model.flavor is ModelFlavor.POSITIVE_PART

    times: list[list[float]] = [[] for _ in range(d)]
    state = np.zeros(len(jumps))
    t = 0.0
    candidates = 0
    clipped = 0
    while True:
        bound = mu_sum + float(np.clip(state, 0.0, None).sum())
        if bound <= 0.0:
            break
        t_new = t + rng.exponential() / bound
        if t_new > total_time:
            break
        state *= np.exp(-betas * (t_new - t))
        t = t_new
        candidates += 1
        lam = mu.copy()
        np.add.at(lam, tgt, state)
        if clip:
            if np.any(lam < 0.0):
                clipped += 1
                lam = np.clip(lam, 0.0, None)
        total = float(lam.sum())
        u = rng.uniform() * bound
        if u < total:
            comp = int(np.searchsorted(np.cumsum(lam), u, side="right"))
            comp = min(comp, d - 1)
            times[comp].append(t)
            idx = src_terms[comp]
            state[idx] += jumps[idx]
    return times, candidates, clipped


def _simulate_generic(model: HawkesModel, total_time: float,
                      rng: _BlockRng) -> tuple[list[list[float]], int, int]:
    """Windowed-history thinning for arbitrary kernel matrices."""
    d = model.dimension
    kernels = model.kernels
    support = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            support[i, j] = kernels[i][j].support(KERNEL_TRUNCATION_EPS)
    window = support.max(axis=0)  # per source component

    mu = model.baseline
    clipflavor = model.flavor is ModelFlavor.POSITIVE_PART
    times: list[list[float]] = [[] for _ in range(d)]
    hist: list[list[float]] = [[] for _ in range(d)]
    left = [0] * d

    def contributions(at: float, bounding: bool) -> np.ndarray:
        lam = mu.astype(float).copy()
        for j in range(d):
            while left[j] < len(hist[j]) and at - hist[j][left[j]] > window[j]:
                left[j] += 1
            recent = np.asarray(hist[j][left[j]:])
            if len(recent) == 0:
                continue
            lags = at - recent
            for i in range(d):
                k = kernels[i][j]
                if bounding:
                    lam[i] += float(np.sum(k.upper_bound_from_vec(lags)))
                else:
                    lam[i] += float(np.sum(k.value(lags)))
        return lam

    t = 0.0
    candidates = 0
    clipped = 0
    while True:
        bound = float(np.clip(contributions(t, bounding=True), 0.0, None).sum())
        if bound <= 0.0:
            break
        t_new = t + rng.exponential() / bound
        if t_new > total_time:
            break
        t = t_new
        candidates += 1
        lam = contributions(t, bounding=False)
        if np.any(lam < 0.0):
            clipped += 1
            if clipflavor:
                lam = np.clip(lam, 0.0, None)
        lam = np.clip(lam, 0.0, None)
        total = float(lam.sum())
        u = rng.uniform() * bound
        if u < total:
            comp = int(np.searchsorted(np.cumsum(lam), u, side="right"))
            comp = min(comp, d - 1)
            times[comp].append(t)
            hist[comp].append(t)
    return times, candidates, clipped


def bump_collisions(us: np.ndarray) -> np.ndarray:
    """The former microsecond collision loop of ``cli._events_from_stream``:
    each timestamp of one component is raised to one past its predecessor
    when it does not exceed it."""
    us = us.copy()
    for k in range(1, len(us)):
        if us[k] <= us[k - 1]:
            us[k] = us[k - 1] + 1
    return us


def compensator_increments(model: HawkesModel, stream,
                           n_nodes: int = 32) -> np.ndarray:
    """Compensator increments between consecutive events of each component
    of a one-session stream, pooled over components.

    By the time-rescaling theorem they are iid Exp(1) when the stream
    follows ``model``.  The compensator integrates the intensity built from
    the session's own events: history before the session start is unknown.
    Exponential terms integrate in closed form, S (1 - exp(-beta h)) / beta
    over a gap h from the state S carried by the O(N) recursion.  A
    power-law kernel adds its primitive c / (gamma - 1) * (t0^(1 - gamma) -
    (lag + t0)^(1 - gamma)) for each source event within its support and
    its full norm for older ones.  Positive-part models (exponential
    kernels only) integrate the clipped intensity on each gap by
    ``n_nodes``-point Gauss-Legendre quadrature.
    """
    sess = stream.sessions[0]
    d = model.dimension
    t = np.concatenate(sess.times)
    comp = np.concatenate([np.full(len(x), i) for i, x in enumerate(sess.times)])
    order = np.argsort(t, kind="stable")
    t, comp = t[order], comp[order]
    gaps = np.diff(t, prepend=0.0)
    clip = model.flavor is ModelFlavor.POSITIVE_PART

    terms, power_laws = [], []
    for i, row in enumerate(model.kernels):
        for j, kernel in enumerate(row):
            if isinstance(kernel, SumOfExponentialsKernel):
                terms += [(a, b, i, j) for a, b in kernel.terms if a != 0.0]
            elif isinstance(kernel, PowerLawKernel) and not clip:
                power_laws.append((kernel, i, j))
            else:
                raise ValueError(f"no compensator for {kernel!r} in a "
                                 f"{model.flavor.value} model")
    # starts[q, k]: term q's state at the start of gap k, just after event k-1
    starts = np.zeros((len(terms), len(t)))
    for q, (a, b, _, j) in enumerate(terms):
        s = 0.0
        for k in range(len(t)):
            starts[q, k] = s
            s = s * math.exp(-b * gaps[k]) + (a * b if comp[k] == j else 0.0)

    increments = np.empty((d, len(t)))  # compensator of each component per gap
    if clip:
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        tau = gaps[:, None] * (x + 1.0) / 2.0
        for i in range(d):
            lam = np.full(tau.shape, float(model.baseline[i]))
            for q, (_, b, target, _) in enumerate(terms):
                if target == i:
                    lam += starts[q][:, None] * np.exp(-b * tau)
            increments[i] = np.maximum(lam, 0.0) @ w * gaps / 2.0
    else:
        for i in range(d):
            increments[i] = model.baseline[i] * gaps
            for q, (_, b, target, _) in enumerate(terms):
                if target == i:
                    increments[i] += starts[q] * -np.expm1(-b * gaps) / b
    compensator = np.cumsum(increments, axis=1)
    for kernel, i, j in power_laws:
        compensator[i] += _power_law_compensator(kernel, sess.times[j], t)

    return np.concatenate([np.diff(compensator[i][comp == i], prepend=0.0)
                           for i in range(d)])


def _power_law_compensator(kernel: PowerLawKernel, sources: np.ndarray,
                           at: np.ndarray, chunk: int = 1 << 20) -> np.ndarray:
    """Sum over source events s < at of the kernel's primitive at at - s,
    with events older than the kernel's support counted at the full norm."""
    c, g, t0 = kernel.c, kernel.gamma, kernel.t0
    window = kernel.support(KERNEL_TRUNCATION_EPS)
    lo = np.searchsorted(sources, at - window, side="left")
    hi = np.searchsorted(sources, at, side="left")
    out = kernel.norm() * lo.astype(float)
    start = 0
    while start < len(at):
        # take queries until their windows hold about ``chunk`` events
        stop = int(np.searchsorted(np.cumsum(hi[start:] - lo[start:]), chunk)) + start + 1
        stop = min(stop, len(at))
        counts = hi[start:stop] - lo[start:stop]
        query = np.repeat(np.arange(start, stop), counts)
        first = np.repeat(lo[start:stop] - np.cumsum(counts) + counts, counts)
        src = first + np.arange(len(query))
        lag = at[query] - sources[src]
        prim = c / (g - 1.0) * (t0 ** (1.0 - g) - (lag + t0) ** (1.0 - g))
        out[start:stop] += np.bincount(query - start, prim, stop - start)
        start = stop
    return out


# The package's CSV writers as they were before they wrote a column at a
# time; the table writer must reproduce their files byte for byte.

def save_claw(claw: ConditionalLawMatrix, out_dir) -> list[Path]:
    """One CSV per ordered pair plus a manifest with rates and grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    d = claw.dimension
    edges = claw.grid.edges
    for i in range(d):
        for j in range(d):
            path = out_dir / f"claw_{i}_{j}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["bin_left", "bin_right", "value", "stderr", "pairs"])
                for b in range(claw.grid.n_bins):
                    w.writerow([repr(float(edges[b])), repr(float(edges[b + 1])),
                                repr(float(claw.values[i, j, b])),
                                repr(float(claw.stderr[i, j, b])),
                                int(claw.pair_counts[i, j, b])])
            written.append(path)
    manifest = {
        "dimension": d,
        "mean_intensity": [float(v) for v in claw.lam],
        "total_time": claw.total_time,
        "grid": claw.grid.to_dict(),
        "meta": claw.meta,
        "admissible": claw.admissible.tolist(),
    }
    mpath = out_dir / "claw_manifest.json"
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    written.append(mpath)
    return written


def save_kernel_estimate(est: KernelEstimate, out_dir,
                         labels: list[str] | None = None) -> list[Path]:
    """Write per-pair kernel CSVs, norm matrices, baseline table and a
    JSON manifest with grid parameters and solver diagnostics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = est.dimension
    labels = labels or [str(i) for i in range(d)]
    if len(labels) != d:
        raise ValueError(f"{len(labels)} labels for dimension {d}")
    written = []
    for i in range(d):
        for j in range(d):
            path = out_dir / f"kernel_{i}_{j}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["node", "weight", "phi_value"])
                for m in range(est.quad.n_nodes):
                    w.writerow([repr(float(est.quad.nodes[m])),
                                repr(float(est.quad.weights[m])),
                                repr(float(est.values[i, j, m]))])
            written.append(path)
    for name, matrix in (("norms.csv", est.norms),
                         ("rescaled_norms.csv", est.rescaled)):
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([""] + labels)
            for i in range(d):
                w.writerow([labels[i]] + [repr(float(v)) for v in matrix[i]])
        written.append(path)
    path = out_dir / "baseline.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["component", "baseline", "mean_intensity", "exogeneity_pct"])
        for i in range(d):
            w.writerow([labels[i], repr(float(est.baseline[i])),
                        repr(float(est.lam[i])),
                        repr(float(est.exogeneity_pct[i]))])
    written.append(path)
    manifest = {
        "dimension": d,
        "labels": labels,
        "quadrature": est.quad.to_dict(),
        "residual": est.residual,
        "condition_estimate": est.condition_estimate,
        "meta": est.meta,
    }
    mpath = out_dir / "kernel_manifest.json"
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    written.append(mpath)
    return written


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix_csv(path: Path, matrix: np.ndarray, row_labels: list[str],
                  col_labels: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([""] + list(col_labels))
        for label, row in zip(row_labels, matrix):
            w.writerow([label] + [_fmt(v) for v in row])


def emit_kernel_curves(est: KernelEstimate, selection: list[tuple[int, int]],
                       out_dir, labels: list[str] | None = None) -> list[Path]:
    """Per-pair kernel curves ``node, phi, stderr`` for log-axis plotting."""
    d = est.dimension
    labels = labels or [str(i) for i in range(d)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, j in selection:
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"kernel index ({i}, {j}) outside dimension {d}")
        path = out_dir / f"kernel_curve_{labels[i]}_from_{labels[j]}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["node", "phi", "stderr"])
            for m in range(est.quad.n_nodes):
                sd = est.stderr[i, j, m] if est.stderr is not None else 0.0
                w.writerow([_fmt(est.quad.nodes[m]),
                            _fmt(est.values[i, j, m]), _fmt(sd)])
        written.append(path)
    return written


def emit_claw_curves(claw: ConditionalLawMatrix,
                     selection: list[tuple[int, int]], out_dir,
                     labels: list[str] | None = None) -> list[Path]:
    """Per-pair conditional-law curves with error bars and pair counts."""
    d = claw.dimension
    labels = labels or [str(i) for i in range(d)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    edges = claw.grid.edges
    for i, j in selection:
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"law index ({i}, {j}) outside dimension {d}")
        path = out_dir / f"claw_curve_{labels[i]}_from_{labels[j]}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["bin_left", "bin_right", "value", "stderr", "pairs"])
            for b in range(claw.grid.n_bins):
                w.writerow([_fmt(edges[b]), _fmt(edges[b + 1]),
                            _fmt(claw.values[i, j, b]),
                            _fmt(claw.stderr[i, j, b]),
                            int(claw.pair_counts[i, j, b])])
        written.append(path)
    return written


def emit_flow_report(stats: FlowStatistics, out_dir,
                     labels: list[str] | None = None) -> list[Path]:
    """Duration histograms, signed volume histogram, autocorrelations and a
    per-component count summary with percentage fractions."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = len(stats.mean_intensity)
    labels = labels or [str(i) for i in range(d)]
    written = []

    path = out_dir / "duration_histogram.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_left", "bin_right", "pooled"] + list(labels))
        for b in range(len(stats.duration_edges) - 1):
            row = [_fmt(stats.duration_edges[b]), _fmt(stats.duration_edges[b + 1]),
                   int(stats.pooled_duration_counts[b])]
            row += [int(stats.duration_counts[i, b]) for i in range(d)]
            w.writerow(row)
    written.append(path)

    # Table-style summary: events per component and their share of the total.
    total = int(stats.event_counts.sum())
    path = out_dir / "component_summary.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["component", "events", "fraction_pct", "mean_intensity"])
        for i in range(d):
            frac = 100.0 * stats.event_counts[i] / total if total else 0.0
            w.writerow([labels[i], int(stats.event_counts[i]), _fmt(frac),
                        _fmt(stats.mean_intensity[i])])
    written.append(path)

    if stats.volume_histogram is not None:
        path = out_dir / "volume_histogram.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["signed_volume", "count"])
            for vol, count in stats.volume_histogram.items():
                w.writerow([vol, count])
        written.append(path)

    if stats.sign_autocorr is not None:
        path = out_dir / "trade_autocorrelation.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["lag", "sign_autocorr", "volume_autocorr"])
            for k in range(len(stats.sign_autocorr)):
                w.writerow([k, _fmt(stats.sign_autocorr[k]),
                            _fmt(stats.volume_autocorr[k])])
        written.append(path)
    return written


def strictly_increasing(t: np.ndarray) -> np.ndarray:
    """The former tie-nudging loop of ``events.stream._strictly_increasing``."""
    for k in range(1, len(t)):
        if t[k] <= t[k - 1]:
            t[k] = np.nextafter(t[k - 1], np.inf)
    return t


def cap_strict(t: np.ndarray, cap: float) -> np.ndarray:
    """The former cap loop of ``events.stream._cap_strict``, verbatim: it
    ran after the tie nudge on every re-timed stream."""
    if len(t) == 0 or t[-1] <= cap:
        return t
    t[-1] = cap
    for k in range(len(t) - 2, -1, -1):
        if t[k] >= t[k + 1]:
            t[k] = np.nextafter(t[k + 1], -np.inf)
        else:
            break
    return t


def event_rows(table) -> list[tuple]:
    """An event table as ``(timestamp_us, etype, side, volume, price)``
    rows, with enum members and None for an absent price: the fields of
    the former per-event objects."""
    return [(ts, _FULL_BOOK_TYPE_ORDER[e], _SIDE_ORDER[s], v, p if has else None)
            for ts, e, s, v, p, has in zip(
                table.ts_us.tolist(), table.etype.tolist(), table.side.tolist(),
                table.volume.tolist(), table.price.tolist(), table.has_price.tolist())]


# The former event CSV parser and simultaneous-event aggregation, verbatim
# with their helpers and row type.

@dataclass(frozen=True)
class OrderEvent:
    """A typed first-level order-book event."""

    timestamp_us: int
    etype: EventType
    side: Side
    volume: int
    price: int | None = None

    def __post_init__(self):
        if self.volume < 1:
            raise ValueError("nonpositive volume")


def _open_text(source) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    return source


def _int_field(row: dict, key: str, line_no: int, required: bool = True) -> int | None:
    raw = (row.get(key) or "").strip()
    if not raw:
        if required:
            raise ParseError(f"missing field '{key}'", line_no)
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"field '{key}' is not an integer: {raw!r}", line_no)


EVENT_HEADER = ["timestamp_us", "etype", "side", "volume", "price"]


def _check_header(header: list[str] | None, expected: list[str], optional_tail: int = 0):
    if header is None:
        return  # empty file
    got = [h.strip() for h in header]
    for n_opt in range(optional_tail + 1):
        if got == expected[: len(expected) - n_opt]:
            return
    raise ParseError(f"unexpected header {got!r}, expected {expected!r}", 1)


def read_event_csv(source) -> list[OrderEvent]:
    """Parse an event CSV into OrderEvents, enforcing timestamp order."""
    fh = _open_text(source)
    close = isinstance(source, (str, Path, bytes, bytearray))
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, EVENT_HEADER, optional_tail=1)
        events: list[OrderEvent] = []
        prev_ts = None
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) not in (4, 5):
                raise ParseError(f"expected 4 or 5 fields, got {len(parts)}", line_no)
            row = dict(zip(EVENT_HEADER, parts))
            ts = _int_field(row, "timestamp_us", line_no)
            if ts < 0:
                raise ParseError("negative timestamp", line_no)
            if prev_ts is not None and ts < prev_ts:
                raise ParseError(
                    f"decreasing timestamp {ts} after {prev_ts}", line_no)
            prev_ts = ts
            try:
                etype = EventType(row["etype"].strip())
                side = Side(row["side"].strip())
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            volume = _int_field(row, "volume", line_no)
            if volume < 1:
                raise ParseError("nonpositive volume", line_no)
            price = _int_field(row, "price", line_no, required=False)
            events.append(OrderEvent(ts, etype, side, volume, price))
        return events
    finally:
        if close:
            fh.close()


# The former lin-log grid builder, verbatim but for its name and its
# defaults written out: it took explicit steps, checked them and bridged a
# gap below the breakpoint.

def build_linlog_grid_with_steps(delta_lin: float | None = None,
                                 h_min: float = 1e-3,
                                 delta_log: float | None = None,
                                 h_max: float = 2e4,
                                 n_lin: int = 50,
                                 n_log: int = 1500) -> LinLogGrid:
    if h_min <= 0 or h_max <= h_min:
        raise ValueError(f"need 0 < h_min < h_max, got {h_min}, {h_max}")
    if n_lin < 1 or n_log < 1:
        raise ValueError("bin counts must be at least 1")
    if delta_lin is None:
        delta_lin = h_min / n_lin
    if delta_log is None:
        delta_log = math.log(h_max / h_min) / n_log
    if delta_lin <= 0:
        raise ValueError("linear step must be positive")
    if not (n_lin * delta_lin <= h_min * (1 + 1e-12)):
        raise ValueError(
            f"linear part overruns the breakpoint: "
            f"{n_lin} * {delta_lin} > {h_min}")
    if delta_log <= 0:
        raise ValueError("log step must be positive")
    lin = np.arange(n_lin + 1, dtype=float) * delta_lin
    # Snap the end of the linear ramp onto the breakpoint when they agree,
    # and bridge with an extra edge when the caller left a gap.
    if math.isclose(lin[-1], h_min, rel_tol=1e-9):
        lin[-1] = h_min
    else:
        lin = np.append(lin, h_min)
    log = h_min * np.exp(delta_log * np.arange(1, n_log + 1))
    if math.isclose(log[-1], h_max, rel_tol=1e-9):
        log[-1] = h_max
    edges = np.concatenate([lin, log])
    if np.any(np.diff(edges) <= 0):
        raise ValueError("grid edges are not strictly increasing")
    return LinLogGrid(delta_lin, h_min, delta_log, h_max, n_lin, n_log, edges)
