"""Descriptive statistics of order-flow streams: inter-event durations,
signed volume distribution, trade-time autocorrelations, mean intensities.
"""

from __future__ import annotations

import numpy as np

from ..grids import LinLogGrid, build_linlog_grid
from .types import (SIDE_CODE, TYPE_CODE, EventTable, EventType, FlowStatistics,
                    MultivariateEventStream, Side)

__all__ = ["flow_statistics"]

_MAX_LAG = 50  # longest lag of the trade-time autocorrelations


def _duration_histogram(durations: np.ndarray, grid: LinLogGrid) -> np.ndarray:
    """Counts per grid bin; durations beyond the grid land in the last bin
    so that histogram mass always equals the number of durations."""
    counts = np.zeros(grid.n_bins, dtype=np.int64)
    if len(durations) == 0:
        return counts
    idx = grid.bin_index(np.minimum(durations, grid.edges[-1]))
    idx = np.clip(idx, 0, grid.n_bins - 1)
    np.add.at(counts, idx, 1)
    return counts


def _autocorr(series: np.ndarray, splits: list[int]) -> np.ndarray:
    """Autocorrelation up to ``_MAX_LAG``; products never straddle the
    session boundaries given in ``splits`` (cumulative lengths)."""
    if len(series) == 0:
        return np.zeros(_MAX_LAG + 1)
    x = series.astype(float) - series.mean()
    denom = float(np.sum(x * x))
    out = np.zeros(_MAX_LAG + 1)
    out[0] = 1.0 if denom > 0 else 0.0
    if denom <= 0:
        return out
    bounds = [0] + list(splits)
    for k in range(1, _MAX_LAG + 1):
        num = 0.0
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = x[a:b]
            if len(seg) > k:
                num += float(np.dot(seg[:-k], seg[k:]))
        out[k] = num / denom
    return out


def flow_statistics(stream: MultivariateEventStream,
                    events_by_session: list[EventTable] | None = None) -> FlowStatistics:
    """Compute the stream's descriptive statistics.

    Duration histograms use a lin-log grid from 1 ms to the longest
    duration (at least 1 s), 50 linear and 300 log bins.
    Volume histogram and trade-time autocorrelations (lags up to 50) need
    the original order events and are filled only when
    ``events_by_session`` is given (one event table per session, trades are
    extracted from it).
    """
    if stream.total_time <= 0 or not stream.sessions:
        raise ValueError("empty stream")

    per_comp = [[] for _ in range(stream.dimension)]
    pooled = []
    for sess in stream.sessions:
        merged = np.sort(np.concatenate([t for t in sess.times])) \
            if any(len(t) for t in sess.times) else np.empty(0)
        if len(merged) > 1:
            pooled.append(np.diff(merged))
        for i, t in enumerate(sess.times):
            if len(t) > 1:
                per_comp[i].append(np.diff(t))
    per_comp = [np.concatenate(d) if d else np.empty(0) for d in per_comp]
    pooled = np.concatenate(pooled) if pooled else np.empty(0)

    longest = max((float(d.max()) for d in per_comp + [pooled] if len(d)),
                  default=1.0)
    duration_grid = build_linlog_grid(
        h_min=1e-3, h_max=max(1.0, longest * (1 + 1e-9)), n_lin=50, n_log=300)

    duration_counts = np.stack([
        _duration_histogram(d, duration_grid) for d in per_comp
    ]) if stream.dimension else np.zeros((0, duration_grid.n_bins), dtype=np.int64)
    pooled_counts = _duration_histogram(pooled, duration_grid)
    n_durations = np.array([len(d) for d in per_comp])

    lam = stream.total_counts / stream.total_time

    volume_histogram = None
    sign_ac = None
    vol_ac = None
    if events_by_session is not None:
        trades = [t.take(t.etype == TYPE_CODE[EventType.TRADE])
                  for t in events_by_session]
        splits = np.cumsum([len(t) for t in trades]).tolist()
        # the empty array keeps concatenate defined for no sessions
        none = [np.zeros(0, dtype=np.int64)]
        buy = np.concatenate([t.side == SIDE_CODE[Side.ASK] for t in trades] + none)
        vols = np.concatenate([t.volume for t in trades] + none)
        keys, counts = np.unique(np.where(buy, vols, -vols), return_counts=True)
        volume_histogram = dict(zip(keys.tolist(), counts.tolist()))
        sign_ac = _autocorr(np.where(buy, 1.0, -1.0), splits)
        vol_ac = _autocorr(vols.astype(float), splits)

    return FlowStatistics(
        mean_intensity=lam,
        event_counts=stream.total_counts,
        duration_edges=duration_grid.edges,
        duration_counts=duration_counts,
        pooled_duration_counts=pooled_counts,
        n_durations=n_durations,
        volume_histogram=volume_histogram,
        sign_autocorr=sign_ac,
        volume_autocorr=vol_ac,
    )
