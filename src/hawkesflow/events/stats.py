"""Descriptive statistics of order-flow streams: inter-event durations,
signed volume distribution, trade-time autocorrelations, mean intensities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grids import LinLogGrid, build_linlog_grid
from .types import (SIDE_CODE, TYPE_CODE, EventTable, EventType,
                    MultivariateEventStream, Side)

__all__ = ["FlowStatistics", "flow_statistics"]

_MAX_LAG = 50  # longest lag of the trade-time autocorrelations


@dataclass(frozen=True)
class FlowStatistics:
    """Descriptive statistics of an event stream.

    Duration histograms are raw bin counts on ``duration_edges``; volume
    histogram maps signed volume (buy positive, sell negative) to count;
    autocorrelations are in trade time, index = lag.
    """

    mean_intensity: np.ndarray
    event_counts: np.ndarray             # per component
    duration_edges: np.ndarray
    duration_counts: np.ndarray          # (D, n_bins)
    pooled_duration_counts: np.ndarray   # (n_bins,)
    n_durations: np.ndarray              # per component
    volume_histogram: dict[int, int] | None = None
    sign_autocorr: np.ndarray | None = None
    volume_autocorr: np.ndarray | None = None


def _duration_histogram(durations: np.ndarray, grid: LinLogGrid) -> np.ndarray:
    """Counts per grid bin; durations beyond the grid land in the last bin
    so that histogram mass always equals the number of durations."""
    idx = grid.bin_index(np.minimum(durations, grid.edges[-1]))
    return np.bincount(np.clip(idx, 0, grid.n_bins - 1), minlength=grid.n_bins)


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

    per_comp = [np.concatenate([np.diff(s.times[i]) for s in stream.sessions])
                for i in range(stream.dimension)]
    # the empty array keeps concatenate defined for D = 0
    pooled = np.concatenate([np.diff(np.sort(np.concatenate((*s.times, np.empty(0)))))
                             for s in stream.sessions])

    longest = max((float(d.max()) for d in per_comp + [pooled] if len(d)),
                  default=1.0)
    duration_grid = build_linlog_grid(
        h_min=1e-3, h_max=max(1.0, longest * (1 + 1e-9)), n_lin=50, n_log=300)

    histograms = [_duration_histogram(d, duration_grid) for d in per_comp]
    duration_counts = np.array(histograms, np.int64).reshape(-1, duration_grid.n_bins)
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
