"""Empirical conditional laws of a multivariate event stream.

For components i, j the conditional law is the excess rate of i-events at
lag t after a j-event, relative to the mean rate of i.  It is estimated by
histogramming ordered pair lags on a lin-log grid: for each j-event s and
bin (a, b], count i-events in (s + a, s + b], divide by the bin width times
the number of j-events whose full window fits inside the session, subtract
the mean intensity.  The pairing of an event with itself never enters: the
first bin is open at lag zero.

Pair counting runs once per session over all components together, merged
into one time-ordered stream.  Bins up to a crossover lag enumerate their
pairs directly: one forward window per event, so the cost follows the
number of pairs that land there.  The remaining, wider bins count pairs as
differences of prefix sums, with one search per event and edge into the
merged stream; their cost follows events times bins, however many pairs
they hold.  The crossover balances the two from the session's event rate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonio import read_json, write_json
from ._tables import float_cells, int_cells, write_table
from .grids import LinLogGrid, build_linlog_grid
from .events.types import MultivariateEventStream, Session

__all__ = [
    "LinLogGrid",
    "build_linlog_grid",
    "ConditionalLawMatrix",
    "estimate_mean_intensity",
    "estimate_conditional_law",
    "save_claw",
    "load_claw",
]


def estimate_mean_intensity(stream: MultivariateEventStream) -> np.ndarray:
    """Events per second per component, pooled over sessions."""
    total = stream.total_time
    if total <= 0:
        raise ValueError("total session time must be positive")
    return stream.total_counts / total


_SAMPLES_PER_BIN = 9  # trapezoid points per bin of a synthetic law


@dataclass(frozen=True)
class ConditionalLawMatrix:
    """Estimated conditional laws on a lin-log grid.

    ``values[i, j, b]`` is the estimate for bin ``b`` of the (i <- j) law in
    1/s; ``pair_counts`` the raw pair counts behind it; ``admissible[j, b]``
    the number of j-events with a full observation window for that bin.
    Bins with no admissible window hold value 0 and are flagged via
    ``has_window``, which distinguishes "no data" from "measured zero".
    """

    grid: LinLogGrid
    values: np.ndarray        # (D, D, B)
    stderr: np.ndarray        # (D, D, B)
    pair_counts: np.ndarray   # (D, D, B) int64
    admissible: np.ndarray    # (D, B) int64
    lam: np.ndarray           # (D,)
    total_time: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.lam)

    @property
    def has_window(self) -> np.ndarray:
        """(D, B) mask per source component: True where data exists."""
        return self.admissible > 0

    def at_lags(self, lags, zero: str = "average", stderr: bool = False):
        """Piecewise-constant lookup of the law at signed lags: for each
        source j in turn, yield the ``(D, *lags.shape)`` array whose row k
        is the (k <- j) law (its standard error with ``stderr=True``).

        Negative lags use the time-reversal identity
        g[k,j](-t) = (lam_k / lam_j) g[j,k](t).  A law whose source or target
        is event-free is identically zero and reads zero at every lag,
        whatever its table holds.
        At exactly zero, ``zero="average"`` blends the two one-sided first
        bins (suited to a quadrature point sitting on the jump) while
        ``zero="right"`` returns the right limit.  Lags past ``h_max`` read
        zero.
        """
        columns = self.lag_columns(lags, zero)
        for table in self.lag_tables(stderr):
            yield np.take(table, columns)

    def lag_columns(self, lags, zero: str = "average") -> np.ndarray:
        """Where ``at_lags`` reads the law at each signed lag: the
        ``(D, *lags.shape)`` flat indices into every table of
        ``lag_tables``, row k for the (k <- j) law.  One index serves every
        source and both tables."""
        if zero not in ("average", "right"):
            raise ValueError(f"unknown lag-zero convention {zero!r}")
        lags = np.asarray(lags, dtype=float)
        n = self.grid.n_bins
        bins = self.grid.bin_index(np.abs(lags))
        idx = np.where(bins < 0, 2 * n, bins + n * (lags < 0))
        # the right limit at zero is the first bin at positive lags
        idx[lags == 0] = 2 * n + 1 if zero == "average" else 0
        rows = np.arange(self.dimension).reshape((-1,) + (1,) * lags.ndim)
        return idx + (2 * n + 2) * rows

    def lag_tables(self, stderr: bool = False):
        """For each source j in turn, yield the ``(D, 2 n_bins + 2)`` table
        that ``lag_columns`` indexes, row k for the (k <- j) law (its
        standard error with ``stderr=True``): columns 0..n-1 are the bins
        at positive lags, n..2n-1 the reflected bins at negative lags, 2n a
        zero for lags past ``h_max`` and 2n+1 the average of both one-sided
        first bins, read at lag zero."""
        table = self.stderr if stderr else self.values
        d, n = self.dimension, self.grid.n_bins
        event_free = self.lam <= 0
        for j in range(d):
            cols = np.zeros((d, 2 * n + 2))
            if not event_free[j]:
                ratio = self.lam / self.lam[j]
                cols[:, :n] = table[:, j]
                cols[:, n:2 * n] = ratio[:, None] * table[j]
                cols[:, 2 * n + 1] = 0.5 * (table[:, j, 0] + ratio * table[j, :, 0])
                cols[event_free] = 0.0
            yield cols

    @classmethod
    def from_function(cls, grid: LinLogGrid, func, lam) -> "ConditionalLawMatrix":
        """Synthetic law from callables ``func[i][j](t)``; bin values are the
        bin averages of the function.  Useful for solver tests and for
        negativity-propagation checks on hand-built laws."""
        lam = np.asarray(lam, dtype=float)
        d = len(lam)
        b = grid.n_bins
        values = np.zeros((d, d, b))
        for i in range(d):
            for j in range(d):
                g = func[i][j]
                for k in range(b):
                    ts = np.linspace(grid.edges[k], grid.edges[k + 1],
                                     _SAMPLES_PER_BIN)
                    vals = np.asarray(g(ts), dtype=float)
                    values[i, j, k] = np.trapezoid(vals, ts) / (
                        grid.edges[k + 1] - grid.edges[k])
        big = np.full((d, d, b), 10 ** 12, dtype=np.int64)
        adm = np.full((d, b), 10 ** 12, dtype=np.int64)
        return cls(grid, values, np.zeros((d, d, b)), big, adm, lam,
                   total_time=1.0, meta={"synthetic": True})


# Pieces of the flat index ranges below are expanded this many elements at
# a time, which bounds the temporaries of long sessions and dense grids.
_CHUNK = 1 << 14


def _chunks(lengths: np.ndarray):
    """Walk index ranges of the given lengths laid end to end, ``_CHUNK``
    elements at a time; yield (range index, offset within the range) of
    every element of the chunk."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    for f0 in range(0, total, _CHUNK):
        f1 = min(f0 + _CHUNK, total)
        p0 = int(np.searchsorted(ends, f0, side="right"))
        p1 = int(np.searchsorted(ends, f1 - 1, side="right")) + 1
        begin = ends[p0:p1] - lengths[p0:p1]
        n = np.minimum(ends[p0:p1], f1) - np.maximum(begin, f0)
        yield (np.repeat(np.arange(p0, p1), n),
               np.arange(f0, f1) - np.repeat(begin, n))


def _near_bins(n_events: int, duration: float, edges: np.ndarray) -> int:
    """Number of leading bins whose pairs are enumerated one by one.

    Enumerating bins up to edge K visits about n * (n / duration) * e_K
    pairs; counting each remaining bin by prefix sums costs one search per
    event, n * (B - K).  K minimises the sum."""
    n_bins = len(edges) - 1
    cost = n_events / duration * edges + (n_bins - np.arange(n_bins + 1))
    return int(np.argmin(cost))


def _session_pair_counts(times: tuple[np.ndarray, ...], duration: float,
                         edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts ``(D, D, B)`` and admissible counts ``(D, B)`` of one
    session.

    Pair (j-event s, i-event t) lands in bin b when
    ``s + e_b < t <= s + e_{b+1}`` in floating point and s is admissible,
    ``s <= duration - e_{b+1}``.  Admissible events of every component form
    a prefix of the time-ordered stream, so the cut is an index comparison.
    """
    d = len(times)
    n_bins = len(edges) - 1
    flat = np.concatenate(times)               # component-major
    offsets = np.concatenate([[0], np.cumsum([len(t) for t in times])])
    comp = np.repeat(np.arange(d), np.diff(offsets))
    order = np.argsort(flat, kind="stable")
    merged, mcomp = flat[order], comp[order]
    n = len(merged)
    # cum[p, i]: i-events among merged[:p]; a count of i-events at or below
    # x is cum[searchsorted(merged, x, "right"), i].  int32 holds any count
    # of a session that fits in memory and halves the table.
    cum = np.zeros((n + 1, d), dtype=np.int32)
    cum[np.arange(1, n + 1), mcomp] = 1
    np.cumsum(cum, axis=0, out=cum)
    prefix = np.searchsorted(merged, duration - edges[1:], side="right")
    adm = cum[prefix].T.astype(np.int64)
    pairs = np.zeros((d, d, n_bins), dtype=np.int64)
    if n == 0:
        return pairs, adm
    k = _near_bins(n, duration, edges)

    if k > 0:
        # every pair with a lag in (e_0, e_k], from one forward window per
        # event; each bin is fixed by the defining comparisons, since the
        # float lag t - s can round across an edge
        lo = np.searchsorted(merged, merged + edges[0], side="right")
        hi = np.searchsorted(merged, merged + edges[k], side="right")
        near = np.zeros(d * d * k, dtype=np.int64)
        for src, off in _chunks(hi - lo):
            s = merged[src]
            tgt = lo[src] + off
            t = merged[tgt]
            b = np.clip(np.searchsorted(edges[:k + 1], t - s) - 1, 0, k - 1)
            while (down := t <= s + edges[b]).any():
                b -= down
            while (up := t > s + edges[b + 1]).any():
                b += up
            keep = src < prefix[b]
            key = (mcomp[tgt] * d + mcomp[src]) * k + b
            near += np.bincount(key[keep], minlength=d * d * k)
        pairs[:, :, :k] = near.reshape(d, d, k)

    if k < n_bins:
        # S_m(A)[j, i]: over the first A j-events, the count of i-events at
        # or below s + e_m.  Far bin b holds S_{b+1}(adm_b) - S_b(adm_b), so
        # edge m needs S_m at A = adm_m (as a left side) and, over the extra
        # keys up to adm_{m-1}, at A = adm_{m-1} (as a right side).
        m = np.arange(k, n_bins + 1)
        adm_ext = np.concatenate([adm, np.zeros((d, 1), np.int64)], axis=1)
        a_left = adm_ext[:, m].T                      # (edge, j)
        a_right = adm[:, np.maximum(m - 1, k)].T
        # key ranges in (edge, j, left | extra) order
        start = offsets[:-1, None] + np.stack(
            [np.zeros_like(a_left), a_left], axis=-1)
        length = np.stack([a_left, a_right - a_left], axis=-1).ravel()
        start, shift = start.ravel(), np.repeat(edges[m], 2 * d)
        sums = np.zeros((len(length), d), dtype=np.int64)
        for piece, off in _chunks(length):
            keys = flat[start[piece] + off] + shift[piece]
            below = cum[np.searchsorted(merged, keys, side="right")]
            first = np.flatnonzero(np.diff(piece, prepend=-1))
            sums[piece[first]] += np.add.reduceat(below, first, axis=0,
                                                  dtype=np.int64)
        sums = sums.reshape(len(m), d, 2, d)
        left = sums[:, :, 0]
        right = left + sums[:, :, 1]
        pairs[:, :, k:] = (right[1:] - left[:-1]).transpose(2, 1, 0)
    return pairs, adm


def estimate_conditional_law(stream: MultivariateEventStream,
                             grid: LinLogGrid,
                             weighting: str = "events",
                             workers: int | None = None) -> ConditionalLawMatrix:
    """Estimate the full conditional-law matrix of a stream.

    ``weighting="events"`` pools pair counts across sessions (each session
    weighted by its admissible j-event count); ``weighting="sessions"``
    averages per-session estimates with equal weight instead.  With
    ``workers`` above 1, sessions are counted on that many threads; one
    session is always counted on a single thread, and the result does not
    depend on ``workers``.
    """
    if weighting not in ("events", "sessions"):
        raise ValueError(f"unknown weighting {weighting!r}")
    d = stream.dimension
    if d == 0 or not stream.sessions:
        raise ValueError("empty stream")
    n_bins = grid.n_bins
    widths = grid.widths
    lam = estimate_mean_intensity(stream)

    def run(sess: Session):
        return _session_pair_counts(sess.times, sess.duration, grid.edges)

    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_session = list(pool.map(run, stream.sessions))
    else:
        per_session = [run(sess) for sess in stream.sessions]
    pair_tot = sum(pairs for pairs, _ in per_session)
    adm_tot = sum(adm for _, adm in per_session)

    # (D, D, B) arrays over (i, j, bin); a (D, B) array over (j, bin)
    # broadcasts against them, and bins without admissible j-events stay 0.
    values = np.zeros((d, d, n_bins))
    stderr = np.zeros((d, d, n_bins))
    if weighting == "events":
        ok = adm_tot > 0
        denom = widths * adm_tot
        np.divide(pair_tot, denom, out=values, where=ok)
        np.divide(np.sqrt(pair_tot), denom, out=stderr, where=ok)
    else:
        acc = np.zeros((d, d, n_bins))
        var = np.zeros((d, d, n_bins))
        n_ok = np.zeros((d, n_bins), dtype=np.int64)
        for pairs, adm in per_session:
            sess_ok = adm > 0
            denom = np.where(sess_ok, widths * adm, 1.0)
            np.add(acc, pairs / denom, out=acc, where=sess_ok)
            np.add(var, pairs / denom ** 2, out=var, where=sess_ok)
            n_ok += sess_ok
        ok = n_ok > 0
        np.divide(acc, n_ok, out=values, where=ok)
        np.divide(np.sqrt(var), n_ok, out=stderr, where=ok)
        # flagging still keyed on pooled admissibility
    np.subtract(values, lam[:, None, None], out=values, where=ok)
    return ConditionalLawMatrix(
        grid, values, stderr, pair_tot, adm_tot, lam, stream.total_time,
        meta={"weighting": weighting, "sessions": len(stream.sessions)})


def write_law_curves(claw: ConditionalLawMatrix, targets) -> list[Path]:
    """Write the (i <- j) law for each ``(i, j, path)`` of ``targets`` as
    ``bin_left, bin_right, value, stderr, pairs`` rows, one per bin."""
    edges = float_cells(claw.grid.edges)
    left, right = edges[:-1], edges[1:]
    written = []
    for i, j, path in targets:
        write_table(path, ["bin_left", "bin_right", "value", "stderr", "pairs"],
                    [left, right, float_cells(claw.values[i, j]),
                     float_cells(claw.stderr[i, j]),
                     int_cells(claw.pair_counts[i, j])])
        written.append(path)
    return written


def save_claw(claw: ConditionalLawMatrix, out_dir) -> list[Path]:
    """One CSV per ordered pair plus a manifest with rates and grid."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = claw.dimension
    written = write_law_curves(claw, [(i, j, out_dir / f"claw_{i}_{j}.csv")
                                      for i in range(d) for j in range(d)])
    manifest = {
        "dimension": d,
        "mean_intensity": [float(v) for v in claw.lam],
        "total_time": claw.total_time,
        "grid": claw.grid.to_dict(),
        "meta": claw.meta,
        "admissible": claw.admissible.tolist(),
    }
    mpath = out_dir / "claw_manifest.json"
    write_json(mpath, manifest)
    written.append(mpath)
    return written


def load_claw(in_dir) -> ConditionalLawMatrix:
    """The law ``save_claw`` wrote, on the grid of the manifest's four sizes."""
    mpath = Path(in_dir) / "claw_manifest.json"
    manifest = read_json(mpath)
    recorded = manifest["grid"]
    grid = build_linlog_grid(**{k: recorded[k] for k in ("h_min", "h_max", "n_lin", "n_log")})
    if grid.to_dict() != recorded:
        raise ValueError(f"{mpath}: grid {recorded} is not the grid of its sizes")
    d = manifest["dimension"]
    b = grid.n_bins
    values = np.zeros((d, d, b))
    stderr = np.zeros((d, d, b))
    pairs = np.zeros((d, d, b), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            with open(mpath.with_name(f"claw_{i}_{j}.csv"), "r", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            values[i, j] = [float(r[2]) for r in rows]
            stderr[i, j] = [float(r[3]) for r in rows]
            pairs[i, j] = [int(r[4]) for r in rows]
    return ConditionalLawMatrix(
        grid, values, stderr, pairs,
        np.asarray(manifest["admissible"], dtype=np.int64),
        np.asarray(manifest["mean_intensity"]),
        manifest["total_time"], manifest.get("meta", {}))
