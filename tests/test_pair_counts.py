"""Pair counts of the conditional-law estimator against two oracles.

``pair_counts`` and ``admissible`` must be integer-identical to the former
sorted-search counter and to brute-force counting by the bin definition.
Timestamps are whole microseconds, so on the 20 us linear step many lags
land exactly on bin edges, where float rounding decides the bin.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from hawkesflow import estimate as claw
from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law
from hawkesflow.events import MultivariateEventStream, Session
from hawkesflow.events.types import MICROSECOND
from oracles import brute_force_pair_counts, session_pair_counts


def stream_from_us(sessions_us, durations_us):
    """Stream from per-session lists of per-component integer-us times."""
    sessions = tuple(
        Session(f"s{k}", dur * MICROSECOND,
                tuple(np.unique(np.asarray(c, dtype=np.int64)) * MICROSECOND
                      for c in comps))
        for k, (comps, dur) in enumerate(zip(sessions_us, durations_us)))
    return MultivariateEventStream(len(sessions_us[0]), sessions)


def oracle_counts(stream, edges, counter):
    d = stream.dimension
    pairs = np.zeros((d, d, len(edges) - 1), dtype=np.int64)
    adm = np.zeros((d, len(edges) - 1), dtype=np.int64)
    for sess in stream.sessions:
        for j in range(d):
            for i in range(d):
                p, a = counter(sess.times[i], sess.times[j], sess.duration, edges)
                pairs[i, j] += p
            adm[j] += a
    return pairs, adm


def regime(stream, grid):
    """'near', 'far' or 'mixed': which counting method each session uses."""
    ks = {claw._near_bins(int(s.counts.sum()), s.duration, grid.edges)
          for s in stream.sessions if s.counts.sum()}
    if ks <= {grid.n_bins}:
        return "near"
    return "far" if ks <= {0} else "mixed"


def assert_identical(stream, grid, weighting="events", workers=1):
    law = estimate_conditional_law(stream, grid, weighting=weighting,
                                   workers=workers)
    for counter in (session_pair_counts, brute_force_pair_counts):
        pairs, adm = oracle_counts(stream, grid.edges, counter)
        assert np.array_equal(law.pair_counts, pairs), counter.__name__
        assert np.array_equal(law.admissible, adm), counter.__name__
    return law


@st.composite
def streams(draw):
    d = draw(st.integers(1, 3))
    tick = draw(st.sampled_from([1, 20, 1000]))       # us between timestamps
    sessions, durations = [], []
    for _ in range(draw(st.integers(1, 3))):
        n_ticks = draw(st.integers(1, 200))
        comps = [draw(st.lists(st.integers(0, n_ticks), max_size=25))
                 for _ in range(d)]
        if draw(st.booleans()):                       # events at 0 and at the end
            comps[0] = comps[0] + [0, n_ticks]
        if d > 1 and draw(st.booleans()):             # cross-component ties
            comps[-1] = comps[-1] + comps[0][::2]
        sessions.append([[tick * t for t in c] for c in comps])
        durations.append(tick * n_ticks)
    return stream_from_us(sessions, durations)


GRIDS = {
    # 20 us linear step of the default grid, log part kept short
    "lin20us": build_linlog_grid(h_min=1e-3, h_max=2e-2, n_lin=50, n_log=20),
    "coarse": build_linlog_grid(h_min=1e-2, h_max=0.5, n_lin=5, n_log=15),
    "fine": build_linlog_grid(h_min=1e-4, h_max=1e-3, n_lin=5, n_log=10),
}


class TestPairCountIdentity:
    @given(stream=streams(), grid=st.sampled_from(sorted(GRIDS)),
           weighting=st.sampled_from(["events", "sessions"]),
           workers=st.sampled_from([1, 2]),
           chunk=st.sampled_from([1, 7, claw._CHUNK]))
    def test_matches_reference_and_brute_force(self, stream, grid, weighting,
                                               workers, chunk):
        grid = GRIDS[grid]
        event(regime(stream, grid))
        with mock.patch.object(claw, "_CHUNK", chunk):
            assert_identical(stream, grid, weighting, workers)

    @pytest.mark.parametrize("weighting", ["events", "sessions"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case,dur_us,n_per_comp", [
        ("near", 10 ** 9, 20),     # 0.06 events/s: every bin is narrow
        ("far", 1000, 40),         # ~1e5 events/s: every bin is wide
        ("mixed", 10 ** 6, 30),    # 90 events/s: crossover inside the log part
    ])
    def test_regimes(self, case, dur_us, n_per_comp, weighting, workers):
        rng = np.random.default_rng(11)
        grid = build_linlog_grid(h_min=1e-3, h_max=1.0, n_lin=50, n_log=40)
        ticks = dur_us // 20

        def comps(empty_last):
            out = [list(20 * rng.integers(0, ticks + 1, n_per_comp))
                   for _ in range(3)]
            out[0] += [0, 20 * ticks]
            out[2] = [] if empty_last else [20 * ticks]
            return out

        stream = stream_from_us([comps(True), comps(False)], [20 * ticks] * 2)
        assert regime(stream, grid) == case
        assert_identical(stream, grid, weighting, workers)

    def test_empty_session_and_single_event(self):
        grid = build_linlog_grid(h_min=1e-3, h_max=0.1, n_lin=50, n_log=10)
        # an empty session, a lone event, and a tie at the session end
        stream = stream_from_us([[[], []], [[500], []], [[100], [100]]],
                                [1000, 1000, 100])
        law = assert_identical(stream, grid)
        assert law.pair_counts.sum() == 0
