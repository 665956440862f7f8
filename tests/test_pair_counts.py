"""Pair counts of the conditional-law estimator against two oracles.

``pair_counts`` and ``admissible`` must be integer-identical to the former
sorted-search counter and to brute-force counting by the bin definition.
Timestamps are whole microseconds, so on the 20 us linear step many lags
land exactly on bin edges, where float rounding decides the bin.  Two
metamorphic identities need no oracle: the counts of two streams combined
as sessions are the sums of their counts, and scaling every time and the
grid by a power of two leaves the counts as they are.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from hawkesflow import estimate as claw
from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law
from hawkesflow.events import MultivariateEventStream, Session, combine_streams
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
def streams(draw, d=None):
    if d is None:
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


def stream_from_seconds(sessions, durations):
    """Stream from per-session lists of per-component float times."""
    return MultivariateEventStream(len(sessions[0]), tuple(
        Session(f"s{k}", dur, tuple(np.unique(np.asarray(c, dtype=float)) for c in comps))
        for k, (comps, dur) in enumerate(zip(sessions, durations))))


def burst():
    """1200 events one ulp apart at 5 ms, alternating between two
    components, amid events on a 20 us tick: one bucket cell holds them."""
    rng = np.random.default_rng(5)
    at = 0.005 + np.arange(1200) * np.spacing(0.005)
    comps = [np.concatenate([at[k::2], 20e-6 * rng.integers(0, 500, 40)]) for k in range(2)]
    return stream_from_seconds([comps], [0.01]), GRIDS["lin20us"]


def all_at_zero():
    """Every event at t = 0: the table spans nothing."""
    return stream_from_seconds([[[0.0], [0.0], [0.0]]], [5e-5]), GRIDS["lin20us"]


def keys_on_events():
    """Events on a 2^-12 s tick and linear edges on the same tick, so event
    time plus edge lands exactly on later events."""
    grid = build_linlog_grid(h_min=2.0 ** -10, h_max=0.05, n_lin=4, n_log=20)
    rng = np.random.default_rng(9)
    comps = [2.0 ** -12 * rng.integers(0, 64, 40) for _ in range(3)]
    return stream_from_seconds([comps], [64 * 2.0 ** -12]), grid


def keys_past_last_event():
    """Events in the first millisecond of a 20 ms session: most keys lie
    past the last event, above every cell."""
    rng = np.random.default_rng(13)
    comps = [1e-6 * rng.integers(0, 1000, 60) for _ in range(2)]
    return stream_from_seconds([comps], [0.02]), GRIDS["coarse"]


BUCKET_CASES = {f.__name__: f for f in (burst, all_at_zero, keys_on_events,
                                        keys_past_last_event)}


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

    @pytest.mark.parametrize("weighting", ["events", "sessions"])
    @pytest.mark.parametrize("case", sorted(BUCKET_CASES))
    def test_bucket_table_inputs(self, case, weighting):
        stream, grid = BUCKET_CASES[case]()
        assert regime(stream, grid) != "near"   # the far bins read the table
        assert_identical(stream, grid, weighting)

    def test_empty_session_and_single_event(self):
        grid = build_linlog_grid(h_min=1e-3, h_max=0.1, n_lin=50, n_log=10)
        # an empty session, a lone event, and a tie at the session end
        stream = stream_from_us([[[], []], [[500], []], [[100], [100]]],
                                [1000, 1000, 100])
        law = assert_identical(stream, grid)
        assert law.pair_counts.sum() == 0


class TestMetamorphic:
    """Identities between the counts of related streams, each exact."""

    @given(pair=st.integers(1, 3).flatmap(lambda d: st.tuples(streams(d), streams(d))),
           grid=st.sampled_from(sorted(GRIDS)))
    def test_session_split_adds_counts(self, pair, grid):
        grid = GRIDS[grid]
        a, b = (estimate_conditional_law(s, grid) for s in pair)
        both = estimate_conditional_law(combine_streams(list(pair)), grid)
        assert np.array_equal(both.pair_counts, a.pair_counts + b.pair_counts)
        assert np.array_equal(both.admissible, a.admissible + b.admissible)

    @given(stream=streams(), grid=st.sampled_from(sorted(GRIDS)),
           k=st.sampled_from([-3, 1, 10]))
    def test_time_scaling_by_a_power_of_two(self, stream, grid, k):
        # scaling by 2**k is exact in binary floating point, so every lag
        # keeps its bin and every rate scales exactly
        grid = GRIDS[grid]
        c = 2.0 ** k
        scaled_grid = build_linlog_grid(h_min=grid.h_min * c, h_max=grid.h_max * c,
                                        n_lin=grid.n_lin, n_log=grid.n_log)
        scaled = MultivariateEventStream(stream.dimension, tuple(
            Session(s.session_id, s.duration * c, tuple(t * c for t in s.times))
            for s in stream.sessions))
        law = estimate_conditional_law(stream, grid)
        law_c = estimate_conditional_law(scaled, scaled_grid)
        assert np.array_equal(law_c.pair_counts, law.pair_counts)
        assert np.array_equal(law_c.admissible, law.admissible)
        assert np.array_equal(law_c.values, law.values / c)
        assert np.array_equal(law_c.stderr, law.stderr / c)
