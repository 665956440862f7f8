import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hawkesflow.events import (
    BinningMode,
    BinningScheme,
    EventTable,
    EventType,
    MultivariateEventStream,
    Session,
    Side,
    assign_components,
    combine_streams,
    filter_session,
    randomize_timestamps,
)
from hawkesflow.events.stream import _strict_within
from oracles import cap_strict, event_rows, strictly_increasing

A, B = Side.ASK, Side.BID
L, C, T = EventType.LIMIT, EventType.CANCEL, EventType.TRADE

BUND = BinningScheme(BinningMode.UNSIGNED_TRADES, (1, 2, 3, 7, 20))
FULL = BinningScheme(BinningMode.FULL_BOOK, (1, 3, 10))


def random_events(rng, n, t_max_us=10_000_000):
    ts = np.sort(rng.integers(0, t_max_us, size=n))
    sides = [A, B]
    etypes = [L, C, T]
    return EventTable.from_rows([(int(t), etypes[rng.integers(3)], sides[rng.integers(2)],
                                  int(rng.integers(1, 40))) for t in ts])


class TestAssignComponents:
    def test_bund_scheme_volume_routing(self):
        events = EventTable.from_rows([(1_000_000, T, A, 5),    # (3,7] -> bin 3
                                       (2_000_000, T, B, 1),    # {1}   -> bin 0
                                       (3_000_000, L, A, 9)])   # dropped: not a trade
        stream = assign_components(events, BUND, duration=10.0)
        assert stream.dimension == 6
        counts = stream.total_counts
        assert counts[3] == 1 and counts[0] == 1 and counts.sum() == 2

    def test_full_book_keeps_all_events(self):
        events = EventTable.from_rows([(1_000_000, C, B, 12)])
        stream = assign_components(events, FULL, duration=5.0)
        assert stream.total_counts[19] == 1

    def test_count_conservation_on_random_streams(self):
        rng = np.random.default_rng(3)
        events = random_events(rng, 500)
        full = assign_components(events, FULL, duration=20.0)
        assert full.total_counts.sum() == len(events)
        trades = sum(row[1] is T for row in event_rows(events))
        unsigned = assign_components(events, BUND, duration=20.0)
        assert unsigned.total_counts.sum() == trades

    def test_ties_within_component_resolved_strictly(self):
        events = EventTable.from_rows([(1_000, T, A, 5) for _ in range(50)])
        stream = assign_components(events, BUND, duration=1.0)
        t = stream.sessions[0].times[3]
        assert len(t) == 50
        assert np.all(np.diff(t) > 0)
        # perturbation stays far below the 10 us data resolution
        assert t[-1] - t[0] < 10e-6

    def test_default_duration_covers_events(self):
        events = EventTable.from_rows([(2_500_000, T, A, 1)])
        stream = assign_components(events, BUND)
        assert stream.sessions[0].duration == 3.0

    def test_combine_streams_checks_dimension(self):
        empty = EventTable.from_rows([])
        s1 = assign_components(empty, BUND, duration=1.0, session_id="a")
        s2 = assign_components(empty, FULL, duration=1.0, session_id="b")
        with pytest.raises(ValueError):
            combine_streams([s1, s2])
        both = combine_streams([s1, s1])
        assert len(both.sessions) == 2


class TestRandomize:
    def make_stream(self, seed=5, n=400):
        rng = np.random.default_rng(seed)
        events = EventTable.from_rows(
            [(int(t), T, A, 1) for t in np.sort(rng.integers(0, 50_000_000, size=n))])
        return assign_components(events, BinningScheme.canonical(2),
                                 duration=50.0)

    def test_identity_when_no_jitter_and_unit_rounding(self):
        stream = self.make_stream()
        out = randomize_timestamps(stream, round_to_us=1.0,
                                   jitter_width_us=0.0, seed=1)
        for t_new, t_old in zip(out.sessions[0].times, stream.sessions[0].times):
            # integer-microsecond inputs are fixed points of 1 us rounding
            assert np.allclose(t_new, t_old, atol=1e-12)

    def test_deterministic_given_seed(self):
        stream = self.make_stream()
        a = randomize_timestamps(stream, 10.0, 50.0, seed=42)
        b = randomize_timestamps(stream, 10.0, 50.0, seed=42)
        c = randomize_timestamps(stream, 10.0, 50.0, seed=43)
        for ta, tb in zip(a.sessions[0].times, b.sessions[0].times):
            assert np.array_equal(ta, tb)
        assert any(not np.array_equal(ta, tc) for ta, tc in
                   zip(a.sessions[0].times, c.sessions[0].times))

    def test_counts_preserved_and_displacement_bounded(self):
        stream = self.make_stream(n=1000)
        out = randomize_timestamps(stream, 10.0, 50.0, seed=7)
        for t_new, t_old in zip(out.sessions[0].times, stream.sessions[0].times):
            assert len(t_new) == len(t_old)
            if len(t_new) == 0:
                continue
            # per-event bound: round_to/2 + jitter (in seconds), checked on
            # the sorted arrays which randomization may locally reorder
            bound = (10.0 / 2 + 50.0) * 1e-6 + 1e-12
            assert np.max(np.abs(np.sort(t_new) - np.sort(t_old))) <= bound

    def test_negative_results_clamped_and_counted(self):
        events = EventTable.from_rows([(3, T, A, 1), (20, T, A, 1)])
        stream = assign_components(events, BinningScheme.canonical(2),
                                   duration=1.0)
        out = randomize_timestamps(stream, 10.0, 50.0, seed=9)
        sess = out.sessions[0]
        assert sess.meta["clamped"] >= 1
        assert all(np.all(t >= 0) for t in sess.times)

    def test_ties_rounded_onto_session_end_stay_inside(self):
        # both late events round up to 10 s; the tie must not be nudged
        # past the end of the session
        times = (np.array([1.0, 10.0 - 3e-6, 10.0 - 1e-6]),)
        stream = MultivariateEventStream(1, (Session("s", 10.0, times),))
        out = randomize_timestamps(stream, 10.0, 0.0, seed=1)
        t = out.sessions[0].times[0]
        assert len(t) == 3
        assert t[-1] == 10.0 and t[-2] == np.nextafter(10.0, 0.0)
        assert np.all(np.diff(t) > 0)

    def test_parameter_validation(self):
        stream = self.make_stream()
        with pytest.raises(ValueError):
            randomize_timestamps(stream, 0.0, 10.0, seed=1)
        with pytest.raises(ValueError):
            randomize_timestamps(stream, 10.0, -1.0, seed=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, value):
        stream = self.make_stream()
        with pytest.raises(ValueError, match=f"round_to_us must be finite and "
                                             f"positive, got {value}"):
            randomize_timestamps(stream, value, 10.0, seed=1)
        with pytest.raises(ValueError, match=f"jitter_width_us must be finite "
                                             f"and nonnegative, got {value}"):
            randomize_timestamps(stream, 10.0, value, seed=1)


class TestFilterSession:
    def make_stream(self):
        times = (np.array([1.0, 2.0, 5.0, 9.5]), np.array([3.0, 7.0]))
        return MultivariateEventStream(
            2, (Session("s", 10.0, times),))

    def test_full_window_is_identity_up_to_rebase(self):
        stream = self.make_stream()
        out = filter_session(stream, 0.0, 10.0)
        for t_new, t_old in zip(out.sessions[0].times, stream.sessions[0].times):
            assert np.array_equal(t_new, t_old)
        assert out.sessions[0].duration == 10.0

    def test_empty_window_keeps_duration(self):
        out = filter_session(self.make_stream(), 9.6, 9.9)
        assert all(len(t) == 0 for t in out.sessions[0].times)
        assert out.sessions[0].duration == pytest.approx(0.3)

    def test_against_list_comprehension_oracle(self):
        rng = np.random.default_rng(17)
        times = tuple(np.sort(rng.uniform(0, 50_400, size=n))
                      for n in (900, 400, 50))
        stream = MultivariateEventStream(3, (Session("d", 50_400.0, times),))
        start, end = 10_800.0, 32_400.0  # 6-hour midday window
        out = filter_session(stream, start, end)
        for i in range(3):
            oracle = [t - start for t in times[i] if start <= t < end]
            assert np.allclose(out.sessions[0].times[i], oracle)
        assert out.sessions[0].duration == pytest.approx(end - start)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            filter_session(self.make_stream(), 5.0, 11.0)
        with pytest.raises(ValueError):
            filter_session(self.make_stream(), 5.0, 5.0)


class TestBoundaryTies:
    def test_tied_events_at_session_end_stay_inside(self):
        events = EventTable.from_rows([(5_000_000, T, A, 1) for _ in range(50)])
        stream = assign_components(events, BinningScheme.canonical(1),
                                   duration=5.0)
        t = stream.sessions[0].times[0]
        assert len(t) == 50
        assert np.all(np.diff(t) > 0)
        assert t[-1] == 5.0

    def test_events_beyond_declared_duration_rejected(self):
        events = EventTable.from_rows([(6_000_000, T, A, 1)])
        with pytest.raises(ValueError, match="beyond the declared"):
            assign_components(events, BinningScheme.canonical(1), duration=5.0)

    @pytest.mark.parametrize("duration", [np.inf, -np.inf, np.nan, 0.0, -5.0])
    def test_duration_not_finite_and_positive_rejected(self, duration):
        events = EventTable.from_rows([(1_000_000, T, A, 1)])
        with pytest.raises(ValueError, match=f"finite and positive, got {duration}"):
            assign_components(events, BinningScheme.canonical(1), duration=duration)


class TestSession:
    @pytest.mark.parametrize("duration", [np.inf, np.nan, 0.0, -5.0])
    def test_duration_not_finite_and_positive_rejected(self, duration):
        with pytest.raises(ValueError, match="session duration must be finite "
                                             f"and positive, got {duration}"):
            Session("s", duration, (np.array([1.0, 2.0, 3.5]),))

    @pytest.mark.parametrize("times,message", [
        ([np.nan, 2.0, 3.0], "outside"), ([1.0, 2.0, np.nan], "outside"),
        ([1.0, np.nan, 3.0], "not strictly increasing"), ([np.nan], "outside")])
    def test_nan_time_rejected(self, times, message):
        with pytest.raises(ValueError, match=f"component 0: times {message}"):
            Session("s", 10.0, (np.array(times),))


class TestStrictlyIncreasing:
    # sorted nonnegative times drawn from a few values, so that ties and
    # runs of ties are common; 0.0, -0.0, the smallest subnormal and 1e300
    # are among them.  The cap falls below, at or above the largest time.
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-6, 1.0,
                                     np.nextafter(1.0, 2.0), 5e4, 1e300]),
                    max_size=40),
           st.lists(st.floats(0.0, 1e5), max_size=20),
           st.one_of(st.none(), st.sampled_from([1e-6, 1.0, 5e4]),
                     st.floats(1e-6, 2e5)))
    def test_matches_former_loop_bit_for_bit(self, tied, spread, cap):
        t = np.sort(np.array(tied + spread, dtype=float))
        if cap is None:
            cap = t[-1] if len(t) else 1.0
        # A duration below len(t) ulps leaves no room for len(t) strictly
        # increasing nonnegative times: the former loop stepped below zero
        # with nextafter, the projection steps into negative bit patterns.
        assume(np.float64(cap).view(np.int64) >= len(t))
        got = _strict_within(t.copy(), cap)
        expected = cap_strict(strictly_increasing(t.copy()), cap)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
