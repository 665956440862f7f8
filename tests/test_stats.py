import numpy as np
import pytest

from hawkesflow.events import (
    EventTable,
    EventType,
    MultivariateEventStream,
    Session,
    Side,
    flow_statistics,
)
from hawkesflow.simulate import HawkesModel, ZeroKernel, simulate


def one_session(times, duration):
    arrays = tuple(np.asarray(t, dtype=float) for t in times)
    return MultivariateEventStream(len(arrays),
                                   (Session("s", duration, arrays),))


class TestFlowStatistics:
    def test_two_event_component(self):
        stream = one_session([[1.0, 1.5]], 10.0)
        stats = flow_statistics(stream)
        assert stats.mean_intensity[0] == pytest.approx(0.2)
        assert stats.duration_counts.sum(axis=1)[0] == 1
        # the single duration of 0.5 s lands in exactly one bin
        assert stats.pooled_duration_counts.sum() == 1

    def test_single_event_component_has_rate_but_no_durations(self):
        stream = one_session([[4.0], [1.0, 2.0, 3.0]], 10.0)
        stats = flow_statistics(stream)
        assert stats.mean_intensity[0] == pytest.approx(0.1)
        assert stats.duration_counts.sum(axis=1)[0] == 0
        assert stats.event_counts[0] == 1

    def test_histogram_mass_equals_duration_counts(self):
        rng = np.random.default_rng(23)
        times = [np.sort(rng.uniform(0, 100, size=n)) for n in (50, 7, 1, 0)]
        stream = one_session(times, 100.0)
        stats = flow_statistics(stream)
        for i, n in enumerate((50, 7, 1, 0)):
            assert stats.duration_counts[i].sum() == max(n - 1, 0)
        assert stats.pooled_duration_counts.sum() == 58 - 1

    def test_poisson_rate_within_binomial_error(self):
        model = HawkesModel.linear([2.0], [[ZeroKernel()]])
        stream = simulate(model, 1e5, seed=77)
        stats = flow_statistics(stream)
        # 3 sigma band for a Poisson count of mean 2e5
        sigma = np.sqrt(2.0 / 1e5)
        assert abs(stats.mean_intensity[0] - 2.0) < 3 * sigma

    def test_iid_mark_autocorrelation_inside_null_band(self):
        rng = np.random.default_rng(41)
        n = 20_000
        ts = np.sort(rng.integers(0, 10**9, size=n))
        vols = rng.integers(1, 50, size=n)
        sides = [Side.ASK if u < 0.5 else Side.BID for u in rng.random(n)]
        events = EventTable.from_rows([(int(t), EventType.TRADE, s, int(v))
                                       for t, s, v in zip(ts, sides, vols)])
        stream = one_session([np.sort(rng.uniform(0, 1000, size=10))], 1000.0)
        stats = flow_statistics(stream, events_by_session=[events])
        band = 3.0 / np.sqrt(n)
        assert np.all(np.abs(stats.volume_autocorr[1:21]) < band)
        assert np.all(np.abs(stats.sign_autocorr[1:21]) < band)

    def test_signed_volume_histogram(self):
        events = EventTable.from_rows([(1, EventType.TRADE, Side.ASK, 5),
                                       (2, EventType.TRADE, Side.BID, 5),
                                       (3, EventType.TRADE, Side.ASK, 5),
                                       (4, EventType.LIMIT, Side.ASK, 9)])
        stream = one_session([[0.5]], 10.0)
        stats = flow_statistics(stream, events_by_session=[events])
        assert stats.volume_histogram == {-5: 1, 5: 2}

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            flow_statistics(MultivariateEventStream(1, ()))
