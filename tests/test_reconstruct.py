"""Order reconstruction against a hand-built best-quote scenario.

The event script was written first; the snapshot/trade records below are
its level-I footprint.  Reconstruction must recover the script exactly.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hawkesflow.events import (
    EventTable,
    EventType,
    RawRecord,
    RecordKind,
    ReconstructionDiagnostics,
    Side,
    aggregate_simultaneous,
    reconstruct_orders,
)
import oracles
from oracles import event_rows

Q = RecordKind.QUOTE_SNAPSHOT
T = RecordKind.TRADE
A, B = Side.ASK, Side.BID
L, C, TR = EventType.LIMIT, EventType.CANCEL, EventType.TRADE


def quote(ts, bp, bs, ap, asz):
    return RawRecord(ts, Q, bid_price=bp, bid_size=bs, ask_price=ap, ask_size=asz)


def trade(ts, price, vol, side):
    return RawRecord(ts, T, trade_price=price, trade_volume=vol, trade_side=side)


SCENARIO = [
    quote(0, 99, 10, 100, 10),
    quote(100, 99, 10, 100, 14),        # limit ask 4
    quote(200, 99, 10, 100, 9),         # cancel ask 5
    trade(300, 100, 3, A),              # trade ask 3 ...
    quote(300, 99, 10, 100, 6),         # ... fully explains the drop
    quote(400, 99, 12, 100, 6),         # limit bid 2
    trade(500, 100, 6, A),              # trade ask 6 eats the queue ...
    quote(500, 99, 12, 101, 25),        # ... price recedes, no cancel, no limit
    quote(600, 100, 7, 101, 25),        # bid improves: limit bid 7
    trade(700, 100, 2, B),              # trade bid 2
    quote(700, 100, 5, 101, 25),
    trade(800, 100, 5, B),              # simultaneous opposite-side trades
    trade(800, 101, 1, A),
    quote(800, 99, 12, 101, 24),        # bid queue eaten, ask reduced by 1
    quote(900, 99, 9, 101, 24),         # cancel bid 3
    trade(1000, 101, 4, A),             # trade ask 4 ...
    quote(1000, 99, 9, 101, 14),        # ... plus residual cancel ask 6
    trade(1100, 101, 2, A),             # split market order: two fills
    trade(1100, 101, 3, A),
    quote(1100, 99, 9, 101, 9),
    quote(1200, 98, 30, 101, 9),        # bid recedes: cancel bid 9, no limit
]

EXPECTED_SCRIPT = [
    (100, L, A, 4),
    (200, C, A, 5),
    (300, TR, A, 3),
    (400, L, B, 2),
    (500, TR, A, 6),
    (600, L, B, 7),
    (700, TR, B, 2),
    (800, TR, B, 5),
    (800, TR, A, 1),
    (900, C, B, 3),
    (1000, TR, A, 4),
    (1000, C, A, 6),
    (1100, TR, A, 2),
    (1100, TR, A, 3),
    (1200, C, B, 9),
]


class TestReconstruct:
    def test_scenario_recovers_script(self):
        events = reconstruct_orders(SCENARIO)
        got = [row[:4] for row in event_rows(events)]
        assert got == EXPECTED_SCRIPT

    def test_size_increase_is_limit_of_delta(self):
        events = reconstruct_orders([quote(0, 99, 10, 100, 10),
                                     quote(10, 99, 10, 100, 14)])
        assert [row[1:4] for row in event_rows(events)] == [(L, A, 4)]

    def test_coincident_trade_explains_drop_without_cancel(self):
        events = reconstruct_orders([quote(0, 99, 10, 100, 10),
                                     trade(10, 100, 3, A),
                                     quote(10, 99, 10, 100, 7)])
        assert [row[1:4] for row in event_rows(events)] == [(TR, A, 3)]

    def test_price_recede_cancels_full_queue_without_limit(self):
        events = reconstruct_orders([quote(0, 99, 10, 100, 10),
                                     quote(10, 99, 10, 101, 25)])
        assert [row[1:4] for row in event_rows(events)] == [(C, A, 10)]

    def test_first_record_must_be_snapshot(self):
        with pytest.raises(ValueError):
            reconstruct_orders([trade(0, 100, 1, A)])

    def test_empty_input(self):
        assert reconstruct_orders([]) == EventTable.from_rows([])

    def test_inconsistent_snapshot_skipped_and_counted(self):
        bad = RawRecord(10, Q, bid_price=99, bid_size=0, ask_price=100,
                        ask_size=5)  # built directly, bypassing parse checks
        diag = ReconstructionDiagnostics()
        events = reconstruct_orders([quote(0, 99, 10, 100, 10), bad,
                                     quote(20, 99, 10, 100, 12)], diag)
        assert diag.skipped_records == 1
        assert diag.inconsistent_transitions == 1
        # state survived the skip: next transition still classified
        assert [row[1:4] for row in event_rows(events)] == [(L, A, 2)]


    @pytest.mark.parametrize("bad", [trade(20, 0, 3, A), trade(20, -48, 3, A),
                                     trade(20, 100, 0, A)])
    def test_invalid_trade_skipped_and_counted(self, bad):
        # built directly, bypassing parse checks; its volume must not explain
        # the queue drop either, which therefore reads as a cancel
        diag = ReconstructionDiagnostics()
        events = reconstruct_orders([quote(0, 99, 10, 100, 10), bad,
                                     quote(20, 99, 10, 100, 7)], diag)
        assert diag.skipped_records == 1
        assert "trade record skipped: nonpositive" in diag.messages[0]
        assert [row[:4] for row in event_rows(events)] == [(20, C, A, 3)]

class TestAggregate:
    def test_same_side_trades_merge(self):
        events = EventTable.from_rows([(5, TR, A, 2), (5, TR, A, 3)])
        merged = aggregate_simultaneous(events)
        assert [row[:4] for row in event_rows(merged)] == [(5, TR, A, 5)]

    def test_opposite_sides_kept(self):
        events = EventTable.from_rows([(5, TR, A, 2), (5, TR, B, 3)])
        assert aggregate_simultaneous(events) == events

    def test_identity_without_duplicates(self):
        events = EventTable.from_rows([(1, L, A, 1), (2, C, B, 2), (3, TR, A, 4)])
        assert aggregate_simultaneous(events) == events

    def test_idempotent_on_random_streams(self):
        rng = np.random.default_rng(11)
        sides = [A, B]
        etypes = [L, C, TR]
        for _ in range(25):
            ts = np.sort(rng.integers(0, 30, size=60))
            events = EventTable.from_rows([(int(t), etypes[rng.integers(3)],
                                            sides[rng.integers(2)],
                                            int(rng.integers(1, 9))) for t in ts])
            once = aggregate_simultaneous(events)
            twice = aggregate_simultaneous(once)
            assert twice == once
            # volume conservation and key uniqueness
            assert once.volume.sum() == events.volume.sum()
            keys = [(ts, side, etype) for ts, etype, side, *_ in event_rows(once)]
            assert len(keys) == len(set(keys))

    @given(st.lists(st.tuples(st.integers(0, 6), st.sampled_from([L, C, TR]),
                              st.sampled_from([A, B]), st.integers(1, 9),
                              st.one_of(st.none(), st.integers(90, 110))),
                    max_size=40))
    def test_matches_former_per_event_aggregation(self, rows):
        events = EventTable.from_rows(sorted(rows, key=lambda r: r[0]))
        expected = oracles.aggregate_simultaneous(
            [oracles.OrderEvent(*row) for row in event_rows(events)])
        assert event_rows(aggregate_simultaneous(events)) == [
            (e.timestamp_us, e.etype, e.side, e.volume, e.price) for e in expected]

    def test_scenario_aggregation_merges_split_order(self):
        events = aggregate_simultaneous(reconstruct_orders(SCENARIO))
        at_1100 = [row[1:4] for row in event_rows(events) if row[0] == 1100]
        assert at_1100 == [(TR, A, 5)]
