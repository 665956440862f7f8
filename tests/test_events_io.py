import io

import pytest

from hawkesflow.errors import ParseError
from hawkesflow.events import (
    BinningMode,
    BinningScheme,
    EventType,
    RecordKind,
    Side,
    load_binning_scheme,
    read_event_csv,
    read_snapshot_csv,
    save_binning_scheme,
    write_event_csv,
)

EVENT_HEADER = "timestamp_us,etype,side,volume,price\n"
SNAP_HEADER = ("timestamp_us,kind,bid_price,bid_size,ask_price,ask_size,"
               "trade_price,trade_volume,trade_side\n")


class TestEventCsv:
    def test_trade_line_maps_fields(self):
        events = read_event_csv(io.StringIO(EVENT_HEADER + "1000,T,a,5,12850\n"))
        assert len(events) == 1
        e = events[0]
        assert (e.timestamp_us, e.etype, e.side, e.volume, e.price) == (
            1000, EventType.TRADE, Side.ASK, 5, 12850)

    def test_empty_file_gives_empty_list(self):
        assert read_event_csv(io.StringIO(EVENT_HEADER)) == []
        assert read_event_csv(io.StringIO("")) == []

    def test_zero_volume_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2.*nonpositive volume"):
            read_event_csv(io.StringIO(EVENT_HEADER + "1000,L,a,0,100\n"))

    def test_decreasing_timestamp_rejected(self):
        body = "1000,T,a,5,100\n900,T,b,1,99\n"
        with pytest.raises(ParseError, match="line 3.*decreasing"):
            read_event_csv(io.StringIO(EVENT_HEADER + body))

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError, match="line 3"):
            read_event_csv(io.StringIO(EVENT_HEADER + "5,L,a,1\nbogus\n"))

    def test_price_optional(self):
        events = read_event_csv(io.StringIO(EVENT_HEADER + "7,C,b,3,\n"))
        assert events[0].price is None

    def test_write_read_roundtrip(self, tmp_path):
        events = read_event_csv(io.StringIO(
            EVENT_HEADER + "5,L,a,1,101\n5,T,b,2,\n90,C,a,4,100\n"))
        path = tmp_path / "events.csv"
        write_event_csv(events, path)
        assert read_event_csv(path) == events

    def test_event_lines_from_bytes(self):
        events = read_event_csv((EVENT_HEADER + "1000,T,a,5,12850\n").encode())
        assert events[0].etype is EventType.TRADE


class TestSnapshotCsv:
    def test_quote_and_trade_rows(self):
        body = ("0,Q,99,10,100,12,,,\n"
                "50,T,,,,,100,3,a\n")
        records = read_snapshot_csv(io.StringIO(SNAP_HEADER + body))
        assert records[0].kind is RecordKind.QUOTE_SNAPSHOT
        assert records[0].ask_size == 12
        assert records[1].kind is RecordKind.TRADE
        assert records[1].trade_side is Side.ASK
        assert records[1].trade_volume == 3

    def test_crossed_quotes_rejected(self):
        body = "0,Q,101,10,100,12,,,\n"
        with pytest.raises(ParseError, match="line 2.*crossed"):
            read_snapshot_csv(io.StringIO(SNAP_HEADER + body))

    def test_zero_trade_volume_rejected(self):
        body = "0,Q,99,10,100,12,,,\n10,T,,,,,100,0,b\n"
        with pytest.raises(ParseError, match="nonpositive volume"):
            read_snapshot_csv(io.StringIO(SNAP_HEADER + body))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="unknown record kind"):
            read_snapshot_csv(io.StringIO(SNAP_HEADER + "0,X,99,10,100,12,,,\n"))


class TestBinningScheme:
    def test_bund_unsigned_table_assignments(self):
        # bins {1},{2},{3},(3,7],(7,20],(20,inf)
        scheme = BinningScheme(BinningMode.UNSIGNED_TRADES, (1, 2, 3, 7, 20))
        assert scheme.dimension == 6
        assert scheme.volume_bin(5) == 3      # (3, 7]
        assert scheme.volume_bin(1) == 0      # {1}
        assert scheme.volume_bin(7) == 3
        assert scheme.volume_bin(8) == 4
        assert scheme.volume_bin(21) == 5

    def test_full_book_component_for_bid_cancel(self):
        scheme = BinningScheme(BinningMode.FULL_BOOK, (1, 3, 10))
        assert scheme.dimension == 24
        from hawkesflow.events import OrderEvent
        e = OrderEvent(0, EventType.CANCEL, Side.BID, 12)
        # bid block starts at 12, cancel block at +4, volume 12 -> 4th bin
        assert scheme.component(e) == 19
        assert scheme.labels()[19] == "Cb4"

    def test_signed_scheme_orders_sell_then_buy(self):
        scheme = BinningScheme(BinningMode.SIGNED_TRADES, (1, 3, 10))
        from hawkesflow.events import OrderEvent
        sell = OrderEvent(0, EventType.TRADE, Side.BID, 2)
        buy = OrderEvent(0, EventType.TRADE, Side.ASK, 2)
        assert scheme.component(sell) == 1
        assert scheme.component(buy) == 5
        assert scheme.labels()[:4] == ["S1", "S2", "S3", "S4"]

    def test_assignment_total_over_volume_range(self):
        for mode in BinningMode:
            scheme = BinningScheme(mode, (1, 3, 10))
            bins = [scheme.volume_bin(v) for v in range(1, 10_001)]
            assert all(0 <= b < scheme.n_volume_bins for b in bins)
            # partition: non-decreasing and hits every bin
            assert sorted(set(bins)) == list(range(scheme.n_volume_bins))

    def test_event_template_inverts_component(self):
        for mode in BinningMode:
            scheme = BinningScheme(mode, (1, 3, 10))
            from hawkesflow.events import OrderEvent
            for comp in range(scheme.dimension):
                etype, side, volume = scheme.event_template(comp)
                e = OrderEvent(0, etype, side, volume)
                assert scheme.component(e) == comp

    def test_config_roundtrip(self, tmp_path):
        scheme = BinningScheme(BinningMode.SIGNED_TRADES, (1, 3, 10))
        path = tmp_path / "scheme.json"
        save_binning_scheme(scheme, path)
        assert load_binning_scheme(path) == scheme

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            BinningScheme(BinningMode.UNSIGNED_TRADES, (3, 3))
        with pytest.raises(ValueError):
            BinningScheme(BinningMode.UNSIGNED_TRADES, (0,))
        with pytest.raises(ValueError):
            BinningScheme.from_dict({"mode": "nope", "edges": [1]})

    def test_edgeless_scheme_ignores_volume(self):
        scheme = BinningScheme(BinningMode.UNSIGNED_TRADES, ())
        assert scheme.dimension == 1
        assert scheme.volume_bin(1) == 0
        assert scheme.volume_bin(10_000) == 0
        assert BinningScheme.canonical(1) == scheme
