import io
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hawkesflow.errors import ParseError
from hawkesflow.events import (
    BinningMode,
    BinningScheme,
    EventTable,
    EventType,
    Side,
    load_binning_scheme,
    read_event_csv,
    save_binning_scheme,
    write_event_csv,
)
from hawkesflow.events import io as event_io
import oracles
from oracles import event_rows

EVENT_HEADER = "timestamp_us,etype,side,volume,price\n"


class TestEventCsv:
    def test_trade_line_maps_fields(self):
        events = read_event_csv(io.StringIO(EVENT_HEADER + "1000,T,a,5,12850\n"))
        assert len(events) == 1
        assert event_rows(events)[0] == (1000, EventType.TRADE, Side.ASK, 5, 12850)

    def test_empty_file_gives_empty_list(self):
        assert read_event_csv(io.StringIO(EVENT_HEADER)) == EventTable.from_rows([])
        assert read_event_csv(io.StringIO("")) == EventTable.from_rows([])

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
        assert event_rows(events)[0][4] is None

    def test_write_read_roundtrip(self, tmp_path):
        events = read_event_csv(io.StringIO(
            EVENT_HEADER + "5,L,a,1,101\n5,T,b,2,\n90,C,a,4,100\n"))
        path = tmp_path / "events.csv"
        write_event_csv(events, path)
        assert read_event_csv(path) == events

    def test_event_lines_from_bytes(self):
        events = read_event_csv((EVENT_HEADER + "1000,T,a,5,12850\n").encode())
        assert event_rows(events)[0][1] is EventType.TRADE


class TestEventTable:
    def test_decreasing_timestamps_rejected(self):
        # trades at 3, 1 and 2 s once became [2 - 2ulp, 2 - ulp, 2] s
        rows = [(3_000_000, "T", "a", 1), (1_000_000, "T", "a", 1),
                (2_000_000, "T", "a", 1)]
        with pytest.raises(ValueError, match="row 1 is negative or decreasing"):
            EventTable.from_rows(rows)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="row 0"):
            EventTable([-1], [0], [0], [1], [0], [False])

    @pytest.mark.parametrize("column,value", [
        ("etype", 3), ("etype", -1), ("side", 2), ("volume", 0)])
    def test_bad_code_or_volume_rejected(self, column, value):
        cols = dict(ts_us=[5, 6], etype=[0, 2], side=[0, 1], volume=[1, 9],
                    price=[0, 0], has_price=[False, False])
        cols[column] = [cols[column][0], value]
        with pytest.raises(ValueError, match=column):
            EventTable(**cols)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            EventTable([1, 2], [0], [0], [1], [0], [False])

    def test_columns_take_their_dtypes(self):
        table = EventTable.from_rows([(7, EventType.CANCEL, "b", 3, 101), (8, "T", "a", 1)])
        assert [table.ts_us.dtype, table.etype.dtype, table.side.dtype,
                table.volume.dtype, table.price.dtype, table.has_price.dtype] == [
            np.int64, np.uint8, np.uint8, np.int64, np.int64, np.bool_]
        assert event_rows(table) == [(7, EventType.CANCEL, Side.BID, 3, 101),
                                     (8, EventType.TRADE, Side.ASK, 1, None)]

    @given(st.lists(st.tuples(st.integers(0, 2 ** 62), st.sampled_from("LCT"),
                              st.sampled_from("ab"), st.integers(1, 2 ** 62),
                              st.one_of(st.none(), st.integers(-2 ** 63, 2 ** 63 - 1))),
                    max_size=30),
           st.booleans())
    @example(rows=[(0, "L", "a", 1, 0), (0, "T", "b", 2, None)], prices=True)
    def test_csv_roundtrip_is_identity(self, tmp_path_factory, rows, prices):
        if not prices:
            rows = [row[:4] for row in rows]
        table = EventTable.from_rows(sorted(rows, key=lambda r: r[0]))
        path = tmp_path_factory.mktemp("rt") / "events.csv"
        write_event_csv(table, path)
        assert read_event_csv(path) == table


# cell text a corrupted field may take: valid and invalid integers, codes of
# the other field, blanks and quoted values
BAD_CELLS = ["", " ", "x", "-1", "0", "1.5", "1e3", "7 ", " 12", "T", "a", "B",
             "l", '"3"', "2,5", "999999999999999999"]
TWO_ROWS = [(5, "L", "a", 1, None, False), (9, "T", "b", 2, 3, False)]


def outcome(parse, source):
    """The rows a parser reads from a source, or its error and line."""
    try:
        return "rows", event_rows(parse(source))
    except ParseError as exc:
        return "error", str(exc), exc.line_no


def former_outcome(text: str):
    try:
        events = oracles.read_event_csv(io.StringIO(text))
    except ParseError as exc:
        return "error", str(exc), exc.line_no
    return "rows", [(e.timestamp_us, e.etype, e.side, e.volume, e.price) for e in events]


def assert_paths_agree(text: str) -> EventTable | None:
    """``read_event_csv`` (from a stream and from bytes) and the row parser
    give the former parser's rows or its error and line; the bulk parser
    gives the same rows or declines.  Returns what the bulk parser gave."""
    expected = former_outcome(text)
    assert outcome(read_event_csv, io.StringIO(text)) == expected
    assert outcome(read_event_csv, text.encode()) == expected
    assert outcome(event_io._parse_rows, io.StringIO(text)) == expected
    bulk = event_io._parse_bulk(text.encode())
    if bulk is not None:
        assert ("rows", event_rows(bulk)) == expected
    return bulk


# inputs at the edge of the bulk parser's plain form, and whether it reads
# them itself
EDGE_FILES = {
    "whitespace-only line": (EVENT_HEADER + "5,L,a,1,1\n   \n6,T,b,2,\n", False),
    "comment line": (EVENT_HEADER + "# recorded 2016-03-01\n5,L,a,1,1\n", False),
    "blank line": (EVENT_HEADER + "5,L,a,1,1\n\n6,T,b,2,\n", False),
    "quoted cells": (EVENT_HEADER + '5,"L",a,1,1\n"6",T,b,"2",\n', False),
    "utf-8 bom": ("\ufeff" + EVENT_HEADER + "5,L,a,1,1\n", False),
    "crlf line ends": (EVENT_HEADER.replace("\n", "\r\n") + "5,L,a,1,1\r\n6,T,b,2,\r\n", True),
    "plus sign": (EVENT_HEADER + "+5,L,a,1,1\n", False),
    "underscore digits": (EVENT_HEADER + "1_000,L,a,1,1\n", False),
    "empty price cells": (EVENT_HEADER + "5,L,a,1,\n6,T,b,2,-7\n7,C,a,3,\n", True),
    "no price column": ("timestamp_us,etype,side,volume\n5,L,a,1\n6,T,b,2\n", True),
    "no final line end": (EVENT_HEADER + "5,L,a,1,1\n6,T,b,2,", True),
    "header only": (EVENT_HEADER, False),
    "empty file": ("", False),
    "lone minus sign": (EVENT_HEADER + "5,L,a,1,-\n", False),
    "minus in volume": (EVENT_HEADER + "5,L,a,-1,12\n", False),
    "minus without prices": ("timestamp_us,etype,side,volume\n5,L,a,-12\n", False),
    "minus in timestamp": (EVENT_HEADER + "5,L,a,1,2\n-6,T,b,2,3\n", False),
    "swapped letters": (EVENT_HEADER + "5,a,L,1,1\n", False),
    "digit after type": (EVENT_HEADER + "5,L7,a,1,1\n", False),
    "digit before side": (EVENT_HEADER + "5,L,1a,1,1\n", False),
    "16-digit numbers": (EVENT_HEADER + "1700000000000000,T,b,1234567890123456,"
                                        "-9999999999999999\n", True),
    "17-digit timestamp": (EVENT_HEADER + "17000000000000000,T,b,1,1\n", False),
    "mixed field counts": (EVENT_HEADER + "5,L,a,1\n6,T,b,2,3\n", False),
    "decreasing timestamp": (EVENT_HEADER + "6,L,a,1,1\n5,T,b,2,\n", False),
    "zero volume": (EVENT_HEADER + "5,L,a,0,1\n", False),
}


class TestParserAgainstFormerParser:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 9), st.sampled_from("LCT"),
                              st.sampled_from("ab"), st.integers(1, 10 ** 6),
                              st.one_of(st.none(), st.integers(-10 ** 6, 10 ** 6)),
                              st.booleans()),
                    min_size=1, max_size=12),
           st.integers(0, 11), st.integers(0, 6), st.sampled_from(BAD_CELLS))
    @example(TWO_ROWS, 1, 0, "-1")   # negative timestamp
    @example(TWO_ROWS, 1, 0, "4")    # decreasing timestamp
    @example(TWO_ROWS, 0, 3, "0")    # nonpositive volume
    def test_corrupted_row_gives_former_error(self, rows, which, field, cell):
        lines = []
        for ts, etype, side, volume, price, four in sorted(rows, key=lambda r: r[0]):
            cells = [str(ts), etype, side, str(volume)]
            if not (four and price is None):
                cells.append("" if price is None else str(price))
            lines.append(cells)
        bad = lines[which % len(lines)]
        if field < len(bad):
            bad[field] = cell
        elif field == 5:
            bad.append(cell)  # a sixth field, or a price on a four-field row
        else:
            del bad[1:]  # too few fields
        assert_paths_agree(EVENT_HEADER + "".join(",".join(c) + "\n" for c in lines))

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 16 - 1), st.sampled_from("LCT"),
                              st.sampled_from("ab"), st.integers(1, 10 ** 16 - 1),
                              st.one_of(st.none(), st.integers(-10 ** 16 + 1, 10 ** 16 - 1))),
                    min_size=1, max_size=40),
           st.booleans())
    def test_bulk_parser_reads_written_files(self, tmp_path_factory, rows, prices):
        # every file write_event_csv makes, and the same without prices
        rows = sorted(rows if prices else [row[:4] for row in rows], key=lambda r: r[0])
        table = EventTable.from_rows(rows)
        path = tmp_path_factory.mktemp("bulk") / "events.csv"
        write_event_csv(table, path)
        text = path.read_text(encoding="utf-8")
        if not prices:
            text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
        bulk = assert_paths_agree(text)
        assert bulk == table

    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    def test_edge_files(self, name):
        text, bulk_reads = EDGE_FILES[name]
        assert (assert_paths_agree(text) is not None) == bulk_reads

    @pytest.mark.parametrize("ends", ["\r\n", "\r"])
    def test_carriage_returns_in_a_file(self, tmp_path, ends):
        # a file is read with newline="", which splits lines at a lone '\r'
        # too; the bulk parser declines those and the row parser reads them
        text = (EVENT_HEADER + "5,L,a,1,1\n6,T,b,2,\n").replace("\n", ends)
        path = tmp_path / "events.csv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline="") as fh:
            expected = event_io._parse_rows(fh)
        assert read_event_csv(path) == expected
        assert len(expected) == 2
        assert (event_io._parse_bulk(text.encode()) is None) == (ends == "\r")

    def test_out_of_range_integer_rejected_with_line_number(self):
        body = "5,L,a,1,1\n6,T,b,2,99999999999999999999\n"
        with pytest.raises(ParseError, match="line 3: field 'price' is outside "
                                             "the int64 range"):
            read_event_csv(io.StringIO(EVENT_HEADER + body))

    def test_bulk_parser_ten_times_faster_on_400k_lines(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 400_000
        table = EventTable(np.cumsum(rng.integers(0, 5000, n)) + 34_200_000_000,
                           rng.integers(0, 3, n), rng.integers(0, 2, n),
                           rng.integers(1, 500, n), rng.integers(10_000, 13_000, n),
                           rng.random(n) < 0.9)
        path = tmp_path / "events.csv"
        write_event_csv(table, path)

        def best(parse, repeat):
            # CPU time, which other processes on the machine do not inflate
            times = []
            for _ in range(repeat):
                start = time.process_time()
                result = parse()
                times.append(time.process_time() - start)
            assert result == table
            return min(times)

        def rows():
            with open(path, encoding="utf-8", newline="") as fh:
                return event_io._parse_rows(fh)

        bulk = best(lambda: read_event_csv(path), 5)
        by_row = best(rows, 2)
        assert by_row >= 10 * bulk, f"bulk {bulk:.3f} s, row parser {by_row:.3f} s"


class TestBinningScheme:
    def test_bund_unsigned_table_assignments(self):
        # bins {1},{2},{3},(3,7],(7,20],(20,inf)
        scheme = BinningScheme(BinningMode.UNSIGNED_TRADES, (1, 2, 3, 7, 20))
        assert scheme.dimension == 6
        trades = EventTable.from_rows([(0, EventType.TRADE, Side.ASK, v)
                                       for v in (5, 1, 7, 8, 21)])
        # (3, 7], {1}, (3, 7], (7, 20], (20, inf)
        assert scheme.components(trades).tolist() == [3, 0, 3, 4, 5]

    def test_full_book_component_for_bid_cancel(self):
        scheme = BinningScheme(BinningMode.FULL_BOOK, (1, 3, 10))
        assert scheme.dimension == 24
        e = EventTable.from_rows([(0, EventType.CANCEL, Side.BID, 12)])
        # bid block starts at 12, cancel block at +4, volume 12 -> 4th bin
        assert scheme.components(e).tolist() == [19]
        assert scheme.labels()[19] == "Cb4"

    def test_signed_scheme_orders_sell_then_buy(self):
        scheme = BinningScheme(BinningMode.SIGNED_TRADES, (1, 3, 10))
        sell_buy = EventTable.from_rows([(0, EventType.TRADE, Side.BID, 2),
                                         (0, EventType.TRADE, Side.ASK, 2)])
        assert scheme.components(sell_buy).tolist() == [1, 5]
        assert scheme.labels()[:4] == ["S1", "S2", "S3", "S4"]

    def test_assignment_total_over_volume_range(self):
        for mode in BinningMode:
            scheme = BinningScheme(mode, (1, 3, 10))
            trades = EventTable.from_rows([(0, EventType.TRADE, Side.BID, v)
                                           for v in range(1, 10_001)])
            bins = (scheme.components(trades) % scheme.n_volume_bins).tolist()
            assert all(0 <= b < scheme.n_volume_bins for b in bins)
            # partition: non-decreasing and hits every bin
            assert sorted(set(bins)) == list(range(scheme.n_volume_bins))

    def test_event_template_inverts_component(self):
        for mode in BinningMode:
            scheme = BinningScheme(mode, (1, 3, 10))
            templates = EventTable.from_rows(
                (0, *scheme.event_template(comp)) for comp in range(scheme.dimension))
            assert scheme.components(templates).tolist() == list(range(scheme.dimension))

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
        trades = EventTable.from_rows([(0, EventType.TRADE, Side.ASK, 1),
                                       (0, EventType.TRADE, Side.ASK, 10_000)])
        assert scheme.components(trades).tolist() == [0, 0]
        assert BinningScheme.canonical(1) == scheme
