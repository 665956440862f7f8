"""CSV ingestion and serialization for event data.

Two normalized formats are supported:

* event CSV, one typed order event per line:
  ``timestamp_us,etype,side,volume[,price]`` with etype in {L,C,T} and
  side in {a,b};
* snapshot CSV, the raw material for order reconstruction:
  ``timestamp_us,kind,bid_price,bid_size,ask_price,ask_size,trade_price,
  trade_volume,trade_side`` with kind in {Q,T} and unused fields empty.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path
from typing import ContextManager, TextIO

import numpy as np

from .._tables import int_cells, write_table
from ..errors import ParseError
from .types import (_FULL_BOOK_TYPE_ORDER, _SIDE_ORDER, SIDE_CODE, TYPE_CODE,
                    BinningScheme, EventTable, EventType, RawRecord, RecordKind, Side)

__all__ = [
    "read_event_csv",
    "write_event_csv",
    "read_snapshot_csv",
    "load_binning_scheme",
    "save_binning_scheme",
    "EVENT_HEADER",
    "SNAPSHOT_HEADER",
]

EVENT_HEADER = ["timestamp_us", "etype", "side", "volume", "price"]
SNAPSHOT_HEADER = [
    "timestamp_us", "kind", "bid_price", "bid_size", "ask_price", "ask_size",
    "trade_price", "trade_volume", "trade_side",
]


def _open_text(source) -> ContextManager[TextIO]:
    """A text stream over a path, bytes or an open stream; closing it closes
    a file opened here and leaves a caller's stream open."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    return contextlib.nullcontext(source)


def _int_field(raw: str | None, key: str, line_no: int,
               required: bool = True) -> int | None:
    raw = (raw or "").strip()
    if not raw:
        if required:
            raise ParseError(f"missing field '{key}'", line_no)
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"field '{key}' is not an integer: {raw!r}", line_no)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ParseError(f"field '{key}' is outside the int64 range: {raw!r}", line_no)
    return value


def _check_header(header: list[str] | None, expected: list[str], optional_tail: int = 0):
    if header is None:
        return  # empty file
    got = [h.strip() for h in header]
    for n_opt in range(optional_tail + 1):
        if got == expected[: len(expected) - n_opt]:
            return
    raise ParseError(f"unexpected header {got!r}, expected {expected!r}", 1)


def read_event_csv(source) -> EventTable:
    """Parse an event CSV into a table, enforcing timestamp order."""
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, EVENT_HEADER, optional_tail=1)
        ts_col, type_col, side_col, vol_col, price_col = [], [], [], [], []
        prev_ts = None
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) not in (4, 5):
                raise ParseError(f"expected 4 or 5 fields, got {len(parts)}", line_no)
            ts = _int_field(parts[0], "timestamp_us", line_no)
            if ts < 0:
                raise ParseError("negative timestamp", line_no)
            if prev_ts is not None and ts < prev_ts:
                raise ParseError(
                    f"decreasing timestamp {ts} after {prev_ts}", line_no)
            prev_ts = ts
            etype = TYPE_CODE.get(parts[1].strip())
            side = SIDE_CODE.get(parts[2].strip())
            if etype is None or side is None:
                try:  # the enums word the error
                    EventType(parts[1].strip()), Side(parts[2].strip())
                except ValueError as exc:
                    raise ParseError(str(exc), line_no)
            volume = _int_field(parts[3], "volume", line_no)
            if volume < 1:
                raise ParseError("nonpositive volume", line_no)
            price = _int_field(parts[4] if len(parts) == 5 else None, "price",
                               line_no, required=False)
            ts_col.append(ts)
            type_col.append(etype)
            side_col.append(side)
            vol_col.append(volume)
            price_col.append(price)
        return EventTable(ts_col, type_col, side_col, vol_col,
                          [p or 0 for p in price_col],
                          [p is not None for p in price_col])


def _letters(order, codes: np.ndarray) -> list[str]:
    return np.array([member.value for member in order])[codes].tolist()


def write_event_csv(table: EventTable, path) -> None:
    """Write a table as an event CSV; absent prices are empty cells."""
    prices = [p if has else "" for p, has
              in zip(int_cells(table.price), table.has_price.tolist())]
    write_table(path, EVENT_HEADER, [
        int_cells(table.ts_us), _letters(_FULL_BOOK_TYPE_ORDER, table.etype),
        _letters(_SIDE_ORDER, table.side), int_cells(table.volume), prices])


def read_snapshot_csv(source) -> list[RawRecord]:
    """Parse a snapshot CSV into RawRecords, enforcing timestamp order."""
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, SNAPSHOT_HEADER)
        records: list[RawRecord] = []
        prev_ts = None
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) != len(SNAPSHOT_HEADER):
                raise ParseError(
                    f"expected {len(SNAPSHOT_HEADER)} fields, got {len(parts)}",
                    line_no)
            row = dict(zip(SNAPSHOT_HEADER, parts))
            ts = _int_field(row["timestamp_us"], "timestamp_us", line_no)
            if prev_ts is not None and ts < prev_ts:
                raise ParseError(
                    f"decreasing timestamp {ts} after {prev_ts}", line_no)
            prev_ts = ts
            kind_raw = row["kind"].strip()
            try:
                kind = RecordKind(kind_raw)
            except ValueError:
                raise ParseError(f"unknown record kind {kind_raw!r}", line_no)
            if kind is RecordKind.QUOTE_SNAPSHOT:
                rec = RawRecord(ts, kind, **{
                    key: _int_field(row[key], key, line_no)
                    for key in ("bid_price", "bid_size", "ask_price", "ask_size")})
            else:
                side_raw = row["trade_side"].strip()
                try:
                    side = Side(side_raw)
                except ValueError:
                    raise ParseError(f"unknown trade side {side_raw!r}", line_no)
                rec = RawRecord(ts, kind, trade_side=side, **{
                    key: _int_field(row[key], key, line_no)
                    for key in ("trade_price", "trade_volume")})
            try:
                rec.validate()
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            records.append(rec)
        return records


def load_binning_scheme(path) -> BinningScheme:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid scheme file: {exc}")
    return BinningScheme.from_dict(d)


def save_binning_scheme(scheme: BinningScheme, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme.to_dict(), fh, indent=2)
        fh.write("\n")
