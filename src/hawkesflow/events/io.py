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

import csv
import io
import json
from pathlib import Path
from typing import Iterable, TextIO

from ..errors import ParseError
from .types import BinningScheme, EventType, OrderEvent, RawRecord, RecordKind, Side

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


def _open_text(source) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    return source


def _int_field(row: dict, key: str, line_no: int, required: bool = True) -> int | None:
    raw = (row.get(key) or "").strip()
    if not raw:
        if required:
            raise ParseError(f"missing field '{key}'", line_no)
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"field '{key}' is not an integer: {raw!r}", line_no)


def _check_header(header: list[str] | None, expected: list[str], optional_tail: int = 0):
    if header is None:
        return  # empty file
    got = [h.strip() for h in header]
    for n_opt in range(optional_tail + 1):
        if got == expected[: len(expected) - n_opt]:
            return
    raise ParseError(f"unexpected header {got!r}, expected {expected!r}", 1)


def read_event_csv(source) -> list[OrderEvent]:
    """Parse an event CSV into OrderEvents, enforcing timestamp order."""
    fh = _open_text(source)
    close = isinstance(source, (str, Path, bytes, bytearray))
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, EVENT_HEADER, optional_tail=1)
        events: list[OrderEvent] = []
        prev_ts = None
        for line_no, parts in enumerate(reader, start=2):
            if not parts:
                continue
            if len(parts) not in (4, 5):
                raise ParseError(f"expected 4 or 5 fields, got {len(parts)}", line_no)
            row = dict(zip(EVENT_HEADER, parts))
            ts = _int_field(row, "timestamp_us", line_no)
            if ts < 0:
                raise ParseError("negative timestamp", line_no)
            if prev_ts is not None and ts < prev_ts:
                raise ParseError(
                    f"decreasing timestamp {ts} after {prev_ts}", line_no)
            prev_ts = ts
            try:
                etype = EventType(row["etype"].strip())
                side = Side(row["side"].strip())
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            volume = _int_field(row, "volume", line_no)
            if volume < 1:
                raise ParseError("nonpositive volume", line_no)
            price = _int_field(row, "price", line_no, required=False)
            events.append(OrderEvent(ts, etype, side, volume, price))
        return events
    finally:
        if close:
            fh.close()


def write_event_csv(events: Iterable[OrderEvent], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVENT_HEADER)
        for e in events:
            writer.writerow([
                e.timestamp_us, e.etype.value, e.side.value, e.volume,
                "" if e.price is None else e.price,
            ])


def read_snapshot_csv(source) -> list[RawRecord]:
    """Parse a snapshot CSV into RawRecords, enforcing timestamp order."""
    fh = _open_text(source)
    close = isinstance(source, (str, Path, bytes, bytearray))
    try:
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
            ts = _int_field(row, "timestamp_us", line_no)
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
                rec = RawRecord(
                    ts, kind,
                    bid_price=_int_field(row, "bid_price", line_no),
                    bid_size=_int_field(row, "bid_size", line_no),
                    ask_price=_int_field(row, "ask_price", line_no),
                    ask_size=_int_field(row, "ask_size", line_no),
                )
            else:
                side_raw = (row.get("trade_side") or "").strip()
                try:
                    side = Side(side_raw)
                except ValueError:
                    raise ParseError(f"unknown trade side {side_raw!r}", line_no)
                rec = RawRecord(
                    ts, kind,
                    trade_price=_int_field(row, "trade_price", line_no),
                    trade_volume=_int_field(row, "trade_volume", line_no),
                    trade_side=side,
                )
            try:
                rec.validate()
            except ValueError as exc:
                raise ParseError(str(exc), line_no)
            records.append(rec)
        return records
    finally:
        if close:
            fh.close()


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
