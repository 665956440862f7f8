"""Level-I snapshot records and order reconstruction from them.

A snapshot CSV holds one level-I record per line:
``timestamp_us,kind,bid_price,bid_size,ask_price,ask_size,trade_price,
trade_volume,trade_side`` with kind in {Q,T} and unused fields empty.  A
quote snapshot (Q) fills the four quote fields, a trade record (T) the
three trade fields.

Each best-quote transition is classified side by side:

* same price, size up -> limit order of the delta;
* same price, size down -> trade-explained part consumes coincident trade
  volume at that side and timestamp, any residual drop is a cancel;
* price improves (new best inside the old one) -> limit order of the
  displayed size at the new best;
* price recedes -> cancellation of the whole old best queue net of
  coincident trades; the newly revealed level generates no limit event,
  since depth beyond level I is unobservable.

Valid trade records always become trade events with their recorded volume.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby

import numpy as np

from ..errors import ParseError
from .io import _check_header, _int_field, _open_text
from .types import EventTable, EventType, Side

__all__ = [
    "RecordKind",
    "RawRecord",
    "SNAPSHOT_HEADER",
    "read_snapshot_csv",
    "ReconstructionDiagnostics",
    "reconstruct_orders",
    "aggregate_simultaneous",
]

logger = logging.getLogger(__name__)

SNAPSHOT_HEADER = [
    "timestamp_us", "kind", "bid_price", "bid_size", "ask_price", "ask_size",
    "trade_price", "trade_volume", "trade_side",
]


class RecordKind(str, Enum):
    QUOTE_SNAPSHOT = "Q"
    TRADE = "T"


@dataclass(frozen=True)
class RawRecord:
    """One line of normalized level-I market data.

    Quote snapshots carry the best quotes on both sides; trade records carry
    the executed price, volume and the side of the book that was hit.
    Timestamps are integer microseconds since the session start.
    """

    timestamp_us: int
    kind: RecordKind
    bid_price: int | None = None
    bid_size: int | None = None
    ask_price: int | None = None
    ask_size: int | None = None
    trade_price: int | None = None
    trade_volume: int | None = None
    trade_side: Side | None = None

    def validate(self) -> None:
        if self.timestamp_us < 0:
            raise ValueError("negative timestamp")
        if self.kind is RecordKind.QUOTE_SNAPSHOT:
            for name in ("bid_price", "bid_size", "ask_price", "ask_size"):
                v = getattr(self, name)
                if v is None or v <= 0:
                    raise ValueError(f"nonpositive {name}")
            if self.bid_price >= self.ask_price:
                raise ValueError("crossed quotes: bid_price >= ask_price")
        else:
            if self.trade_volume is None or self.trade_volume <= 0:
                raise ValueError("nonpositive volume")
            if self.trade_price is None or self.trade_price <= 0:
                raise ValueError("nonpositive trade_price")
            if self.trade_side is None:
                raise ValueError("missing trade side")


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


@dataclass
class ReconstructionDiagnostics:
    """Counters for records the reconstruction had to skip."""

    skipped_records: int = 0
    inconsistent_transitions: int = 0
    messages: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.inconsistent_transitions += 1
        self.skipped_records += 1
        if len(self.messages) < 100:
            self.messages.append(message)
        logger.warning("reconstruction: %s", message)


def _side_transition(side: Side, ts: int, old_price: int, old_size: int,
                     new_price: int, new_size: int,
                     avail: dict[Side, int]) -> list[tuple]:
    events: list[tuple] = []
    if side is Side.ASK:
        improves = new_price < old_price
    else:
        improves = new_price > old_price

    if new_price == old_price:
        delta = new_size - old_size
        if delta > 0:
            events.append((ts, EventType.LIMIT, side, delta, new_price))
        elif delta < 0:
            drop = -delta
            consumed = min(drop, avail[side])
            avail[side] -= consumed
            residual = drop - consumed
            if residual > 0:
                events.append((ts, EventType.CANCEL, side, residual, old_price))
    elif improves:
        events.append((ts, EventType.LIMIT, side, new_size, new_price))
    else:
        # Old best queue gone: trades first, the rest was pulled.
        consumed = min(old_size, avail[side])
        avail[side] -= consumed
        residual = old_size - consumed
        if residual > 0:
            events.append((ts, EventType.CANCEL, side, residual, old_price))
    return events


def reconstruct_orders(records: list[RawRecord],
                       diagnostics: ReconstructionDiagnostics | None = None,
                       ) -> EventTable:
    """Classify snapshot transitions and trade records into an event table.

    ``records`` must be sorted by timestamp and start with a quote snapshot.
    Records that fail :meth:`RawRecord.validate` (nonpositive price, size or
    volume, crossed quotes) are skipped and counted in ``diagnostics``.
    """
    if records and records[0].kind is not RecordKind.QUOTE_SNAPSHOT:
        raise ValueError("first record must be a quote snapshot")
    diag = diagnostics if diagnostics is not None else ReconstructionDiagnostics()

    events: list[tuple] = []  # (ts_us, etype, side, volume, price) rows
    best: dict[Side, tuple[int, int]] = {}

    for ts, group_iter in groupby(records, key=lambda r: r.timestamp_us):
        group = []
        for rec in group_iter:
            try:
                rec.validate()
            except ValueError as exc:
                diag.note(f"t={ts}: {rec.kind.name.lower()} record skipped: {exc}")
            else:
                group.append(rec)
        # Trade volume available to explain queue drops at this timestamp.
        avail = {Side.ASK: 0, Side.BID: 0}
        for rec in group:
            if rec.kind is RecordKind.TRADE:
                avail[rec.trade_side] += rec.trade_volume
                events.append((ts, EventType.TRADE, rec.trade_side,
                               rec.trade_volume, rec.trade_price))
        for rec in group:
            if rec.kind is not RecordKind.QUOTE_SNAPSHOT:
                continue
            new = {Side.ASK: (rec.ask_price, rec.ask_size),
                   Side.BID: (rec.bid_price, rec.bid_size)}
            if best:
                for side in (Side.ASK, Side.BID):
                    events.extend(_side_transition(
                        side, ts, *best[side], *new[side], avail))
            best = new

    return EventTable.from_rows(events)


def aggregate_simultaneous(table: EventTable) -> EventTable:
    """Merge events sharing (timestamp, side, type) by summing volumes.

    Each merged event sits where the first of its group was and keeps that
    event's price.  Simultaneous events on opposite sides, or of different
    types, are kept separate.  Idempotent.
    """
    keys = np.stack([table.ts_us, table.side, table.etype])
    _, first, group = np.unique(keys, axis=1, return_index=True,
                                return_inverse=True)
    volume = np.zeros(len(first), dtype=np.int64)
    np.add.at(volume, group.ravel(), table.volume)
    order = np.argsort(first)
    return replace(table.take(first[order]), volume=volume[order])
