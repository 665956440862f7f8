"""Order reconstruction from level-I snapshot records.

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

import logging
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .types import EventTable, EventType, RawRecord, RecordKind, Side

__all__ = [
    "ReconstructionDiagnostics",
    "reconstruct_orders",
    "aggregate_simultaneous",
]

logger = logging.getLogger(__name__)


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
