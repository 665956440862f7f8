"""Domain types for order-flow event streams."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .._jsonio import checked

__all__ = [
    "Side",
    "EventType",
    "EventTable",
    "BinningMode",
    "BinningScheme",
    "Session",
    "MultivariateEventStream",
]

MICROSECOND = 1e-6  # seconds per microsecond


class Side(str, Enum):
    ASK = "a"
    BID = "b"


class EventType(str, Enum):
    LIMIT = "L"
    CANCEL = "C"
    TRADE = "T"


class BinningMode(str, Enum):
    UNSIGNED_TRADES = "unsigned_trades"
    SIGNED_TRADES = "signed_trades"
    FULL_BOOK = "full_book"


_FULL_BOOK_TYPE_ORDER = (EventType.LIMIT, EventType.CANCEL, EventType.TRADE)
_SIDE_ORDER = (Side.ASK, Side.BID)
# Component blocks of each mode in component order, one component per volume
# bin: (event type, side or None for either, label prefix, report quadrant).
# A trade on the bid side is a sell, on the ask side a buy; sells come first.
_LAYOUTS = {
    BinningMode.UNSIGNED_TRADES: ((EventType.TRADE, None, "B", None),),
    BinningMode.SIGNED_TRADES: ((EventType.TRADE, Side.BID, "S", "sell"),
                                (EventType.TRADE, Side.ASK, "B", "buy")),
    BinningMode.FULL_BOOK: tuple(
        (etype, side, f"{etype.value}{side.value}", side.name.lower())
        for side in _SIDE_ORDER for etype in _FULL_BOOK_TYPE_ORDER),
}
# EventTable codes: indices into the orders, keyed by letter or str enum.
TYPE_CODE = {t.value: i for i, t in enumerate(_FULL_BOOK_TYPE_ORDER)}
SIDE_CODE = {s.value: i for i, s in enumerate(_SIDE_ORDER)}
_COLUMNS = {"ts_us": np.int64, "etype": np.uint8, "side": np.uint8,
            "volume": np.int64, "price": np.int64, "has_price": np.bool_}


@dataclass(frozen=True, eq=False)
class EventTable:
    """One session of typed first-level order-book events as columns.

    ``etype`` and ``side`` hold the codes of :data:`TYPE_CODE` and
    :data:`SIDE_CODE`; ``price`` is 0 where ``has_price`` is false.
    Columns of any integer sequence are converted to the dtypes of
    ``_COLUMNS`` and checked once: equal lengths, nonnegative nondecreasing
    timestamps, codes in range and volumes of at least 1.
    """

    ts_us: np.ndarray
    etype: np.ndarray
    side: np.ndarray
    volume: np.ndarray
    price: np.ndarray
    has_price: np.ndarray

    def __post_init__(self):
        n = len(self.ts_us)
        cols = {name: np.asarray(getattr(self, name), dtype=np.int64)
                for name in _COLUMNS}
        if any(c.shape != (n,) for c in cols.values()):
            raise ValueError("event columns must be flat and of equal length")
        bad = np.flatnonzero(np.diff(cols["ts_us"], prepend=0) < 0)
        if len(bad):
            raise ValueError(f"timestamp at row {bad[0]} is negative or decreasing")
        for name, n_codes in (("etype", len(TYPE_CODE)), ("side", len(SIDE_CODE))):
            if np.any((cols[name] < 0) | (cols[name] >= n_codes)):
                raise ValueError(f"{name} code outside [0, {n_codes})")
        if np.any(cols["volume"] < 1):
            raise ValueError("nonpositive volume")
        cols["price"] = np.where(cols["has_price"] != 0, cols["price"], 0)
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name, cols[name].astype(dtype))

    @classmethod
    def from_rows(cls, rows) -> "EventTable":
        """Table of ``(ts_us, etype, side, volume[, price])`` rows, with
        etype and side as enum members or their letters; a price of None
        is absent."""
        rows = [tuple(r) + (None,) * (5 - len(r)) for r in rows]
        ts, etype, side, volume, price = list(zip(*rows)) or [()] * 5
        return cls(ts, [TYPE_CODE[EventType(e)] for e in etype],
                   [SIDE_CODE[Side(s)] for s in side], volume,
                   [p or 0 for p in price], [p is not None for p in price])

    def __len__(self) -> int:
        return len(self.ts_us)

    def take(self, rows: np.ndarray) -> "EventTable":
        return EventTable(*(getattr(self, name)[rows] for name in _COLUMNS))

    def __eq__(self, other) -> bool:
        return isinstance(other, EventTable) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMNS)


@dataclass(frozen=True)
class BinningScheme:
    """Maps (event type, side, volume) to a Hawkes component index.

    ``edges`` are volume breakpoints: bins are ``[1, e1], (e1, e2], ...,
    (ek, inf)`` so the first bin is the singleton ``{1}`` whenever
    ``e1 == 1``.  An empty edge list means a single bin ``[1, inf)``,
    i.e. volume is ignored.
    """

    mode: BinningMode
    edges: tuple[int, ...]

    def __post_init__(self):
        if any(e < 1 for e in self.edges):
            raise ValueError("breakpoints must be >= 1")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def n_volume_bins(self) -> int:
        return len(self.edges) + 1

    @property
    def dimension(self) -> int:
        return len(_LAYOUTS[self.mode]) * self.n_volume_bins

    def components(self, table: EventTable) -> np.ndarray:
        """Component index of each event, -1 where the scheme drops it."""
        k = self.n_volume_bins
        comp_of = np.full((len(TYPE_CODE), len(SIDE_CODE), k), -1, dtype=np.int64)
        for b, (etype, side, _, _) in enumerate(_LAYOUTS[self.mode]):
            comp_of[TYPE_CODE[etype], SIDE_CODE[side] if side else slice(None)] = \
                np.arange(b * k, (b + 1) * k)
        vbin = np.searchsorted(np.asarray(self.edges, dtype=np.int64), table.volume)
        return comp_of[table.etype, table.side, vbin]

    def labels(self) -> list[str]:
        return [f"{prefix}{i + 1}" for _, _, prefix, _ in _LAYOUTS[self.mode]
                for i in range(self.n_volume_bins)]

    def side_blocks(self) -> dict[str, list[int]] | None:
        """Component indices per book side, for quadrant reports."""
        k = self.n_volume_bins
        out = {}
        for b, (_, _, _, quadrant) in enumerate(_LAYOUTS[self.mode]):
            if quadrant:
                out.setdefault(quadrant, []).extend(range(b * k, (b + 1) * k))
        return out or None

    def event_template(self, comp: int) -> tuple[EventType, Side, int]:
        """(etype, side, volume) mapping back to the given component;
        inverse of :meth:`components` up to the representative volume."""
        if not 0 <= comp < self.dimension:
            raise IndexError(f"component {comp} outside dimension {self.dimension}")
        block, b = divmod(comp, self.n_volume_bins)
        etype, side, _, _ = _LAYOUTS[self.mode][block]
        volume = (0, *self.edges)[b] + 1  # the smallest volume of bin b
        return etype, side or Side.ASK, volume

    def to_dict(self) -> dict:
        return {"mode": self.mode.value, "edges": list(self.edges)}

    @classmethod
    def from_dict(cls, d: dict) -> "BinningScheme":
        try:
            mode = BinningMode(d["mode"])
            edges = checked(d["edges"], "edges", list, "a list")
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"invalid binning scheme config: {exc}") from exc
        return cls(mode, tuple(checked(e, f"edges[{k}]", int, "an integer")
                               for k, e in enumerate(edges)))

    @classmethod
    def canonical(cls, dimension: int) -> "BinningScheme":
        """Unsigned scheme whose bins are {1}, {2}, ..., {D-1}, (D-1, inf).

        Used to round-trip purely synthetic D-component streams through the
        event CSV format: component ``i`` maps to trades of volume ``i + 1``.
        """
        if dimension < 1:
            raise ValueError("canonical scheme needs dimension >= 1")
        return cls(BinningMode.UNSIGNED_TRADES, tuple(range(1, dimension)))


@dataclass(frozen=True)
class Session:
    """One trading session of a multivariate point process.

    ``times`` holds one strictly increasing float64 array of event times in
    seconds per component, all within ``[0, duration]``.
    """

    session_id: str
    duration: float
    times: tuple[np.ndarray, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError(
                f"session duration must be finite and positive, got {self.duration}")
        for i, t in enumerate(self.times):
            if len(t) == 0:
                continue
            if t[0] < 0 or t[-1] > self.duration:
                raise ValueError(f"component {i}: times outside [0, duration]")
            if np.any(np.diff(t) <= 0):
                raise ValueError(f"component {i}: times not strictly increasing")

    @property
    def counts(self) -> np.ndarray:
        return np.array([len(t) for t in self.times])


@dataclass(frozen=True)
class MultivariateEventStream:
    """Per-session, per-component event timestamps; the estimator's input."""

    dimension: int
    sessions: tuple[Session, ...]

    def __post_init__(self):
        for s in self.sessions:
            if len(s.times) != self.dimension:
                raise ValueError(
                    f"session {s.session_id}: {len(s.times)} components, "
                    f"expected {self.dimension}")

    @property
    def total_time(self) -> float:
        return float(sum(s.duration for s in self.sessions))

    @property
    def total_counts(self) -> np.ndarray:
        out = np.zeros(self.dimension, dtype=np.int64)
        for s in self.sessions:
            out += s.counts
        return out
