"""Event CSV ingestion and serialization, and binning scheme files.

An event CSV holds one typed order event per line:
``timestamp_us,etype,side,volume[,price]`` with etype in {L,C,T} and side
in {a,b}.  ``read_event_csv`` parses a file in bulk first: numpy finds
every byte that is not a digit, checks that each line reads as commas
around one type and one side letter, reads each number from the 8-byte
words before its end, and hands the columns to ``EventTable`` to check in
one pass.  A file the bulk parser does not accept as it stands (anything
outside the plain form ``_parse_bulk`` describes, or columns
``EventTable`` rejects) is read again by the row parser, which checks line
by line and raises every ``ParseError`` with its message and line number.
The two give the same table for every file the bulk parser accepts.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TextIO

import numpy as np

from .._jsonio import read_json, write_json
from .._tables import int_cells, write_table
from ..errors import ParseError
from .types import (_FULL_BOOK_TYPE_ORDER, _SIDE_ORDER, SIDE_CODE, TYPE_CODE,
                    BinningScheme, EventTable, EventType, Side)

__all__ = [
    "read_event_csv",
    "write_event_csv",
    "load_binning_scheme",
    "save_binning_scheme",
    "EVENT_HEADER",
]

EVENT_HEADER = ["timestamp_us", "etype", "side", "volume", "price"]
# the headers a file may open with: the price column is optional
_HEADERS = (EVENT_HEADER, EVENT_HEADER[:-1])


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


def read_event_csv(source) -> EventTable:
    """Parse an event CSV (a path, its bytes or a text stream) into a table,
    enforcing timestamp order: in bulk, or by the row parser where the bulk
    parser declines."""
    text = None
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        text = source.read()
        data = text.encode("utf-8", "surrogatepass")
    table = _parse_bulk(data)
    if table is None:
        # a path or stream splits lines as a file opened with newline=""
        # does, bytes at LF only
        newline = "\n" if isinstance(source, (bytes, bytearray)) else ""
        table = _parse_rows(io.StringIO(data.decode("utf-8") if text is None else text,
                                        newline=newline))
    return table


def _parse_rows(fh: TextIO) -> EventTable:
    """The row parser: each line checked in turn, so that an error names
    its line."""
    reader = csv.reader(fh)
    header = next(reader, None)   # None for an empty file
    if header is not None:
        header = [h.strip() for h in header]
        if header not in _HEADERS:
            raise ParseError(f"unexpected header {header!r}, expected {EVENT_HEADER!r}", 1)
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


# The codes of the event-type and side letters, 255 (out of range) for any
# other byte.
_TYPE_OF = np.full(256, 255, dtype=np.uint8)
_SIDE_OF = np.full(256, 255, dtype=np.uint8)
for _table, _codes in ((_TYPE_OF, TYPE_CODE), (_SIDE_OF, SIDE_CODE)):
    for _char, _code in _codes.items():
        _table[ord(_char)] = _code
_BULK_HEADERS = tuple(",".join(header).encode() for header in _HEADERS)
# The bulk parser reads this many bytes of lines at a time, so that its
# temporaries stay small.
_BULK_BYTES = 1 << 20
# A number is read as the two 8-byte words before its end (the header keeps
# the first ones inside the text); longer numbers go to the row parser.
_MAX_DIGITS = 16
# the low nibbles of the last k bytes of a little-endian word, which hold
# the values of ASCII digits
_DIGIT_BITS = np.array([(2 ** 64 - 2 ** (64 - 8 * k)) & 0x0F0F0F0F0F0F0F0F
                        for k in range(9)], dtype=np.uint64)
# (mask, multiplier, shift) that combine the digits of a word into pairs,
# the pairs into quads and the quads into its value
_COMBINE = [tuple(np.uint64(v) for v in step) for step in (
    (0x0F0F0F0F0F0F0F0F, 10 * 2 ** 8 + 1, 8),
    (0x00FF00FF00FF00FF, 100 * 2 ** 16 + 1, 16),
    (0x0000FFFF0000FFFF, 10000 * 2 ** 32 + 1, 32))]


def _decimals(words: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The values of the fields of ``width`` digits (0 to 16) that end
    before ``end``, read as two 8-byte words of digits."""
    value = None
    for shift in ((8, 0) if width.max(initial=0) > 8 else (0,)):
        d = words[end - shift - 8]
        d &= np.take(_DIGIT_BITS, width - shift, mode="clip")
        for mask, multiplier, bits in _COMBINE:
            d &= mask
            d *= multiplier
            d >>= bits
        d = d.view(np.int64)   # at most 10**8
        if value is None:
            value = d
        else:
            value *= 10 ** 8
            value += d
    return value


def _parse_bulk(data: bytes) -> EventTable | None:
    """The table of an event CSV's bytes, parsed in numpy; None for a file
    outside the plain form read here, which the row parser then reads.

    The plain form: one of the two headers exactly, then lines of 4 or 5
    comma-separated fields, each line ending in LF or CR LF; whole numbers
    of 1 to 16 digits, the price of up to 16 digits after an optional minus
    sign, or empty; no blank line, space, quote or any other byte; columns
    ``EventTable`` accepts.  Such a file gives the row parser's table."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")    # a lone CR fails below
    if not data.endswith(b"\n"):
        data += b"\n"
    begin = data.index(b"\n") + 1
    if data[:begin - 1] not in _BULK_HEADERS or begin == len(data):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # words[p]: the 8 bytes from p on, as one little-endian word
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    pieces = []
    while begin < len(data):
        end = data.index(b"\n", min(begin + _BULK_BYTES, len(data)) - 1) + 1
        columns = _parse_lines(buf, words, begin, end)
        if columns is None:
            return None
        pieces.append(columns)
        begin = end
    try:
        return EventTable(*map(np.concatenate, zip(*pieces)))
    except ValueError:  # the row parser names the line
        return None


def _parse_lines(buf: np.ndarray, words: np.ndarray, begin: int, end: int):
    """The six ``EventTable`` columns of the whole lines ``buf[begin:end]``,
    or None if one of them is outside the plain form."""
    not_digit = buf[begin:end] - 48
    np.greater(not_digit, 9, out=not_digit.view(bool))
    at = np.flatnonzero(not_digit.view(bool))
    at += begin
    kind = buf[at]
    minus = kind == ord("-")
    signs = at[minus]
    if len(signs):
        at, kind = at[~minus], kind[~minus]
    n = np.count_nonzero(kind == ord("\n"))
    n_fields = len(at) // n - 2
    if n_fields not in (4, 5) or len(at) != n * (n_fields + 2):
        return None
    at, kind = at.reshape(n, -1), kind.reshape(n, -1)
    # ",<type>,<side>," with nothing in between, then commas and a line end;
    # EventTable refuses the code of a byte that is no type or side letter
    if not ((at[:, 4] - at[:, 0] == 4).all() and (kind[:, -1] == ord("\n")).all()
            and (kind[:, [0, 2, *range(4, n_fields + 1)]] == ord(",")).all()):
        return None
    start = np.concatenate([[begin], at[:-1, -1] + 1])
    widths = [at[:, 0] - start, at[:, 5] - at[:, 4] - 1]
    has_price = np.zeros(n, dtype=bool)
    negative = np.zeros(n, dtype=bool)
    if n_fields == 5:
        price_start = at[:, 5] + 1
        has_price = at[:, 6] > price_start
        # each minus sign opens a price
        row = np.minimum(np.searchsorted(price_start, signs), n - 1)
        if not (price_start[row] == signs).all():
            return None
        negative[row] = True
        widths.append(at[:, 6] - price_start - negative)
        if (negative & (widths[-1] == 0)).any():
            return None
    elif len(signs):
        return None
    if min(w.min() for w in widths[:2]) < 1 or max(w.max() for w in widths) > _MAX_DIGITS:
        return None
    price = (_decimals(words, at[:, 6], widths[2]) if n_fields == 5
             else np.zeros(n, dtype=np.int64))
    np.negative(price, out=price, where=negative)
    return (_decimals(words, at[:, 0], widths[0]), _TYPE_OF[kind[:, 1]],
            _SIDE_OF[kind[:, 3]], _decimals(words, at[:, 5], widths[1]), price,
            has_price)


def _letters(order, codes: np.ndarray) -> list[str]:
    return np.array([member.value for member in order])[codes].tolist()


def write_event_csv(table: EventTable, path) -> None:
    """Write a table as an event CSV; absent prices are empty cells."""
    prices = [p if has else "" for p, has
              in zip(int_cells(table.price), table.has_price.tolist())]
    write_table(path, EVENT_HEADER, [
        int_cells(table.ts_us), _letters(_FULL_BOOK_TYPE_ORDER, table.etype),
        _letters(_SIDE_ORDER, table.side), int_cells(table.volume), prices])


def load_binning_scheme(path) -> BinningScheme:
    try:
        return BinningScheme.from_dict(read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_binning_scheme(scheme: BinningScheme, path) -> None:
    write_json(path, scheme.to_dict())
