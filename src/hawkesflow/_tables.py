"""CSV tables written a column at a time, one ``write`` per file.

Numbers print in shortest round-trip form (``repr`` of a Python float), one
``tolist`` pass per column, and never need quoting; headers and labels are
quoted exactly as the ``csv`` module quotes them (QUOTE_MINIMAL).
"""

from __future__ import annotations

import csv
import io

import numpy as np


def float_cells(values) -> list[str]:
    """``repr(float(v))`` of each value."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def float_cell_rows(rows) -> list[list[str]]:
    """``float_cells`` of each row of a 2-D array, with one ``repr`` per
    distinct float64 bit pattern, so ``-0.0`` and ``0.0`` stay apart."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    bits, where = np.unique(rows.view(np.uint64).ravel(), return_inverse=True)
    cells = np.array(float_cells(bits.view(np.float64)), dtype=object)
    return cells[where.reshape(rows.shape)].tolist()


def int_cells(values) -> list[str]:
    """``str(int(v))`` of each value."""
    return list(map(str, np.asarray(values, dtype=np.int64).tolist()))


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def text_cells(texts) -> list[str]:
    """Each string as the ``csv`` module writes it inside a row."""
    return [_csv_line([text, ""])[:-2] for text in texts]


def write_table(path, header: list[str], columns: list[list[str]]) -> None:
    """Write ``header`` and one row per index of ``columns``, each a list of
    cell text from the functions above; rows stop at the shortest column."""
    lines = list(map(",".join, zip(*columns)))
    if len(columns) == 1:
        # csv quotes a record that is a single empty field
        lines = [line or '""' for line in lines]
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_line(header) + "\n".join(lines))


def write_matrix_csv(path, matrix, row_labels: list[str],
                     col_labels: list[str]) -> None:
    """A matrix with a header of column labels and a label on each row."""
    columns = [text_cells(row_labels)]
    columns += [float_cells(col) for col in np.asarray(matrix, dtype=np.float64).T]
    write_table(path, [""] + list(col_labels), columns)
