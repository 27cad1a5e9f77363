"""The package's one CSV layer: every CSV file is written and read here,
a column at a time.

Writing encodes each column in one pass (shortest round-trip ``repr`` for
floats, shared ``"0"``/``"1"`` cells for bits, each label quoted once by
``csv.writer``'s minimal-quoting rules) and joins the cells into lines,
which are written as they are, never joined into one string of the whole
file. Reading parses the file once with ``csv.reader``, transposes the rows
into columns and decodes each column in one pass.

Lines starting with ``#`` are comments only before the header; after it,
every line is data. Continuous cells must be finite.
"""

import csv
import io
from itertools import chain

import numpy as np

from .errors import (
    DataError,
    EmptyColumn,
    LengthMismatch,
    MissingValues,
    NonFinite,
    UnknownColumn,
)

BITS = ("0", "1")

# rows encoded together, which bounds the encoded cells held at once
CHUNK_ROWS = 2048


# ------------------------------------------------------------------ encode


def quote(label):
    """``label`` as ``csv.writer`` writes it among other fields.

    The ``"\r\n"`` terminator makes minimal quoting quote a ``"\r"`` as
    well as a ``"\n"`` (Python 3.11 leaves a bare ``"\r"`` unquoted under
    ``"\n"``, and ``csv.reader`` then splits the row there); files still
    end their lines in ``"\n"``.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([label, ""])
    return buf.getvalue()[:-3]


def float_cells(values):
    """Shortest round-trip text of each value."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def int_cells(values):
    return list(map(str, np.asarray(values).tolist()))


def bit_cells(codes):
    return list(map(BITS.__getitem__, np.asarray(codes).tolist()))


def label_encoder(labels):
    """Encoder of integer codes as the cells of ``labels[code]``."""
    table = [quote(label) for label in labels]
    return lambda codes: list(map(table.__getitem__, np.asarray(codes).tolist()))


def text_cells(values):
    """Strings as cells, each distinct string quoted once."""
    values = list(values)
    table = {value: quote(value) for value in set(values)}
    return list(map(table.__getitem__, values))


def join_rows(columns):
    """One line (with terminator) per row of equal-length cell lists."""
    if len(columns) == 1:
        # csv.writer quotes an empty field when it is a row's only one
        return [(cell or '""') + "\n" for cell in columns[0]]
    return list(map("{}\n".format, map(",".join, zip(*columns))))


def encode_lines(columns, n_rows):
    """Lines of ``n_rows`` rows; ``columns`` pairs each column's encoder
    with its values. Encodes ``CHUNK_ROWS`` rows at a time."""
    lines = []
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        lines += join_rows([encode(values[start:stop]) for encode, values in columns])
    return lines


def write(path, header, lines, meta=None):
    """Write a ``# meta`` comment, the header and the encoded lines.

    Header cells are quoted as labels are. A first header cell starting
    with ``#`` is always quoted, so that ``read`` does not take the header
    for a comment.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        if header and header[0].startswith("#"):
            first, header = header[0].replace('"', '""'), header[1:]
            fh.write(f'"{first}",' if header else f'"{first}"')
        fh.writelines(join_rows([[quote(name)] for name in header]) or ["\n"])
        fh.writelines(lines)


# ------------------------------------------------------------------ decode


def read(path):
    """Columns of a CSV file by header name, in header order; each column
    is a tuple of its cells. Rows must be as wide as the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = next((line for line in fh if not line.startswith("#")), None)
        if first is None:
            raise EmptyColumn("CSV has no header row")
        reader = csv.reader(chain([first], fh))
        try:
            header = next(reader)
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"CSV line {reader.line_num}: {exc}") from None
    width = len(header)
    if len(set(header)) != width:
        dup = next(h for h in header if header.count(h) > 1)
        raise ValueError(f"duplicate column {dup!r}")
    if set(map(len, rows)) - {width}:
        bad = next(len(row) for row in rows if len(row) != width)
        raise LengthMismatch(f"row with {bad} cells, expected {width}")
    columns = zip(*rows) if rows else [()] * width
    return dict(zip(header, columns))


def cells(columns, name):
    """A column's cells; it must exist and have no empty cell."""
    try:
        values = columns[name]
    except KeyError:
        raise UnknownColumn(name) from None
    if "" in values:
        raise MissingValues(name)
    return values


def floats(columns, name):
    values = cells(columns, name)
    out = np.fromiter(map(float, values), np.float64, len(values))
    if not np.isfinite(out).all():
        raise NonFinite(name)
    return out


def ints(columns, name):
    values = cells(columns, name)
    return np.fromiter(map(int, values), np.int64, len(values))


def codes(columns, name, labels):
    """Each cell's position in ``labels``; an unknown cell raises KeyError."""
    values = cells(columns, name)
    index = {label: i for i, label in enumerate(labels)}
    return np.fromiter(map(index.__getitem__, values), np.int64, len(values))
