"""The package's one CSV layer: every CSV file is written and read here,
a column at a time.

``write_typed`` takes each column as its kind and values: ``"float"``,
``"int"`` (written only, for row index columns), a tuple of labels
(integer codes into it; a binary column's are ``BITS``), or ``"text"``.
It encodes ``CHUNK_ROWS`` rows at a time, each column of a chunk in one
pass (shortest round-trip ``repr`` for floats, each label quoted once by
``csv.writer``'s minimal-quoting rules), and joins the cells into lines.
A chunk's lines are written to the file, and those of the rows each part
file holds to that file, before the next chunk is encoded: nothing is
returned, and no more than one chunk's lines is ever held.

``read_typed`` reads with the caller naming each column's kind:
``"float"``, a tuple of labels or ``"text"``. The header, which may be
quoted and span lines, is always parsed by ``csv.reader``. A body with no
quote, no carriage return, no blank line and none of a few control
characters is decoded by one ``np.loadtxt`` pass with a structured dtype
(``f8``; labels as strings one character longer than the longest label,
bytes where every label fits in latin-1; text as objects), then each
float column is checked finite. Any other body, or one that pass refuses,
falls back to ``read``: ``csv.reader`` over the whole file, transposed
into columns, each decoded in one pass by ``decode``. Every error comes
from that path, so both accept the same files with the same values, bit
for bit, and the same dtypes: a label column comes back as codes of
``code_dtype`` of its arity, one byte a cell for up to 256 labels.

Lines starting with ``#`` are comments only before the header; after it,
every line is data. A byte-order mark before the first line is ignored
(files are written without one). Continuous cells must be finite.
"""

import contextlib
import csv
import io
import os
from itertools import chain

import numpy as np

from .errors import (
    DataError,
    EmptyColumn,
    LengthMismatch,
    MissingValues,
    NonBinary,
    NonFinite,
    NonNumeric,
    UnknownColumn,
)

BITS = ("0", "1")


def code_dtype(arity):
    """The narrowest unsigned dtype that holds codes ``0 .. arity - 1``:
    uint8 up to 256 levels, uint16 up to 65536. Every binary, categorical
    and discretized column's codes have it."""
    return np.min_scalar_type(max(arity - 1, 0))


# Rows encoded together, which bounds the encoded cells held at once: a
# 2048-row chunk of 102 columns held about 12 MB of cell strings, and 256
# rows write as fast.
CHUNK_ROWS = 256


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


def _float_cells(values):
    """Shortest round-trip text of each value."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _int_cells(values):
    return list(map(str, np.asarray(values).tolist()))


def _text_cells(values):
    """Strings as cells, each distinct string quoted once."""
    values = list(values)
    table = {value: quote(value) for value in set(values)}
    return list(map(table.__getitem__, values))


def _encoder(kind):
    """The encoder of values of ``kind`` (see ``decode``) as cells; a tuple
    of labels encodes integer codes as the cells of ``labels[code]``."""
    if isinstance(kind, tuple):
        table = [quote(label) for label in kind]
        return lambda codes: list(map(table.__getitem__, np.asarray(codes).tolist()))
    return {"float": _float_cells, "int": _int_cells, "text": _text_cells}[kind]


def _join_rows(columns):
    """One line (with terminator) per row of equal-length cell lists."""
    if len(columns) == 1:
        # csv.writer quotes an empty field when it is a row's only one
        return [(cell or '""') + "\n" for cell in columns[0]]
    return list(map("{}\n".format, map(",".join, zip(*columns))))


def _create(stack, path, header, meta):
    """Open ``path`` for writing on ``stack`` and write its ``# meta``
    comment and header.

    Header cells are quoted as labels are. A first header cell starting
    with ``#`` is always quoted, so that ``read`` does not take the header
    for a comment.
    """
    fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
    if meta:
        fh.write(f"# {meta}\n")
    if header and header[0].startswith("#"):
        first, header = header[0].replace('"', '""'), header[1:]
        fh.write(f'"{first}",' if header else f'"{first}"')
    fh.writelines(_join_rows([[quote(name)] for name in header]) or ["\n"])
    return fh


def write_typed(path, columns, meta=None, parts=()):
    """Write ``columns``, header name to ``(kind, values)`` with the kinds
    ``read_typed`` takes, under a ``# meta`` comment.

    ``parts`` holds ``(part_path, rows)`` pairs, ``rows`` sorted row
    indices: each part's file gets the same comment and header, and the
    lines of its rows. Rows are encoded ``CHUNK_ROWS`` at a time, and each
    chunk's lines go to every file that holds them before the next chunk
    is encoded, so every row is encoded once and one chunk's lines are
    held at a time.
    """
    header = list(columns)
    encoders = [(_encoder(kind), values) for kind, values in columns.values()]
    n_rows = len(encoders[0][1]) if encoders else 0
    with contextlib.ExitStack() as stack:
        whole = _create(stack, path, header, meta)
        subsets = [(_create(stack, p, header, meta), np.asarray(rows)) for p, rows in parts]
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            lines = _join_rows([encode(values[start:stop]) for encode, values in encoders])
            whole.writelines(lines)
            for fh, rows in subsets:
                lo, hi = np.searchsorted(rows, (start, stop)).tolist()
                fh.writelines(map(lines.__getitem__, (rows[lo:hi] - start).tolist()))


# ------------------------------------------------------------------ decode


def _records(fh):
    """``csv.reader`` over ``fh`` from its header on, and the number of
    comment lines skipped before the header."""
    comments = 0
    for first in fh:
        if not first.startswith("#"):
            return csv.reader(chain([first], fh)), comments
        comments += 1
    raise EmptyColumn("CSV has no header row")


def read(path):
    """Columns of a CSV file by header name, in header order; each column
    is a tuple of its cells. Rows must be as wide as the header."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader, _ = _records(fh)
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


def floats(columns, name, source=None):
    """A column's cells as float64; a cell ``float`` cannot read raises
    ``NonNumeric`` naming ``source`` (the file), the column and the row."""
    values = cells(columns, name)
    try:
        out = np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        for row, cell in enumerate(values, 1):
            try:
                float(cell)
            except ValueError:
                raise NonNumeric(name, row, cell, source) from None
        raise
    if not np.isfinite(out).all():
        raise NonFinite(name)
    return out


def codes(columns, name, labels):
    """Each cell's position in ``labels``, as ``code_dtype(len(labels))``;
    a cell outside them raises ``UnknownColumn``, or ``NonBinary`` where
    they are ``BITS``."""
    values = cells(columns, name)
    index = {label: i for i, label in enumerate(labels)}
    try:
        return np.fromiter(
            map(index.__getitem__, values), code_dtype(len(labels)), len(values)
        )
    except KeyError as exc:
        if labels == BITS:
            raise NonBinary(name) from None
        raise UnknownColumn(
            f"value {exc.args[0]!r} not in categories of {name!r}"
        ) from None


def texts(columns, name):
    return np.array(cells(columns, name), dtype=object)


def decode(columns, name, kind, source=None):
    """One column of ``read``'s result as ``kind`` names it: ``"float"``
    (finite float64), ``"text"`` (an object array of the cells) or a tuple
    of labels (positions in it, as ``code_dtype(len(labels))``). ``source``
    names the file in a ``NonNumeric`` error."""
    if isinstance(kind, tuple):
        return codes(columns, name, kind)
    if kind == "float":
        return floats(columns, name, source)
    if kind == "text":
        return texts(columns, name)
    raise KeyError(kind)


# ----------------------------------------------------------- typed reading


def read_typed(path, kinds_of):
    """Decoded columns of a CSV file.

    ``kinds_of(header)`` maps the names to decode, in the order to decode
    them, to their kinds (see ``decode``); other columns are parsed but not
    returned. A quote-free body is decoded by one ``np.loadtxt`` pass
    (``_quote_free_columns``); any other file, or one that pass refuses,
    is read by ``read`` and decoded a column at a time by ``decode``, so
    every file is accepted or refused, with the same error, as that path
    would.
    """
    try:
        return _quote_free_columns(path, kinds_of)
    except Exception:
        # whatever stopped the fast pass, ``read`` and ``decode`` decide
        # whether the file is accepted and which error it gets, in their order
        pass
    columns = read(path)
    kinds = kinds_of(list(columns))
    return {name: decode(columns, name, kind, path) for name, kind in kinds.items()}


def _quote_free_lines(fh):
    """Read the rest of ``fh``; whether it holds a line.

    Raises ``ValueError`` unless ``np.loadtxt`` splits it into the rows and
    cells ``csv.reader`` does: no quote; no carriage return (a line end to
    both, but ``csv.reader`` may see one inside a field); no NUL (numpy
    drops one from the end of a string); none of the separators \\x1c-\\x1f,
    which numpy strips around a number as whitespace and ``float``/``int``
    refuse; no blank line, which ``np.loadtxt`` skips; and no line that
    could hold a field longer than ``csv.reader`` takes. Reads whole lines
    about a MB at a time, so the body is never held at once.
    """
    limit = csv.field_size_limit()
    any_line = False
    while chunk := fh.read(1 << 20) + fh.readline():
        if any(c in chunk for c in '"\r\x00\x1c\x1d\x1e\x1f'):
            raise ValueError("body is not quote-free")
        start = 0
        while start < len(chunk):
            end = chunk.find("\n", start, start + limit + 1)
            if end == start or (end < 0 and len(chunk) - start > limit):
                raise ValueError("blank or overlong line")
            start = len(chunk) if end < 0 else end + 1
        any_line = True
    return any_line


def _quote_free_columns(path, kinds_of):
    """``read_typed``'s result from one structured ``np.loadtxt`` pass over
    a quote-free body; raises where it cannot give the values the ``read``
    path would, which includes every file that path refuses."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader, comments = _records(fh)
        header = next(reader)
        kinds = kinds_of(header)
        if not header or len(set(header)) != len(header) or set(kinds) - set(header):
            raise ValueError("header left to the csv.reader path")
        any_line = _quote_free_lines(fh)
    position = {name: i for i, name in enumerate(header)}
    formats = ["U1"] * len(header)  # columns not asked for: any cell goes
    for name, kind in kinds.items():
        formats[position[name]] = _loadtxt_format(kind)
    dtype = np.dtype([(f"c{i}", f) for i, f in enumerate(formats)])
    if any_line:
        # by absolute path, so numpy's opener takes it for neither a URL nor
        # an archive; it reads in chunks, with the header's lines skipped
        table = np.loadtxt(
            os.path.abspath(path),
            dtype,
            delimiter=",",
            comments=None,
            skiprows=comments + reader.line_num,
            encoding="utf-8",
            ndmin=1,
        )
    else:
        table = np.empty(0, dtype)  # np.loadtxt warns on an empty body
    return {
        name: _checked(table[f"c{position[name]}"], kind)
        for name, kind in kinds.items()
    }


def _loadtxt_format(kind):
    if isinstance(kind, tuple):
        # one longer than the longest label, so no longer cell is cut to one;
        # bytes where every label fits in latin-1, by which numpy fills an
        # "S" field (refusing any other character), so a compare is exact
        width = max(map(len, kind), default=0) + 1
        return f"S{width}" if max(map(ord, "".join(kind)), default=0) < 256 else f"U{width}"
    return {"float": "f8", "text": "O"}[kind]


def _checked(column, kind):
    """A ``np.loadtxt`` column as ``decode`` gives it; ``ValueError`` where
    ``decode`` would refuse it."""
    if isinstance(kind, tuple):
        out = np.zeros(len(column), code_dtype(len(kind)))
        found = np.zeros(len(column), dtype=bool)
        as_bytes = column.dtype.kind == "S"
        for i, label in enumerate(kind):
            if label:  # an empty cell is missing, even where "" is a label
                hit = column == (label.encode("latin-1") if as_bytes else label)
                # in the codes' own dtype: a Python int past 255 overflows uint8
                out += hit.view(np.uint8) * out.dtype.type(i)
                found |= hit
        if not found.all():
            raise ValueError("cell outside the labels")
        return out
    if kind == "float" and not np.isfinite(column).all():
        raise ValueError("non-finite cell")
    if kind == "text" and (column == "").any():
        raise ValueError("empty cell")
    return np.ascontiguousarray(column)
