"""The package's one CSV layer: every CSV file is written and read here,
a column at a time.

``write_typed`` takes each column as its kind and values: ``"float"``,
``"int"`` (written only, for row index columns), a tuple of labels
(integer codes into it; a binary column's are ``BITS``), or ``"text"``.
It encodes ``CHUNK_ROWS`` rows at a time, each column of a chunk in one
pass (shortest round-trip ``repr`` for floats, each label quoted once by
``quote``: in quotes, inner quotes doubled, when it holds a comma, a quote
or a line end), and joins the cells into lines. A chunk's lines are
written to the file, and those of the rows each part file holds to that
file, before the next chunk is encoded: nothing is returned, and no more
than one chunk's lines is ever held.

``read_typed`` reads with the caller naming each column's kind:
``"float"``, a tuple of labels or ``"text"``. One tokenizer splits every
line into cells, ``np.loadtxt`` with RFC 4180 quoting, so a quoted cell
may hold commas, doubled quotes and line ends. A binary pre-scan counts
lines and finds the bytes the typed pass could misread. A body with none
is decoded by that one pass (``f8``; labels as strings one character
longer than the longest, bytes where every label fits in latin-1; text
as objects), then each float column checked finite. Any other body, or
one that pass refuses, is read as cells and decoded a column at a time
by ``decode``, which names every error. Both give the same values, bit
for bit, and dtypes: labels come back as codes of ``code_dtype``.

Lines end in ``\\n``, ``\\r\\n`` or ``\\r``. Lines starting with ``#``
are comments only before the header; after it, every line is data. A
blank line in the body, a row not as wide as the header, or a quote left
open at the end of the file that takes in a line end is
``LengthMismatch``. A byte-order mark before the first line is ignored.
Continuous cells must be finite.
"""

import codecs
import contextlib
import os
import re
import warnings
from itertools import chain

import numpy as np

from .errors import (
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
    r"""``label`` as a cell: in quotes, each inner quote doubled, when it
    holds a ``,``, ``"``, ``\r`` or ``\n``; else as it is.

    This is ``csv.writer``'s minimal quoting under a ``"\r\n"``
    terminator, which quotes a ``"\r"`` as well as a ``"\n"`` (Python
    3.11 leaves a bare ``"\r"`` unquoted under ``"\n"``, and a reader then
    splits the row there); files still end their lines in ``"\n"``.
    """
    quoted = any(c in label for c in ',"\r\n')
    return '"' + label.replace('"', '""') + '"' if quoted else label


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
    with ``#`` is always quoted, so that ``read_typed`` does not take the
    header for a comment.
    """
    fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
    if meta:
        fh.write(f"# {meta}\n")
    cells = [quote(name) for name in header]
    if cells and cells[0].startswith("#"):  # left unquoted, so it holds no quote
        cells[0] = f'"{cells[0]}"'
    fh.writelines(_join_rows([[cell] for cell in cells]) or ["\n"])
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


def _floats(cells, name, source):
    """Cells as float64; a cell ``float`` cannot read raises ``NonNumeric``
    naming ``source`` (the file), the column and the row."""
    try:
        out = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        for row, cell in enumerate(cells, 1):
            try:
                float(cell)
            except ValueError:
                raise NonNumeric(name, row, cell, source) from None
        raise
    if not np.isfinite(out).all():
        raise NonFinite(name)
    return out


def _codes(cells, name, labels):
    """Each cell's position in ``labels``, as ``code_dtype(len(labels))``;
    a cell outside them raises ``UnknownColumn``, or ``NonBinary`` where
    they are ``BITS``."""
    index = {label: i for i, label in enumerate(labels)}
    try:
        return np.fromiter(map(index.__getitem__, cells), code_dtype(len(labels)), len(cells))
    except KeyError as exc:
        if labels == BITS:
            raise NonBinary(name) from None
        raise UnknownColumn(f"value {exc.args[0]!r} not in categories of {name!r}") from None


def decode(cells, name, kind, source=None):
    """Column ``name``'s cells (a list of strings) as ``kind`` names it:
    ``"float"`` (finite float64), ``"text"`` (an object array of the cells)
    or a tuple of labels (positions in it, as ``code_dtype(len(labels))``).
    An empty cell is ``MissingValues``; ``source`` names the file in a
    ``NonNumeric`` error."""
    if "" in cells:
        raise MissingValues(name)
    if isinstance(kind, tuple):
        return _codes(cells, name, kind)
    if kind == "float":
        return _floats(cells, name, source)
    if kind == "text":
        return np.array(cells, dtype=object)
    raise KeyError(kind)


# ----------------------------------------------------------- typed reading

# bytes the typed pass would read otherwise than ``float`` and ``decode``: a
# quote opens a quoted cell, numpy drops a trailing NUL from a string, and it
# strips \x1c-\x1f around a number as whitespace
_MISREAD = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_COMMENT_LINES = re.compile(rb"(?:#[^\r\n]*(?:\r\n|\r|\n))*")


def read_typed(path, kinds_of):
    """Decoded columns of a CSV file.

    ``kinds_of(header)`` maps the names to decode, in the order to decode
    them, to their kinds (see ``decode``); other columns are parsed but not
    returned. A body with no byte of ``_MISREAD``, after a header that may
    have them, is decoded by one typed pass; any other, or one that pass
    refuses, is read as cells and decoded a column at a time by
    ``decode``, which names every error.
    """
    comments, lines, tail, flagged = _scan(path)
    header = _cells(path, comments, max_rows=1)[0].tolist()
    if len(set(header)) != len(header):
        raise ValueError(f"duplicate column {next(h for h in header if header.count(h) > 1)!r}")
    kinds = kinds_of(header)
    if absent := [name for name in kinds if name not in header]:
        raise UnknownColumn(absent[0])
    header_lines = 1 + _line_ends(",".join(header))
    body_lines = lines - header_lines
    # the last ``tail - 1`` lines are blank: a body of no more holds no row
    any_row = 0 < body_lines and tail <= body_lines
    if flagged < header_lines and any_row:
        try:
            return _typed_columns(path, comments + header_lines, body_lines, header, kinds)
        except ValueError:
            pass  # the cells pass decides whether the file is accepted
    width = len(header)
    body = _cells(path, comments + header_lines) if any_row else np.empty((0, width), object)
    if body.shape[1] != width:
        raise LengthMismatch(f"{path}: a row is not as wide as the header")
    rows, columns = len(body), dict(zip(header, body.T.tolist()))
    del body  # the lists hold every cell
    # np.loadtxt skips a blank line, and a quote left open at the end of the
    # file takes in the line ends after it
    if (spanned := rows + sum(_line_ends(",".join(c)) for c in columns.values())) != body_lines:
        what = "a blank line" if spanned < body_lines else "a quote left open"
        raise LengthMismatch(f"{path}: {what} in the body")
    return {name: decode(columns[name], name, kind, path) for name, kind in kinds.items()}


def _loadtxt(source, dtype, **kwargs):
    """The one CSV tokenizer: ``np.loadtxt`` with RFC 4180 quoting."""
    return np.loadtxt(source, dtype, delimiter=",", comments=None, quotechar='"', **kwargs)


def _line_ends(text):
    """The line ends in ``text``, str or bytes; ``\\r\\n`` counts as one.
    numpy counts the ``\\n`` of bytes several times faster than ``count``."""
    if isinstance(text, str):
        lf, cr, lfs = "\n", "\r", text.count("\n")
    else:
        lf, cr, lfs = b"\n", b"\r", int(np.count_nonzero(np.frombuffer(text, np.uint8) == 10))
    if cr not in text:
        return lfs
    return lfs + text.count(cr) - text.count(cr + lf)


def _chunks(fh):
    """A binary file's bytes about a MB at a time, no ``\\r\\n`` cut in two."""
    while chunk := fh.read(1 << 20):
        if chunk.endswith(b"\r") and fh.peek(1)[:1] == b"\n":
            chunk += fh.read(1)
        yield chunk


def _scan(path):
    """One binary pass over a CSV file: the number of ``#`` lines before
    its header (``EmptyColumn`` where a blank line or none follows them);
    the number of lines from the header on; the number of line ends that
    close the file, one more than its trailing blank lines; and the line,
    counted from the header's first as 0, of the last byte of ``_MISREAD``
    (-1 for none)."""
    with open(path, "rb") as fh:
        chunks = _chunks(fh)
        head = next(chunks, b"").removeprefix(codecs.BOM_UTF8)
        # joined with the next chunk while a comment line may run on into it
        while (end := _COMMENT_LINES.match(head).end()) == len(head) or head.startswith(b"#", end):
            if not (more := next(chunks, b"")):
                break
            head += more
        if head[end : end + 1] in (b"", b"#", b"\r", b"\n"):
            raise EmptyColumn("CSV has no header row")
        lines, tail, flagged = 0, 0, -1
        for chunk in chain([head[end:]], chunks):
            if (last := max(chunk.rfind(byte) for byte in _MISREAD)) >= 0:
                flagged = lines + _line_ends(chunk[:last])
            lines += _line_ends(chunk)
            text = len(chunk.rstrip(b"\r\n"))
            tail = _line_ends(chunk[text:]) + (0 if text else tail)
    lines += not chunk.endswith((b"\r", b"\n"))  # a last line without a line end
    return _line_ends(head[:end]), lines, tail, flagged


def _cells(path, skiprows, max_rows=None):
    """The rows after the first ``skiprows`` lines, as a 2-d object array
    of cells; rows of unequal widths are ``LengthMismatch``. Read through a
    ``newline=""`` handle: numpy's own opener turns a quoted ``\\r`` into
    ``\\n``."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            return _loadtxt(fh, object, skiprows=skiprows, max_rows=max_rows, ndmin=2)
        except UnicodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except ValueError:
            raise LengthMismatch(f"{path}: a row is not as wide as the header") from None


def _typed_columns(path, skiprows, body_lines, header, kinds):
    """``read_typed``'s result from one structured pass over a body with no
    byte of ``_MISREAD``; ``ValueError`` where it cannot give the values
    the cells pass would, which includes every file that pass refuses."""
    # a column not asked for takes any cell
    formats = [_loadtxt_format(kinds[h]) if h in kinds else "U1" for h in header]
    dtype = np.dtype([(f"c{i}", f) for i, f in enumerate(formats)])
    # by absolute path, so numpy's opener takes it for neither a URL nor an
    # archive; it reads in chunks, with the comments and header skipped, into
    # a table sized once by the scan's line count. It skips a blank line, and
    # warns of it under max_rows: the table then comes out short.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        table = _loadtxt(
            os.path.abspath(path), dtype, skiprows=skiprows, max_rows=body_lines,
            encoding="utf-8", ndmin=1,
        )
    if len(table) != body_lines:
        raise ValueError("a blank line")
    position = {name: i for i, name in enumerate(header)}
    return {name: _checked(table[f"c{position[name]}"], kind) for name, kind in kinds.items()}


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
        # Matched a byte at a time in a contiguous (rows, itemsize) copy:
        # the 57 binary columns of a 20k-row group2 file took 8 ms this way
        # on a 2-core host, and 36-41 ms compared as strided string fields.
        # A label's bytes are padded with NULs to the field's width, so a
        # longer cell never matches.
        cells = np.ascontiguousarray(column).view(np.uint8)
        cells = cells.reshape(len(column), column.dtype.itemsize)
        out = np.zeros(len(column), code_dtype(len(kind)))
        found = np.zeros(len(column), dtype=bool)
        as_bytes = column.dtype.kind == "S"
        for i, label in enumerate(kind):
            if label:  # an empty cell is missing, even where "" is a label
                field = label.encode("latin-1") if as_bytes else label
                padded = np.array([field], column.dtype).view(np.uint8).tolist()
                hit = cells[:, 0] == padded[0]
                for j, byte in enumerate(padded[1:], 1):
                    hit &= cells[:, j] == byte
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
