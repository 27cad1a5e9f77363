"""The column-wise CSV layer against a row-by-row ``csv.writer`` oracle,
plus its parse-time checks."""

import csv
import io
import re
import tracemalloc
import warnings
from importlib import resources
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift import csvio
from causaluplift.data import ColumnSpec, Dataset
from causaluplift.datagen import SynthConfig, generate_group
from causaluplift.errors import (
    DataError,
    EmptyColumn,
    LengthMismatch,
    MissingValues,
    NonBinary,
    UnknownColumn,
)

# the old writer left a bare "\r" unquoted, so it could not be read back;
# labels without one must be written exactly as it wrote them
LABELS = st.text(alphabet=st.sampled_from(list('ab ,"#\n\u2028x')), max_size=5)
ANY_LABEL = st.text(alphabet=st.sampled_from(list('ab ,"#\n\r\u2028x')), max_size=5)


def reference_csv(data, meta=None):
    """The row-by-row writer the column-wise one replaced."""
    buf = io.StringIO()
    if meta:
        buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(data.columns)
    cells = []
    for name in data.columns:
        spec, values = data.spec(name), data.values(name)
        if spec.kind == "continuous":
            cells.append([repr(float(v)) for v in values])
        elif spec.kind == "categorical" and spec.categories is not None:
            cells.append([spec.categories[v] for v in values])
        else:
            cells.append([str(int(v)) for v in values])
    for row in zip(*cells):
        writer.writerow(row)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(label=st.text(alphabet=st.sampled_from(list('ab ,"#\n\r\x00\u2028\xe9x')), max_size=5))
def test_quote_matches_csv_writer(label):
    """``quote`` is ``csv.writer``'s minimal quoting under ``"\\r\\n"``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(["x", label, "y"])
    assert buf.getvalue() == f"x,{csvio.quote(label)},y\r\n"


@settings(max_examples=100, deadline=None)
@given(label=ANY_LABEL)
def test_quoted_label_reads_back(label):
    text = f"x,{csvio.quote(label)},y\n"
    assert list(csv.reader(io.StringIO(text, newline=""))) == [["x", label, "y"]]


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(LABELS, min_size=1, max_size=4, unique=True),
    n=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
    single=st.booleans(),
)
def test_write_matches_row_writer(labels, n, seed, single, tmp_path_factory):
    rng = np.random.default_rng(seed)
    specs = [ColumnSpec("c", "categorical", "covariate", labels)]
    arrays = {"c": rng.integers(0, len(labels), n)}
    if not single:
        specs += [
            ColumnSpec("v", "continuous"),
            ColumnSpec("b", "binary"),
            ColumnSpec("k", "categorical"),
        ]
        arrays.update(
            v=rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
            b=rng.integers(0, 2, n),
            k=rng.integers(0, 12, n),
        )
    data = Dataset(specs, arrays)
    path = tmp_path_factory.mktemp("w") / "d.csv"
    data.write_csv(path, meta="m")
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == reference_csv(data, meta="m")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 3 * csvio.CHUNK_ROWS),
    shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_parts_match_take(n, shares, seed, tmp_path_factory):
    """Each part file written beside the whole is byte-equal to writing
    ``take`` of its rows, and the whole file to a write without parts."""
    rng = np.random.default_rng(seed)
    data = Dataset(
        [
            ColumnSpec("v", "continuous"),
            ColumnSpec("b", "binary"),
            ColumnSpec("k", "categorical", categories=("a", 'q"', "x,y", "")),
        ],
        {"v": rng.standard_normal(n), "b": rng.integers(0, 2, n), "k": rng.integers(0, 4, n)},
    )
    tmp = tmp_path_factory.mktemp("parts")
    parts = [
        (tmp / f"part{i}.csv", np.flatnonzero(rng.random(n) < share))
        for i, share in enumerate(shares)
    ]
    data.write_csv(tmp / "all.csv", "m", parts)
    data.write_csv(tmp / "alone.csv", "m")
    assert (tmp / "all.csv").read_bytes() == (tmp / "alone.csv").read_bytes()
    for path, idx in parts:
        data.take(idx).write_csv(tmp / "take.csv", "m")
        assert path.read_bytes() == (tmp / "take.csv").read_bytes()


def test_split_write_holds_one_chunk(tmp_path):
    """Memory guard: writing a 10k x 102 group1 dataset with a 0.5 split
    holds its column data plus one chunk's encoded lines, not every line of
    the file (about 15 MB), nor a 2048-row chunk (about 12 MB)."""
    tracemalloc.start()
    try:
        data, _, _ = generate_group(SynthConfig(group="group1", seed=1, n_samples=10000))
        columns = sum(data.values(name).nbytes for name in data.columns)
        perm = np.random.default_rng(0).permutation(data.n_rows)
        parts = [
            (tmp_path / "train.csv", np.sort(perm[:5000])),
            (tmp_path / "test.csv", np.sort(perm[5000:])),
        ]
        tracemalloc.reset_peak()
        data.write_csv(tmp_path / "data.csv", "m", parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.columns) == 102
    assert peak < columns + (4 << 20)


class TestRead:
    """Tokenizing and header rules, read as text columns."""

    def read(self, path, kinds=None):
        return csvio.read_typed(path, lambda header: kinds or {h: "text" for h in header})

    def test_comments_only_before_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# one\n# two\na,b\n#x,1\ny,0\n")
        out = self.read(path)
        assert {name: values.tolist() for name, values in out.items()} == {
            "a": ["#x", "y"], "b": ["1", "0"]
        }

    def test_comments_past_the_first_chunk(self, tmp_path):
        # the scan reads a MB at a time; these comments run into the second
        # MB, one of them across the boundary
        path = tmp_path / "d.csv"
        path.write_text(("# " + "c" * 997 + "\n") * 1100 + "a,b\nx,1\n")
        out = self.read(path)
        assert {name: values.tolist() for name, values in out.items()} == {"a": ["x"], "b": ["1"]}

    def test_no_header(self, tmp_path):
        (tmp_path / "d.csv").write_text("# only a comment\n")
        with pytest.raises(EmptyColumn):
            self.read(tmp_path / "d.csv")

    @pytest.mark.parametrize("text", ["# no line end", "", "\na\n", "# m\r\n\r\na\r\n"])
    def test_blank_or_absent_header(self, tmp_path, text):
        write_body(tmp_path / "d.csv", text)
        with pytest.raises(EmptyColumn):
            self.read(tmp_path / "d.csv")

    def test_header_only(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n")
        out = self.read(tmp_path / "d.csv")
        assert list(out) == ["a", "b"] and out["a"].shape == out["b"].shape == (0,)

    def test_duplicate_header(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,a\n1,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            self.read(tmp_path / "d.csv")

    def test_missing_and_absent_columns(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1,\n")
        with pytest.raises(MissingValues):
            self.read(tmp_path / "d.csv", {"b": "float"})
        with pytest.raises(UnknownColumn):
            self.read(tmp_path / "d.csv", {"zz": "float"})


def test_csv_and_io_imported_by_no_module():
    """``csvio.quote`` states the quoting rule itself, so no module needs
    ``csv`` or an ``io`` buffer."""
    package = resources.files("causaluplift")
    importers = sorted(
        path.name
        for path in package.iterdir()
        if path.name.endswith(".py")
        and re.search(r"^\s*(import (csv|io)\b|from (csv|io) )", path.read_text(), re.M)
    )
    assert importers == []


def test_csv_reader_called_by_no_module():
    """``np.loadtxt`` is the one tokenizer; ``csv.reader`` is only the
    oracle of these tests."""
    package = resources.files("causaluplift")
    call = re.compile(r"\bcsv\.reader\s*\(|^\s*from csv import .*\breader\b", re.M)
    callers = sorted(
        path.name
        for path in package.iterdir()
        if path.name.endswith(".py") and call.search(path.read_text())
    )
    assert callers == []


def test_cell_encoders_named_by_one_module():
    package = resources.files("causaluplift")
    namers = sorted(
        path.name
        for path in package.iterdir()
        if path.name.endswith(".py")
        and re.search(r"\w+_cells\b|\w*_encoder\(|\bencode_lines\b", path.read_text())
    )
    assert namers == ["csvio.py"]


def test_loadtxt_called_by_one_module():
    package = resources.files("causaluplift")
    callers = sorted(
        path.name
        for path in package.iterdir()
        if path.name.endswith(".py") and re.search(r"\bloadtxt\s*\(", path.read_text())
    )
    assert callers == ["csvio.py"]


# ------------------------------------------------------------- typed read

LABEL_KIND = ("a", "b\u2028", "c\x85d", "#x", "ab")  # "\u2028" is outside latin-1
ASCII_KIND = ("a", "b", "#x", "ab", "")


def write_body(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def reference(path, kinds_of):
    """The oracle: ``csv.reader`` over the file from its header on; rows
    as wide as the header; then one ``decode`` per column."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        for first in fh:
            if not first.startswith("#"):
                break
        else:
            raise EmptyColumn("CSV has no header row")
        header, *rows = csv.reader(chain([first], fh))
    if len(set(header)) != len(header):
        raise ValueError("duplicate column")
    if any(len(row) != len(header) for row in rows):
        raise LengthMismatch("row of another width")
    columns = dict(zip(header, map(list, zip(*rows)))) if rows else {h: [] for h in header}
    kinds = kinds_of(header)
    absent = [name for name in kinds if name not in columns]
    if absent:
        raise UnknownColumn(absent[0])
    return {name: csvio.decode(columns[name], name, kind) for name, kind in kinds.items()}


def ends_in_open_quote(text):
    """Whether ``csv.reader`` is inside a quoted cell at the end of
    ``text``: only then does a further line add no row."""
    def rows(t):
        return sum(1 for _ in csv.reader(io.StringIO(t, newline="")))

    return rows(text + "\n,\n") == rows(text)


def outcome(read, path, kinds_of):
    try:
        return read(path, kinds_of)
    except Exception as exc:  # the error class is the outcome under test
        return type(exc)


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name, values in want.items():
        assert got[name].dtype == values.dtype and got[name].shape == values.shape
        if values.dtype == object:
            assert got[name].tolist() == values.tolist()
        else:
            assert got[name].tobytes() == values.tobytes()


def refuse_decode(*args):
    raise AssertionError("cells pass taken")


def fast_pass_only(monkeypatch):
    """Make the cells pass fail, so a read that succeeds took the typed
    ``np.loadtxt`` pass."""
    monkeypatch.setattr(csvio, "decode", refuse_decode)


# cells the reader must refuse, or read as the oracle does
MALFORMED = [
    "", " 1", "1 ", "1.0", "+1", "01", "2", "1_0", "1e5", "nan", "-Infinity",
    "#x", "a\u2028", "\x85", "\x1c1", "1\x1f", "1\x00", "a\x00", "-0", " ", "ab",
]
VALID = {
    "float": st.floats(allow_nan=False, allow_infinity=False).map(repr),
    csvio.BITS: st.sampled_from(csvio.BITS),
    ASCII_KIND: st.sampled_from(ASCII_KIND),
    "text": st.text(alphabet=st.sampled_from(list("ab #\u2028\x85-")), min_size=1, max_size=4),
    LABEL_KIND: st.sampled_from(LABEL_KIND),
    None: st.text(alphabet=st.sampled_from(list("ab1 \u2028")), max_size=3),
}
# in a file with quotes: labels only a quoted cell holds, any value holding
# what must be quoted, and a stray quote inside an unquoted cell
QUOTED_KIND = ("a,b", 'q"', "x\ny", "r\rs", "t\r\nu", '"')
QUOTED = [
    st.sampled_from(QUOTED_KIND),
    st.text(alphabet=st.sampled_from(list('ab1,"\n\r')), min_size=1, max_size=4),
    st.sampled_from(['a"b', '1"', '0"']),
]
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    """A header, then rows over a mixed schema with some cells and rows
    malformed or blank; each line ended by a drawn line end; at times a
    byte-order mark or a body cut short. Half the files are quote-free;
    in the others, a value is quoted where it must be, else at random, and
    a header cell may span lines. Returns the text and the kinds asked
    for, in a drawn order."""
    quoted = draw(st.booleans())

    def cell(raw):
        if raw[:1] == '"' or any(c in raw for c in ",\n\r") or quoted and draw(st.booleans()):
            return '"' + raw.replace('"', '""') + '"'
        return raw

    def value(kind):
        choices = [st.sampled_from(MALFORMED), *QUOTED * quoted]
        if kind in VALID:
            choices += [VALID[kind]] * 2
        return draw(st.one_of(choices))

    kinds = list(VALID) + [QUOTED_KIND] * quoted
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    spans = st.sampled_from(["\n", "\r\nx", "\r"])
    names = [
        f"c{i}" + (draw(spans) if quoted and draw(st.integers(0, 3)) == 0 else "")
        for i in range(len(kinds))
    ]
    rows = [
        ",".join(cell(value(kind)) for kind in kinds)
        for _ in range(draw(st.integers(0, 6)))
    ]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from(["", " ", rows[i] + ",1", rows[i].rpartition(",")[0]]))
    for where in ("start", "middle", "end"):
        if draw(st.integers(0, 7)) == 0:  # a blank line
            rows.insert({"start": 0, "middle": len(rows) // 2, "end": len(rows)}[where], "")
    head = "\ufeff" * draw(st.integers(0, 1))
    head += ("# meta" + draw(LINE_ENDS)) * draw(st.integers(0, 1)) + ",".join(map(cell, names))
    text = head + "".join(draw(LINE_ENDS) + row for row in rows)
    if rows and draw(st.booleans()):
        text += draw(LINE_ENDS)  # else the last row has no line end
    if draw(st.integers(0, 7)) == 0:  # a body cut short, perhaps inside a quote
        text = text[: draw(st.integers(len(head), len(text)))]
    asked = draw(st.permutations([(n, k) for n, k in zip(names, kinds) if k is not None]))
    return text, dict(asked)


@settings(max_examples=300, deadline=None)
@given(drawn=csv_files())
def test_typed_read_matches_csv_reader_path(drawn, tmp_path_factory):
    """Values, dtypes and error class as the ``csv.reader`` oracle gives
    them, on the typed pass where it accepts and on the cells pass; but
    where the body ends inside a quote (``test_open_quote_at_end_of_file``)."""
    text, kinds = drawn
    path = tmp_path_factory.mktemp("typed") / "d.csv"
    write_body(path, text)
    kinds_of = lambda header: kinds  # noqa: E731
    got = outcome(csvio.read_typed, path, kinds_of)
    with mock.patch.object(csvio, "decode", refuse_decode):
        fast = outcome(csvio.read_typed, path, kinds_of)
    if ends_in_open_quote(text):
        assert isinstance(got, dict) or issubclass(got, (DataError, LengthMismatch))
        return
    want = outcome(reference, path, kinds_of)
    if isinstance(want, type):
        assert isinstance(fast, type)  # the typed pass never accepts a refused file
        assert got is want
    else:
        assert_same_columns(got, want)
        if not isinstance(fast, type):
            assert_same_columns(fast, want)
        for name, kind in kinds.items():  # codes are one byte a cell, on both passes
            if isinstance(kind, tuple):
                assert want[name].dtype == np.uint8


def line_ends_by_count(text):
    """The line ends in ``text`` by ``count``, for bytes as for str."""
    lf, cr = ("\n", "\r") if isinstance(text, str) else (b"\n", b"\r")
    return text.count(lf) + text.count(cr) - text.count(cr + lf)


LINE_MIX = st.lists(st.sampled_from(["a", "\xe9", ",", '"', "\r", "\n", "\r\n"]), max_size=30)


@settings(max_examples=150, deadline=None)
@given(
    comments=st.lists(st.sampled_from(["#c\n", "#\r\n", "#x\r"]), max_size=2),
    head=LINE_MIX,
    tail=LINE_MIX,
    across_chunks=st.booleans(),
)
def test_line_ends_in_bytes_as_in_str(comments, head, tail, across_chunks, tmp_path_factory):
    # the scan counts a MB at a time; ``across_chunks`` puts ``tail`` at that cut
    text = "".join(comments) + "h" + "".join(head)
    if across_chunks:
        text += "y" * ((1 << 20) - 1 - len(text.encode()))
    text += "".join(tail)
    for part in (text, text[-40:]):
        assert csvio._line_ends(part.encode()) == csvio._line_ends(part) == line_ends_by_count(part)
    path = tmp_path_factory.mktemp("scan") / "d.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(csvio, "_line_ends", line_ends_by_count):
        want = csvio._scan(path)
    assert csvio._scan(path) == want


class TestReadTyped:
    """Where ``np.loadtxt`` and ``csv.reader`` differ, the typed read
    behaves as the csv.reader path."""

    KINDS = {"v": "float", "b": csvio.BITS, "c": LABEL_KIND, "t": "text"}

    def read(self, path, kinds=None):
        return csvio.read_typed(path, lambda header: kinds or self.KINDS)

    def test_quote_free_body_read_in_one_loadtxt_pass(self, tmp_path, monkeypatch):
        write_body(tmp_path / "d.csv", "# m\nv,b,c,t,row\n1.5,1,ab,x y,0\n-0.0,0,a,#,1\n")
        fast_pass_only(monkeypatch)
        calls = []
        loadtxt = np.loadtxt

        def record(source, dtype, **kwargs):
            calls.append((dtype == object, kwargs["skiprows"], kwargs.get("max_rows")))
            return loadtxt(source, dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", record)
        out = self.read(tmp_path / "d.csv")
        # the header as cells, then the body in one typed pass sized by the scan
        assert calls == [(True, 1, 1), (False, 2, 2)]
        assert list(out) == list(self.KINDS)
        assert out["v"].tobytes() == np.array([1.5, -0.0]).tobytes()
        assert out["b"].tolist() == [1, 0] and out["b"].dtype == np.uint8
        assert out["c"].tolist() == [4, 0] and out["t"].tolist() == ["x y", "#"]

    @pytest.mark.parametrize(
        "header, name", [('"#v"', "#v"), ('"v\r\nw"', "v\r\nw"), ('"v\n""w"""', 'v\n"w"')]
    )
    def test_quoted_header_keeps_the_typed_pass(self, tmp_path, monkeypatch, header, name):
        write_body(tmp_path / "d.csv", f"# m\n{header},b\n1.5,0\n2,1\n")
        fast_pass_only(monkeypatch)
        out = self.read(tmp_path / "d.csv", {name: "float", "b": csvio.BITS})
        assert out[name].tolist() == [1.5, 2.0] and out["b"].tolist() == [0, 1]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_carriage_return_body_read_in_the_typed_pass(self, tmp_path, monkeypatch, end):
        text = "# m\nv,b,c,t,row\n1.5,1,ab,x y,0\n-0.0,0,a,#,1\n".replace("\n", end)
        write_body(tmp_path / "d.csv", text)
        want = reference(tmp_path / "d.csv", lambda header: self.KINDS)
        fast_pass_only(monkeypatch)
        assert_same_columns(self.read(tmp_path / "d.csv"), want)
        write_body(tmp_path / "blank.csv", text + end)
        with pytest.raises(LengthMismatch, match="blank.csv"):
            self.read(tmp_path / "blank.csv")

    def test_crlf_copy_reads_as_written(self, tmp_path):
        data, _, _ = generate_group(SynthConfig(group="group1", seed=2, n_samples=300))
        schema = data.schema_dict()
        data.write_csv(tmp_path / "lf.csv", meta="m")
        lf = (tmp_path / "lf.csv").read_bytes()
        (tmp_path / "crlf.csv").write_bytes(lf.replace(b"\n", b"\r\n"))
        want = Dataset.read_csv(tmp_path / "lf.csv", schema)
        got = Dataset.read_csv(tmp_path / "crlf.csv", schema)
        assert got.columns == want.columns
        for name in want.columns:
            assert got.spec(name) == want.spec(name)
            assert got.values(name).dtype == want.values(name).dtype
            assert got.values(name).tobytes() == want.values(name).tobytes()

    def test_crlf_across_chunk_boundary(self, tmp_path):
        # the scan reads a MB at a time: its first chunk ends on this "\r"
        text = "t\r\n" + "y" * ((1 << 20) - 4) + "\r\n" + "z\r\n" * 3
        assert text.encode()[(1 << 20) - 1 :].startswith(b"\r\n")
        write_body(tmp_path / "d.csv", text)
        out = self.read(tmp_path / "d.csv", {"t": "text"})
        assert [len(cell) for cell in out["t"]] == [(1 << 20) - 4, 1, 1, 1]

    def test_open_quote_at_end_of_file(self, tmp_path):
        """A quote left open runs to the end of the file, as ``csv.reader``
        reads it; if it takes in a line end, the file is ``LengthMismatch``."""
        write_body(tmp_path / "d.csv", 't\nx\n"y,z')
        assert self.read(tmp_path / "d.csv", {"t": "text"})["t"].tolist() == ["x", "y,z"]
        write_body(tmp_path / "d.csv", 't\nx\n"y\nz')
        assert self.read(tmp_path / "d.csv", {"t": "text"})["t"].tolist() == ["x", "y\nz"]
        for text in ['t\nx\n"y\n', 't\n"x\ny\nz\n', 't\n"x\n' + "y\n" * 10000]:
            write_body(tmp_path / "d.csv", text)
            assert ends_in_open_quote(text)
            with pytest.raises(LengthMismatch, match="quote left open"):
                self.read(tmp_path / "d.csv", {"t": "text"})

    @pytest.mark.parametrize("meta", ["", "# m\n"])
    def test_byte_order_mark_ignored(self, tmp_path, monkeypatch, meta):
        kinds = {"T": csvio.BITS, "Y": csvio.BITS}
        write_body(tmp_path / "q.csv", "\ufeff" + meta + 'T,Y\n"0",1\n1,0\n')  # cells pass
        want = self.read(tmp_path / "q.csv", kinds)
        assert want["T"].tolist() == [0, 1] and want["Y"].tolist() == [1, 0]
        assert want["T"].dtype == want["Y"].dtype == np.uint8
        write_body(tmp_path / "d.csv", "\ufeff" + meta + "T,Y\n0,1\n1,0\n")
        fast_pass_only(monkeypatch)
        assert_same_columns(self.read(tmp_path / "d.csv", kinds), want)

    def test_blank_line_in_body_is_length_mismatch(self, tmp_path):
        write_body(tmp_path / "d.csv", "a,b\n1,0\n\n0,1\n")
        schema = {"columns": [{"name": "a", "kind": "binary"}, {"name": "b", "kind": "binary"}]}
        with pytest.raises(LengthMismatch):
            Dataset.read_csv(tmp_path / "d.csv", schema)

    @pytest.mark.parametrize("text", ["v,t\n\n", "v,t\r\n\r\n\r\n", '"v\n",t\n\n', "v,t\n1,2\n\n"])
    def test_blank_lines_ending_the_body_are_length_mismatch(self, tmp_path, text):
        write_body(tmp_path / "d.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a body of blank lines
            with pytest.raises(LengthMismatch, match="blank line"):
                self.read(tmp_path / "d.csv", {"t": "text"})

    @pytest.mark.parametrize("text", ["v,t\n", "v,t", "# m\nv,t\n"])
    def test_no_rows_read_without_warning(self, tmp_path, text):
        write_body(tmp_path / "d.csv", text)
        schema = {"columns": [{"name": "v", "kind": "continuous"}, {"name": "t", "kind": "binary"}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = Dataset.read_csv(tmp_path / "d.csv", schema)
            out = self.read(tmp_path / "d.csv", {"v": "float", "t": "text"})
        assert data.n_rows == 0 and data.values("v").dtype == np.float64
        assert out["v"].shape == out["t"].shape == (0,)

    def test_hash_led_line_after_header_is_data(self, tmp_path, monkeypatch):
        write_body(tmp_path / "d.csv", "c,t\n#x,#1\na,b\n")
        fast_pass_only(monkeypatch)
        out = self.read(tmp_path / "d.csv", {"c": LABEL_KIND, "t": "text"})
        assert out["c"].tolist() == [3, 0] and out["t"].tolist() == ["#1", "b"]

    def test_line_separators_stay_inside_cells(self, tmp_path, monkeypatch):
        write_body(tmp_path / "d.csv", "c,t,v\nb\u2028,x\u2028y,1\nc\x85d,\x85,2\n")
        fast_pass_only(monkeypatch)
        out = self.read(tmp_path / "d.csv", {"c": LABEL_KIND, "t": "text", "v": "float"})
        assert out["c"].tolist() == [1, 2]
        assert out["t"].tolist() == ["x\u2028y", "\x85"]
        assert out["v"].tolist() == [1.0, 2.0]

    def test_labels_parsed_as_bytes_where_latin1_holds_them(self):
        formats = [csvio._loadtxt_format(k) for k in (csvio.BITS, ASCII_KIND, ("\u00e9",), LABEL_KIND)]
        assert formats == ["S2", "S3", "S2", "U4"]

    def test_latin1_labels_compared_exactly(self, tmp_path, monkeypatch):
        # "\u00e9" in UTF-8 is the two bytes that latin-1 reads as "\u00c3\u00a9"
        write_body(tmp_path / "bad.csv", "c\n\u00e9\n\u00c3\u00a9\n")
        with pytest.raises(UnknownColumn, match="'\u00c3\u00a9' not in categories of 'c'"):
            self.read(tmp_path / "bad.csv", {"c": ("\u00e9", "x")})
        write_body(tmp_path / "d.csv", "c\n\u00e9\nx\n")
        fast_pass_only(monkeypatch)
        assert self.read(tmp_path / "d.csv", {"c": ("\u00e9", "x")})["c"].tolist() == [0, 1]

    def test_wide_label_column_on_the_fast_path(self, tmp_path, monkeypatch):
        labels = tuple(f"L{i}" for i in range(300))
        codes = np.random.default_rng(4).integers(0, 300, 1000)
        write_body(tmp_path / "d.csv", "c\n" + "".join(f"{labels[i]}\n" for i in codes))
        want = reference(tmp_path / "d.csv", lambda header: {"c": labels})
        fast_pass_only(monkeypatch)
        got = self.read(tmp_path / "d.csv", {"c": labels})
        assert_same_columns(got, want)
        assert got["c"].dtype == np.uint16 and got["c"].tolist() == codes.tolist()

    @pytest.mark.parametrize(
        "text, kinds, error",
        [
            ("v\n\x1c1\n", {"v": "float"}, ValueError),  # numpy strips \x1c, float() does not
            ("v\n1\x1f\n", {"v": "float"}, ValueError),
            ("b\n1\x00\n", {"b": csvio.BITS}, NonBinary),  # numpy drops a trailing NUL
            ("c\na\x00\n", {"c": LABEL_KIND}, UnknownColumn),
            ("c\nc\x85dz\n", {"c": LABEL_KIND}, UnknownColumn),  # never cut to a label
            ("c,b\n,1\n", {"c": ("", "a")}, MissingValues),
            ("t,b\n,1\n", {"t": "text"}, MissingValues),
        ],
    )
    def test_cells_numpy_would_misread(self, tmp_path, text, kinds, error):
        write_body(tmp_path / "d.csv", text)
        with pytest.raises(error):
            self.read(tmp_path / "d.csv", kinds)
