"""The column-wise CSV layer against a row-by-row ``csv.writer`` oracle,
plus its parse-time checks."""

import csv
import io
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift import csvio
from causaluplift.data import ColumnSpec, Dataset
from causaluplift.errors import DataError, EmptyColumn, MissingValues, UnknownColumn

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


@settings(max_examples=100, deadline=None)
@given(label=LABELS)
def test_quote_matches_csv_writer(label):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["x", label, "y"])
    assert buf.getvalue() == f"x,{csvio.quote(label)},y\n"


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


def test_subset_lines_match_take(tmp_path):
    rng = np.random.default_rng(3)
    data = Dataset(
        [ColumnSpec("v", "continuous"), ColumnSpec("b", "binary")],
        {"v": rng.standard_normal(5000), "b": rng.integers(0, 2, 5000)},
    )
    lines = data.write_csv(tmp_path / "all.csv")
    idx = np.sort(rng.permutation(5000)[:1700])
    data.write_csv(tmp_path / "sub.csv", "m", [lines[i] for i in idx])
    data.take(idx).write_csv(tmp_path / "take.csv", "m")
    assert (tmp_path / "sub.csv").read_bytes() == (tmp_path / "take.csv").read_bytes()


class TestRead:
    def test_comments_only_before_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# one\n# two\na,b\n#x,1\ny,0\n")
        assert csvio.read(path) == {"a": ("#x", "y"), "b": ("1", "0")}

    def test_no_header(self, tmp_path):
        (tmp_path / "d.csv").write_text("# only a comment\n")
        with pytest.raises(EmptyColumn):
            csvio.read(tmp_path / "d.csv")

    def test_header_only(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n")
        assert csvio.read(tmp_path / "d.csv") == {"a": (), "b": ()}

    def test_parser_error_is_a_data_error(self, tmp_path):
        # a field beyond csv.field_size_limit()
        (tmp_path / "d.csv").write_text("a\n" + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(DataError, match="line"):
            csvio.read(tmp_path / "d.csv")

    def test_duplicate_header(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,a\n1,0\n")
        with pytest.raises(ValueError, match="duplicate"):
            csvio.read(tmp_path / "d.csv")

    def test_missing_and_absent_columns(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1,\n")
        columns = csvio.read(tmp_path / "d.csv")
        with pytest.raises(MissingValues):
            csvio.ints(columns, "b")
        with pytest.raises(UnknownColumn):
            csvio.ints(columns, "zz")


def test_csv_imported_by_one_module():
    package = resources.files("causaluplift")
    importers = sorted(
        path.name
        for path in package.iterdir()
        if path.name.endswith(".py")
        and re.search(r"^\s*(import csv|from csv )", path.read_text(), re.M)
    )
    assert importers == ["csvio.py"]
