import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift.data import ColumnSpec, Dataset, write_schema
from causaluplift.errors import (
    LengthMismatch,
    MissingValues,
    NonBinary,
    NonFinite,
    UnknownColumn,
)


@pytest.fixture
def small(tmp_path):
    specs = [
        ColumnSpec("T", "binary", "treatment"),
        ColumnSpec("Y", "binary", "outcome"),
        ColumnSpec("color", "categorical", "covariate", ("red", "green", "blue")),
        ColumnSpec("age", "continuous", "covariate"),
    ]
    arrays = {
        "T": np.array([0, 1, 1, 0]),
        "Y": np.array([1, 0, 1, 0]),
        "color": np.array([0, 2, 1, 1]),
        "age": np.array([1.5, -0.25, 3.125, 0.0]),
    }
    return Dataset(specs, arrays)


class TestDataset:
    def test_basic_access(self, small):
        assert small.n_rows == 4
        assert small.columns == ["T", "Y", "color", "age"]
        assert small.arity("color") == 3
        assert small.values("T").tolist() == [0, 1, 1, 0]
        assert small.role_of("treatment") == ["T"]

    def test_unknown_column(self, small):
        with pytest.raises(UnknownColumn):
            small.values("nope")

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinary):
            Dataset([ColumnSpec("b", "binary")], {"b": np.array([0, 2])})

    def test_negative_codes_rejected(self):
        with pytest.raises(MissingValues):
            Dataset([ColumnSpec("c", "categorical")], {"c": np.array([0, -1])})

    def test_ragged_rejected(self):
        with pytest.raises(LengthMismatch):
            Dataset(
                [ColumnSpec("a", "binary"), ColumnSpec("b", "binary")],
                {"a": np.zeros(3, dtype=int), "b": np.zeros(2, dtype=int)},
            )

    def test_take_and_select(self, small):
        sub = small.take([2, 0])
        assert sub.values("age").tolist() == [3.125, 1.5]
        proj = small.select(["Y", "age"])
        assert proj.columns == ["Y", "age"]


class TestCsvRoundTrip:
    def test_round_trip(self, small, tmp_path):
        csv_path = tmp_path / "d.csv"
        schema_path = tmp_path / "schema.json"
        small.write_csv(csv_path, meta="tool=test config=abc")
        write_schema(schema_path, small)
        again = Dataset.read_csv(csv_path, schema_path)
        assert again.columns == small.columns
        for name in small.columns:
            assert np.array_equal(again.values(name), small.values(name))
            assert again.spec(name) == small.spec(name)

    def test_write_is_deterministic(self, small, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        small.write_csv(a)
        small.write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_float_precision_survives(self, tmp_path):
        values = np.random.default_rng(1).standard_normal(50)
        data = Dataset([ColumnSpec("v", "continuous")], {"v": values})
        path = tmp_path / "v.csv"
        data.write_csv(path)
        write_schema(tmp_path / "s.json", data)
        again = Dataset.read_csv(path, tmp_path / "s.json")
        assert np.array_equal(again.values("v"), values)

    def test_missing_cell_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1,\n")
        schema = {
            "columns": [
                {"name": "a", "kind": "binary", "role": "covariate"},
                {"name": "b", "kind": "binary", "role": "covariate"},
            ]
        }
        with pytest.raises(MissingValues):
            Dataset.read_csv(tmp_path / "d.csv", schema)

    def test_unknown_header_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,zz\n1,2\n")
        schema = {"columns": [{"name": "a", "kind": "binary"}]}
        with pytest.raises(UnknownColumn):
            Dataset.read_csv(tmp_path / "d.csv", schema)

    def test_categorical_vocabulary_from_schema(self, tmp_path):
        (tmp_path / "d.csv").write_text("c\nblue\nred\n")
        schema = {
            "columns": [
                {
                    "name": "c",
                    "kind": "categorical",
                    "role": "covariate",
                    "categories": ["red", "green", "blue"],
                }
            ]
        }
        data = Dataset.read_csv(tmp_path / "d.csv", schema)
        assert data.values("c").tolist() == [2, 0]
        assert data.arity("c") == 3

    def test_comment_lines_skipped(self, small, tmp_path):
        path = tmp_path / "d.csv"
        small.write_csv(path, meta="v=1 config=deadbeef")
        text = path.read_text()
        assert text.startswith("# v=1 config=deadbeef\n")
        write_schema(tmp_path / "s.json", small)
        again = Dataset.read_csv(path, tmp_path / "s.json")
        assert again.n_rows == small.n_rows

    def test_schema_embeds_extra(self, small, tmp_path):
        write_schema(tmp_path / "s.json", small, extra={"tool": {"version": "x"}})
        payload = json.loads((tmp_path / "s.json").read_text())
        assert payload["tool"] == {"version": "x"}
        assert payload["columns"][0]["name"] == "T"

    def test_hash_labels_after_header_are_data(self, tmp_path):
        spec = ColumnSpec("tag", "categorical", "covariate", ("#a", "b"))
        data = Dataset(
            [spec, ColumnSpec("T", "binary", "treatment")],
            {"tag": np.array([0, 1, 0, 0]), "T": np.array([1, 0, 1, 0])},
        )
        path = tmp_path / "d.csv"
        data.write_csv(path, meta="v=1")
        write_schema(tmp_path / "s.json", data)
        again = Dataset.read_csv(path, tmp_path / "s.json")
        assert again.n_rows == 4
        assert again.values("tag").tolist() == [0, 1, 0, 0]
        assert again.values("T").tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("names", [["#id", "T"], ['#"q"'], ["#", ""]])
    @pytest.mark.parametrize("meta", [None, "v=1"])
    def test_hash_first_column_name_round_trips(self, tmp_path, names, meta):
        specs = [ColumnSpec(names[0], "continuous")]
        arrays = {names[0]: np.array([1.5, -2.0])}
        if len(names) > 1:
            specs.append(ColumnSpec(names[1], "binary"))
            arrays[names[1]] = np.array([0, 1])
        data = Dataset(specs, arrays)
        data.write_csv(tmp_path / "d.csv", meta=meta)
        write_schema(tmp_path / "s.json", data)
        header = (tmp_path / "d.csv").read_text().splitlines()[1 if meta else 0]
        assert header.startswith('"#')
        again = Dataset.read_csv(tmp_path / "d.csv", tmp_path / "s.json")
        assert again.columns == names
        for name in names:
            assert np.array_equal(again.values(name), data.values(name))

    def test_line_separator_inside_label_survives(self, tmp_path):
        labels = ("a\u2028b", "c\x85d", "e\nf", "g\rh")
        data = Dataset(
            [ColumnSpec("c", "categorical", "covariate", labels)],
            {"c": np.array([0, 1, 2, 3, 0])},
        )
        data.write_csv(tmp_path / "d.csv")
        write_schema(tmp_path / "s.json", data)
        again = Dataset.read_csv(tmp_path / "d.csv", tmp_path / "s.json")
        assert again.values("c").tolist() == [0, 1, 2, 3, 0]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, cell):
        (tmp_path / "d.csv").write_text(f"v\n1.5\n{cell}\n")
        schema = {"columns": [{"name": "v", "kind": "continuous"}]}
        with pytest.raises(NonFinite):
            Dataset.read_csv(tmp_path / "d.csv", schema)

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1,0\n1\n")
        schema = {"columns": [{"name": "a", "kind": "binary"}, {"name": "b", "kind": "binary"}]}
        with pytest.raises(LengthMismatch):
            Dataset.read_csv(tmp_path / "d.csv", schema)

    def test_non_binary_cell_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a\n1\n2\n")
        with pytest.raises(NonBinary):
            Dataset.read_csv(tmp_path / "d.csv", {"columns": [{"name": "a", "kind": "binary"}]})

    def test_unknown_category_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("c\nred\npink\n")
        schema = {"columns": [{"name": "c", "kind": "categorical", "categories": ["red"]}]}
        with pytest.raises(UnknownColumn, match="pink"):
            Dataset.read_csv(tmp_path / "d.csv", schema)


EXTREME_FLOATS = st.sampled_from(
    [5e-324, -5e-324, 1e16, -1e16, 1e-5, 1e-4, 0.1, -0.0, 0.0, 1.7976931348623157e308]
)
FLOATS = st.one_of(EXTREME_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
# characters the writer must quote, or that a line splitter would break at
LABELS = st.text(
    alphabet=st.sampled_from(list('ab, "#\'\n\r\u2028\x85;|-')), min_size=1, max_size=6
)


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 12))
    labels = tuple(draw(st.lists(LABELS, min_size=1, max_size=4, unique=True)))
    return Dataset(
        [
            ColumnSpec("lab, \"x\"", "categorical", "covariate", labels),
            ColumnSpec("v", "continuous", "noise"),
            ColumnSpec("T", "binary", "treatment"),
        ],
        {
            "lab, \"x\"": np.array(
                draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n)),
                dtype=np.int64,
            ),
            "v": np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=np.float64),
            "T": np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64),
        },
    )


@settings(max_examples=150, deadline=None)
@given(data=datasets())
def test_csv_round_trip_property(data, tmp_path_factory):
    root = tmp_path_factory.mktemp("prop")
    data.write_csv(root / "d.csv", meta="prop")
    write_schema(root / "s.json", data)
    again = Dataset.read_csv(root / "d.csv", root / "s.json")
    assert again.columns == data.columns
    assert again.n_rows == data.n_rows
    for name in data.columns:
        assert again.spec(name) == data.spec(name)
        # byte-level equality keeps the sign of -0.0
        assert again.values(name).tobytes() == data.values(name).tobytes()
