import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift import csvio
from causaluplift.data import ColumnSpec, Dataset, write_schema
from causaluplift.datagen import SynthConfig, generate_group
from causaluplift.errors import (
    DataError,
    LengthMismatch,
    MissingValues,
    NonBinary,
    NonFinite,
    SchemaError,
    UnknownColumn,
)
from causaluplift.stats import discretize_dataset


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
        with pytest.raises(UnknownColumn):
            small.spec("nope")

    def test_continuous_column_has_no_arity(self, small):
        with pytest.raises(ValueError, match="'age' is continuous"):
            small.arity("age")

    def test_duplicate_column_rejected(self, small):
        with pytest.raises(ValueError, match="duplicate column 'T'"):
            Dataset([ColumnSpec("T", "binary")] * 2, {"T": np.array([0, 1])})
        with pytest.raises(ValueError, match="duplicate column"):
            small.select(["T", "age", "T"])

    def test_replace_swaps_one_column_checked(self, small):
        swapped = small.replace(ColumnSpec("color", "binary"), np.array([1, 0, 0, 1]))
        assert swapped.columns == small.columns
        assert swapped.spec("color").kind == "binary"
        assert swapped.values("color").tolist() == [1, 0, 0, 1]
        assert swapped.values("age") is small.values("age")
        with pytest.raises(NonBinary):
            small.replace(ColumnSpec("color", "binary"), np.array([0, 2, 1, 1]))

    def test_object_codes_read_as_numbers(self):
        data = Dataset([ColumnSpec("b", "binary")], {"b": np.array([1, 0], dtype=object)})
        assert data.values("b").tolist() == [1, 0]
        assert data.values("b").dtype == csvio.code_dtype(2)

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinary):
            Dataset([ColumnSpec("b", "binary")], {"b": np.array([0, 2])})

    def test_negative_codes_rejected(self):
        with pytest.raises(MissingValues):
            Dataset([ColumnSpec("c", "categorical")], {"c": np.array([0, -1])})

    def test_codes_outside_labels_rejected(self):
        with pytest.raises(UnknownColumn, match="value 5 not in categories of 'c'"):
            Dataset([ColumnSpec("c", "categorical", "covariate", ("a", "b"))], {"c": np.array([0, 5])})

    def test_unlabelled_categorical_gets_its_codes_as_labels(self):
        data = Dataset([ColumnSpec("c", "categorical")], {"c": np.array([3, 0])})
        assert data.spec("c").categories == ("0", "1", "2", "3")
        assert data.take([1]).arity("c") == 4

    def test_ragged_rejected(self):
        with pytest.raises(LengthMismatch):
            Dataset(
                [ColumnSpec("a", "binary"), ColumnSpec("b", "binary")],
                {"a": np.zeros(3, dtype=int), "b": np.zeros(2, dtype=int)},
            )

    def test_arrays_of_the_column_dtype_not_copied(self, small):
        codes = np.array([0, 1, 1], dtype=np.uint8)
        values = np.array([0.5, 1.5, 2.5])
        data = Dataset(
            [ColumnSpec("c", "binary"), ColumnSpec("v", "continuous")], {"c": codes, "v": values}
        )
        assert data.values("c") is codes and data.values("v") is values
        assert small.select(["age"]).values("age") is small.values("age")

    def test_columns_are_read_only(self, small):
        codes = np.array([0, 1, 1], dtype=np.uint8)
        data = Dataset([ColumnSpec("c", "categorical")], {"c": codes})
        block, start = data.level_block()
        rows = slice(start["c"], start["c"] + data.arity("c"))
        bits = block[rows].copy()
        # a write through the dataset, or through the array it kept, raises,
        # so the kept level bitsets always describe the codes
        with pytest.raises(ValueError, match="read-only"):
            data.values("c")[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            codes[0] = 1
        assert np.array_equal(data.level_block()[0][rows], bits)
        for sub in (small.take([2, 0]), small.select(["age"])):
            with pytest.raises(ValueError, match="read-only"):
                sub.values("age")[0] = 0.0

    def test_fractional_code_refused(self):
        with pytest.raises(DataError, match="'b' has a code that is not an integer: 0.7"):
            Dataset([ColumnSpec("b", "binary")], {"b": np.array([0.7, 1.9])})

    def test_code_past_int64_refused_not_wrapped(self):
        big = np.array([0, 2**64 - 1], dtype=np.uint64)
        with pytest.raises(NonBinary):
            Dataset([ColumnSpec("b", "binary")], {"b": big})
        with pytest.raises(UnknownColumn, match=f"value {2**64 - 1} not in categories"):
            Dataset([ColumnSpec("c", "categorical", "covariate", ("a", "b"))], {"c": big})
        with pytest.raises(DataError, match="a code too large to label"):
            Dataset([ColumnSpec("c", "categorical")], {"c": big})

    def test_unlabelled_codes_stop_at_uint16(self):
        top = Dataset([ColumnSpec("c", "categorical")], {"c": np.array([0, 2**16 - 1])})
        assert top.arity("c") == 2**16 and top.values("c").dtype == np.uint16
        for code in (2**16, 10**6):
            with pytest.raises(DataError, match=f"'c' has a code too large to label: {code}"):
                Dataset([ColumnSpec("c", "categorical")], {"c": np.array([0, code])})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_continuous_refused(self, bad):
        with pytest.raises(NonFinite, match="'v'"):
            Dataset([ColumnSpec("v", "continuous")], {"v": np.array([0.5, bad])})

    def test_nan_code_is_missing(self):
        with pytest.raises(MissingValues):
            Dataset([ColumnSpec("b", "binary")], {"b": np.array([0.0, np.nan])})

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

    @pytest.mark.parametrize(
        "names", [["#id", "T"], ['#"q"'], ["#", ""], ["#a,b", "T"], ["#\n", "x"], ["#\r\n"]]
    )
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

    @pytest.mark.parametrize("names", [["T", "a\rb"], ["a\rb"], ["#\r", "\r"], ["x", "\r\n"]])
    def test_carriage_return_in_column_name_round_trips(self, tmp_path, names):
        data = Dataset(
            [ColumnSpec(name, "binary") for name in names],
            {name: np.array([0, 1, 1]) for name in names},
        )
        data.write_csv(tmp_path / "d.csv", meta="v=1")
        write_schema(tmp_path / "s.json", data)
        again = Dataset.read_csv(tmp_path / "d.csv", tmp_path / "s.json")
        assert again.columns == names
        for name in names:
            assert again.values(name).tolist() == [0, 1, 1]

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

    @pytest.mark.parametrize(
        "schema, says",
        [
            ([1, 2], "expected an object, got list"),
            ({"cols": []}, "'columns' must be a list"),
            ({"columns": {"name": "a"}}, "'columns' must be a list"),
            ({"columns": ["a"]}, "columns[0] is not an object"),
            ({"columns": [{"name": "a", "kind": "binary"}, {"name": "b"}]}, "columns[1]: 'kind'"),
            ({"columns": [{"kind": "binary"}]}, "columns[0]: 'name'"),
            ({"columns": [{"name": 3, "kind": "binary"}]}, "columns[0]: 'name'"),
            ({"columns": [{"name": "a", "kind": ["binary"]}]}, "columns[0]: 'kind'"),
            ({"columns": [{"name": "a", "kind": "binary", "role": 1}]}, "column 'a': 'role'"),
            (
                {"columns": [{"name": "a", "kind": "categorical", "categories": [0, 1]}]},
                "column 'a': 'categories'",
            ),
            ({"columns": [{"name": "a", "kind": "ordinal"}]}, "'a': bad column kind 'ordinal'"),
            (
                {"columns": [{"name": "a", "kind": "binary", "role": "instrument"}]},
                "column 'a': bad column role 'instrument'",
            ),
            (
                {"columns": [{"name": "a", "kind": "categorical", "categories": ["1", "0", "1"]}]},
                "column 'a': category '1' is repeated",
            ),
            (
                {"columns": [{"name": "a", "kind": "binary"}, {"name": "a", "kind": "continuous"}]},
                "column 'a': the column is listed twice",
            ),
        ],
    )
    def test_malformed_schema_named(self, tmp_path, schema, says):
        (tmp_path / "d.csv").write_text("a\n1\n")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(schema))
        with pytest.raises(SchemaError) as caught:
            Dataset.read_csv(tmp_path / "d.csv", str(path))
        assert str(caught.value).startswith(f"{path}: ")
        assert says in str(caught.value)
        with pytest.raises(SchemaError, match=r"^schema: "):
            Dataset.read_csv(tmp_path / "d.csv", schema)

    def test_schema_not_json_named(self, tmp_path):
        (tmp_path / "d.csv").write_text("a\n1\n")
        (tmp_path / "s.json").write_text("{columns: []}")
        with pytest.raises(SchemaError, match="s.json: Expecting property name"):
            Dataset.read_csv(tmp_path / "d.csv", tmp_path / "s.json")

    def test_null_categories_read_as_none(self, tmp_path):
        (tmp_path / "d.csv").write_text("a\nx\ny\nx\n")
        schema = {"columns": [{"name": "a", "kind": "categorical", "categories": None}]}
        data = Dataset.read_csv(tmp_path / "d.csv", schema)
        assert data.spec("a").categories == ("x", "y")

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


@st.composite
def mixed_datasets(draw):
    """Float, binary, labelled and unlabelled categorical columns."""
    n = draw(st.integers(0, 12))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))

    return Dataset(
        [
            ColumnSpec("v", "continuous"),
            ColumnSpec("b", "binary"),
            ColumnSpec("lab", "categorical", "covariate", ("x", "y", "z")),
            ColumnSpec("k", "categorical"),
        ],
        {
            "v": column(FLOATS).astype(np.float64),
            "b": column(st.integers(0, 1)),
            "lab": column(st.integers(0, 2)),
            "k": column(st.integers(0, 15)),
        },
    )


@settings(max_examples=100, deadline=None)
@given(data=mixed_datasets())
def test_unlabelled_categorical_round_trip_property(data, tmp_path_factory):
    root = tmp_path_factory.mktemp("mixed")
    data.write_csv(root / "d.csv")
    write_schema(root / "s.json", data)
    again = Dataset.read_csv(root / "d.csv", root / "s.json")
    for name in data.columns:
        assert again.spec(name) == data.spec(name)
        assert again.values(name).tobytes() == data.values(name).tobytes()


CODE_DTYPES = ["bool", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
               "float32", "float64"]


def code_values(dtype):
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        return st.booleans()
    if dtype.kind == "f":
        return st.one_of(
            st.floats(width=8 * dtype.itemsize),
            st.integers(-2, 300).map(float),
            st.sampled_from([0.5, 299.5, 2.0**64, -(2.0**64)]),
        )
    info = np.iinfo(dtype)
    return st.one_of(
        st.integers(max(info.min, -2), min(info.max, 300)),
        st.sampled_from([info.min, info.max, min(info.max, 255), min(info.max, 256)]),
    )


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from(CODE_DTYPES), arity=st.sampled_from([2, 3, 256, 257, 300]),
       data=st.data())
def test_codes_checked_before_narrowed(dtype, arity, data):
    """Codes of any dtype are kept, exactly, iff every one is an integer in
    ``[0, arity)``; else they are refused. No value wraps when narrowed."""
    values = np.array(data.draw(st.lists(code_values(dtype), max_size=6)), dtype=dtype)
    spec = (
        ColumnSpec("c", "binary") if arity == 2
        else ColumnSpec("c", "categorical", "covariate", tuple(map(str, range(arity))))
    )
    fits = all(
        math.isfinite(v) and v == int(v) and 0 <= v < arity for v in values.tolist()
    )
    try:
        stored = Dataset([spec], {"c": values}).values("c")
    except DataError:
        assert not fits
    else:
        assert fits
        assert stored.dtype == csvio.code_dtype(arity)
        assert stored.tolist() == [int(v) for v in values.tolist()]


def column_bytes(data):
    return sum(data.values(name).nbytes for name in data.columns)


def assert_codes_narrow(data):
    for name in data.columns:
        if data.spec(name).kind != "continuous":
            assert data.values(name).dtype == csvio.code_dtype(data.arity(name)), name


class TestOneBytePerCode:
    """A code column holds one byte a cell (up to 256 levels) wherever a
    dataset comes from, so a change that widens one fails here."""

    def test_generated_take_and_discretized(self):
        rows = 2000
        data, _, _ = generate_group(SynthConfig(group="group2", seed=5, n_samples=rows))
        kinds = [data.spec(name).kind for name in data.columns]
        continuous = kinds.count("continuous")
        assert (continuous, len(kinds) - continuous) == (45, 57)
        per_row = 8 * continuous + 1 * (len(kinds) - continuous)
        assert column_bytes(data) == rows * per_row
        half = data.take(np.arange(0, rows, 2))
        assert column_bytes(half) == rows // 2 * per_row
        binned = discretize_dataset(data, bins=3)
        assert column_bytes(binned) == rows * len(kinds)
        for each in (data, half, binned):
            assert_codes_narrow(each)

    @pytest.mark.parametrize("fast", [True, False])
    def test_read_csv_on_both_paths(self, tmp_path, monkeypatch, fast):
        labels = tuple(f"l{i}" for i in range(300))
        data = Dataset(
            [
                ColumnSpec("b", "binary"),
                ColumnSpec("c", "categorical", "covariate", ("x", "y", "z")),
                ColumnSpec("w", "categorical", "covariate", labels),
                ColumnSpec("v", "continuous"),
            ],
            {"b": [0, 1, 1], "c": [2, 0, 1], "w": [299, 0, 256], "v": [0.5, 1.5, -2.0]},
        )
        data.write_csv(tmp_path / "d.csv")
        write_schema(tmp_path / "s.json", data)
        if not fast:

            def refuse(*args):
                raise ValueError("left to the cells pass")

            monkeypatch.setattr(csvio, "_typed_columns", refuse)
        again = Dataset.read_csv(tmp_path / "d.csv", tmp_path / "s.json")
        assert [again.values(n).dtype for n in again.columns] == [
            np.uint8, np.uint8, np.uint16, np.float64
        ]
        assert_codes_narrow(again)
        for name in data.columns:
            assert again.values(name).tobytes() == data.values(name).tobytes()
