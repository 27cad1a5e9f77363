"""Columnar dataset container with typed columns and treatment/outcome roles.

Columns are binary (codes of the labels ``"0"``, ``"1"``), categorical
(codes plus a label vocabulary) or continuous (float64). The codes of a
binary or categorical column have the narrowest unsigned dtype of its
arity, ``csvio.code_dtype(arity)``: one byte a cell up to 256 levels, from
the CSV read through every row subset to the G-squared counts. On-disk
format is an RFC-style CSV with a mandatory header (``csvio``) plus a
JSON schema sidecar carrying column kinds, roles and category vocabularies
(``read_json`` and ``write_json``, the one JSON reader and writer). Lines
starting with ``#`` before the header are comments (the CLI uses one to
stamp tool version and config hash).
"""

import dataclasses
import json
import math

import numpy as np

from . import csvio
from ._kernels import pack_level_block
from .errors import (
    DataError,
    LengthMismatch,
    MissingValues,
    NonBinary,
    NonFinite,
    SchemaError,
    UnknownColumn,
)

KINDS = ("binary", "categorical", "continuous")
ROLES = ("treatment", "outcome", "covariate", "noise")


@dataclasses.dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    role: str = "covariate"
    categories: tuple = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"bad column kind {self.kind!r}")
        if self.role not in ROLES:
            raise ValueError(f"bad column role {self.role!r}")
        cats = None if self.categories is None else tuple(self.categories)
        if self.kind == "binary":
            if cats not in (None, csvio.BITS):
                raise ValueError(f"a binary column's categories are '0', '1', not {list(cats)}")
            cats = csvio.BITS
        elif self.kind == "continuous" and cats is not None:
            raise ValueError("a continuous column has no categories")
        object.__setattr__(self, "categories", cats)
        if cats is not None and len(set(cats)) < len(cats):
            repeated = next(c for i, c in enumerate(cats) if c in cats[:i])
            raise ValueError(f"category {repeated!r} is repeated")

    @property
    def cells(self):
        """The ``csvio`` kind of this column's cells. A categorical column
        without labels, which no ``Dataset`` holds, is read as ``"text"``."""
        if self.kind == "continuous":
            return "float"
        return "text" if self.categories is None else self.categories

    def to_dict(self, role=True):
        """The JSON entry that ``column_specs`` reads back as this spec of a
        dataset column; without ``role``, it reads back with the default."""
        entry = {"name": self.name, "kind": self.kind}
        if role:
            entry["role"] = self.role
        if self.kind == "categorical":
            entry["categories"] = list(self.categories)
        return entry


class Dataset:
    """Immutable table; arrays are not copied on access, nor on construction
    when they already have the column's dtype (float64, or the codes'
    ``csvio.code_dtype`` of the arity). Every stored array is made
    read-only, the caller's own included when it is kept as given, so an
    in-place write raises instead of desynchronising the column from the
    level bitsets the dataset keeps (a write through another view of the
    same memory is not caught).

    Codes may come in any integer, bool or float dtype. Each column is
    checked in the dtype it came in, and only then narrowed, so no value
    wraps: a negative or NaN code is ``MissingValues``, a fractional one a
    ``DataError``, a binary code past 1 ``NonBinary``, and a categorical
    code past its labels ``UnknownColumn``. A categorical column given
    without labels gets its codes, below 2**16, as labels, ``"0"`` to the
    largest. A continuous value must be finite (``NonFinite``).
    """

    def __init__(self, specs, arrays):
        self._specs = {}
        self._values = {}
        self._block = None
        n = None
        for spec in specs:
            if spec.name in self._specs:
                raise ValueError(f"duplicate column {spec.name!r}")
            if spec.kind == "continuous":
                values = np.asarray(arrays[spec.name], dtype=np.float64)
                if not np.isfinite(values).all():
                    raise NonFinite(spec.name)
            else:
                spec, values = _checked_codes(spec, arrays[spec.name])
            values.flags.writeable = False
            if n is None:
                n = values.shape[0]
            elif values.shape[0] != n:
                raise LengthMismatch(
                    f"column {spec.name!r} has {values.shape[0]} rows, expected {n}"
                )
            self._specs[spec.name] = spec
            self._values[spec.name] = values
        self.n_rows = 0 if n is None else int(n)

    @classmethod
    def of_valid(cls, specs, arrays):
        """A dataset of arrays already known to fit their specs: columns of
        a dataset (or rows of them), or codes made to index their labels.
        They are kept as given, made read-only, and not checked again."""
        self = cls.__new__(cls)
        self._specs = {spec.name: spec for spec in specs}
        if len(self._specs) != len(specs):
            raise ValueError("duplicate column")
        self._values = {}
        for name in self._specs:
            values = arrays[name]
            values.flags.writeable = False
            self._values[name] = values
        self._block = None
        self.n_rows = len(values) if self._values else 0
        return self

    @property
    def columns(self):
        return list(self._specs)

    def __contains__(self, name):
        return name in self._specs

    def spec(self, name):
        if name not in self._specs:
            raise UnknownColumn(name)
        return self._specs[name]

    def values(self, name):
        if name not in self._values:
            raise UnknownColumn(name)
        return self._values[name]

    def arity(self, name):
        spec = self.spec(name)
        if spec.kind == "continuous":
            raise ValueError(f"column {name!r} is continuous; it has no arity")
        return len(spec.categories)

    def level_block(self):
        """``(block, start)``: the packed level bitsets of every binary and
        categorical column, built together on first use by
        ``_kernels.pack_level_block``. Column ``name``'s level ``l`` is row
        ``start[name] + l`` of ``block``; a column too wide to pack is not in
        ``start``."""
        if self._block is None:
            names = [n for n, s in self._specs.items() if s.kind != "continuous"]
            arities = [self.arity(n) for n in names]
            block, start = pack_level_block([self._values[n] for n in names], arities)
            self._block = block, {n: int(s) for n, s in zip(names, start) if s >= 0}
        return self._block

    def role_of(self, role):
        """Names of columns carrying ``role``, in declaration order."""
        return [n for n, s in self._specs.items() if s.role == role]

    def select(self, names):
        return Dataset.of_valid([self.spec(n) for n in names], self._values)

    def take(self, row_idx):
        row_idx = np.asarray(row_idx)
        return Dataset.of_valid(
            list(self._specs.values()),
            {n: v[row_idx] for n, v in self._values.items()},
        )

    def replace(self, spec, values):
        """New dataset with one column's spec/values swapped in place."""
        specs = [spec if s.name == spec.name else s for s in self._specs.values()]
        arrays = dict(self._values)
        arrays[spec.name] = values
        return Dataset(specs, arrays)

    # ------------------------------------------------------------- schema io

    def schema_dict(self):
        cols = [spec.to_dict() for spec in self._specs.values()]
        return {"format": "causaluplift-schema", "version": 1, "columns": cols}

    # ---------------------------------------------------------------- csv io

    def write_csv(self, path, meta=None, parts=()):
        """Write the header and rows, and each ``(part_path, rows)`` of
        ``parts`` (sorted row indices) as ``take(rows).write_csv`` would,
        every row encoded once (``csvio.write_typed``)."""
        columns = {n: (self._specs[n].cells, v) for n, v in self._values.items()}
        csvio.write_typed(path, columns, meta, parts)

    @classmethod
    def read_csv(cls, path, schema):
        """Load a CSV against a schema dict (or path to a schema JSON).

        The file is read by ``csvio.read_typed``, which splits every line
        into cells by ``np.loadtxt``: a body with no quote, NUL or
        ``\\x1c``-``\\x1f`` byte is decoded in one typed pass, any other
        (or one that pass refuses) as cells a column at a time, which names
        every error. A header name outside the schema is ``UnknownColumn``,
        raised before the body is read; a blank line, or a row not as wide
        as the header, is ``LengthMismatch`` naming the file; then
        ``MissingValues``, ``NonNumeric``, ``NonFinite``, ``NonBinary`` or
        ``UnknownColumn`` (a cell outside a column's categories). A
        malformed schema is a ``SchemaError``, raised before the CSV is read.
        """
        specs = _schema_specs(schema)

        def kinds_of(header):
            unknown = [h for h in header if h not in specs]
            if unknown:
                raise UnknownColumn(unknown[0])
            return {h: specs[h].cells for h in header}

        arrays = csvio.read_typed(path, kinds_of)
        for h, values in arrays.items():
            if specs[h].cells == "text":  # the vocabulary is the sorted distinct cells
                cats, codes = np.unique(values, return_inverse=True)
                arrays[h] = codes.astype(csvio.code_dtype(len(cats)))
                specs[h] = dataclasses.replace(specs[h], categories=cats)
        # read_typed has checked every column against its spec
        return cls.of_valid([specs[h] for h in arrays], arrays)


def _checked_codes(spec, values):
    """``spec`` (with labels, for a categorical column given none) and
    ``values`` as codes of its ``csvio.code_dtype``, each checked before it
    is narrowed."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        values = values.astype(np.float64)
    if values.dtype.kind == "f":
        if np.isnan(values).any():
            raise MissingValues(spec.name)
        fractional = values[values != np.trunc(values)]
        if fractional.size:
            raise DataError(
                f"column {spec.name!r} has a code that is not an integer: {fractional[0]}"
            )
    # the extremes in the dtype the codes came in, compared as Python numbers
    low, top = (values.min().item(), values.max().item()) if values.size else (0, -1)
    low, top = (int(v) if math.isfinite(v) else v for v in (low, top))
    if low < 0:
        raise MissingValues(spec.name)
    if spec.categories is None:
        if top >= 1 << 16:  # past the uint16 codes
            raise DataError(f"column {spec.name!r} has a code too large to label: {top}")
        spec = dataclasses.replace(spec, categories=map(str, range(top + 1)))
    elif top >= len(spec.categories):
        if spec.kind == "binary":
            raise NonBinary(spec.name)
        raise UnknownColumn(f"value {top} not in categories of {spec.name!r}")
    return spec, values.astype(csvio.code_dtype(len(spec.categories)), copy=False)


def _schema_specs(schema):
    """The ``ColumnSpec`` of each schema column entry (see
    ``column_specs``), by name; the schema is a dict or a JSON file's path."""
    source = "schema"
    if isinstance(schema, str) or hasattr(schema, "read_text"):
        source = str(schema)
        schema = read_json(schema, SchemaError)
    if not isinstance(schema, dict):
        raise SchemaError(f"{source}: expected an object, got {type(schema).__name__}")
    if not isinstance(schema.get("columns"), list):
        raise SchemaError(f"{source}: 'columns' must be a list of column objects")
    return {spec.name: spec for spec in column_specs(schema["columns"], source)}


def column_specs(entries, source, key="columns"):
    """The ``ColumnSpec`` of each JSON column entry of ``source``'s list
    ``key``: an object with a string ``name`` and ``kind``, optional string
    ``role`` and ``categories``, that ``ColumnSpec`` accepts, and whose name
    no earlier entry has; else a ``SchemaError`` naming the entry."""
    specs = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"{source}: {key}[{i}] is not an object")
        for field in ("name", "kind"):
            if not isinstance(entry.get(field), str):
                raise SchemaError(f"{source}: {key}[{i}]: {field!r} must be a string")
        where = f"{source}: column {entry['name']!r}"
        if not isinstance(entry.get("role", ""), str):
            raise SchemaError(f"{where}: 'role' must be a string")
        categories = entry.get("categories")
        if categories is not None and not (
            isinstance(categories, list) and all(isinstance(c, str) for c in categories)
        ):
            raise SchemaError(f"{where}: 'categories' must be a list of strings")
        if entry["name"] in specs:
            raise SchemaError(f"{where}: the column is listed twice")
        try:
            specs[entry["name"]] = ColumnSpec(
                entry["name"], entry["kind"], entry.get("role", "covariate"), categories
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return list(specs.values())


def write_schema(path, dataset, extra=None):
    write_json(path, {**dataset.schema_dict(), **(extra or {})})


def read_json(path, error=ValueError):
    """The JSON value of the UTF-8 file ``path``; text that is not JSON, or
    not UTF-8, is ``error`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise error(f"{path}: {exc}") from None


def write_json(path, payload):
    """Write ``payload`` as indented JSON, with a final line end."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
