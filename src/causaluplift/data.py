"""Columnar dataset container with typed columns and treatment/outcome roles.

Columns are binary (0/1 int codes), categorical (int codes plus a label
vocabulary) or continuous (float64). On-disk format is an RFC-style CSV with
a mandatory header plus a JSON schema sidecar carrying column kinds, roles
and category vocabularies, read and written by ``csvio``. Lines starting
with ``#`` before the header are comments (the CLI uses one to stamp tool
version and config hash).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import csvio
from .errors import (
    LengthMismatch,
    MissingValues,
    NonBinary,
    UnknownColumn,
)

KINDS = ("binary", "categorical", "continuous")
ROLES = ("treatment", "outcome", "covariate", "noise")


@dataclass(frozen=True)
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
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(self.categories))


class Dataset:
    """Immutable-by-convention table; arrays are not copied on access."""

    def __init__(self, specs, arrays):
        self._specs = {}
        self._values = {}
        n = None
        for spec in specs:
            if spec.name in self._specs:
                raise ValueError(f"duplicate column {spec.name!r}")
            values = np.asarray(arrays[spec.name])
            if spec.kind == "continuous":
                values = values.astype(np.float64)
            else:
                values = values.astype(np.int64)
                if values.size and values.min() < 0:
                    raise MissingValues(spec.name)
                if spec.kind == "binary" and values.size and values.max() > 1:
                    raise NonBinary(spec.name)
            if n is None:
                n = values.shape[0]
            elif values.shape[0] != n:
                raise LengthMismatch(
                    f"column {spec.name!r} has {values.shape[0]} rows, expected {n}"
                )
            self._specs[spec.name] = spec
            self._values[spec.name] = values
        self.n_rows = 0 if n is None else int(n)

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
        if spec.kind == "binary":
            return 2
        if spec.categories is not None:
            return len(spec.categories)
        values = self._values[name]
        return int(values.max()) + 1 if values.size else 0

    def role_of(self, role):
        """Names of columns carrying ``role``, in declaration order."""
        return [n for n, s in self._specs.items() if s.role == role]

    def select(self, names):
        return Dataset([self.spec(n) for n in names], self._values)

    def take(self, row_idx):
        row_idx = np.asarray(row_idx)
        return Dataset(
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
        cols = []
        for spec in self._specs.values():
            entry = {"name": spec.name, "kind": spec.kind, "role": spec.role}
            if spec.categories is not None:
                entry["categories"] = list(spec.categories)
            cols.append(entry)
        return {"format": "causaluplift-schema", "version": 1, "columns": cols}

    # ---------------------------------------------------------------- csv io

    def _encoder(self, name):
        spec = self._specs[name]
        if spec.kind == "continuous":
            return csvio.float_cells
        if spec.kind == "binary":
            return csvio.bit_cells
        if spec.categories is not None:
            return csvio.label_encoder(spec.categories)
        return csvio.int_cells

    def write_csv(self, path, meta=None, lines=None):
        """Write the header and rows; return the encoded row lines.

        ``lines`` may be (a subset of) lines an earlier call returned, so a
        caller writing several row subsets of one dataset encodes it once.
        """
        if lines is None:
            columns = [(self._encoder(n), v) for n, v in self._values.items()]
            lines = csvio.encode_lines(columns, self.n_rows)
        csvio.write(path, self.columns, lines, meta)
        return lines

    @classmethod
    def read_csv(cls, path, schema):
        """Load a CSV against a schema dict (or path to a schema JSON).

        The body is decoded by ``csvio.read_typed``: a quote-free body in one
        typed ``np.loadtxt`` pass, any other (or one that pass refuses) by
        ``csv.reader`` a column at a time. Every error comes from the
        ``csv.reader`` path: ``LengthMismatch``, ``MissingValues``,
        ``NonFinite``, ``NonBinary`` or ``UnknownColumn`` (a header name
        outside the schema, or a cell outside a column's categories).
        """
        if isinstance(schema, (str,)) or hasattr(schema, "read_text"):
            with open(schema, "r", encoding="utf-8") as fh:
                schema = json.load(fh)
        by_name = {c["name"]: c for c in schema["columns"]}

        def kinds_of(header):
            unknown = [h for h in header if h not in by_name]
            if unknown:
                raise UnknownColumn(unknown[0])
            for h in header:  # a bad kind or role is refused before any cell
                ColumnSpec(h, by_name[h]["kind"], by_name[h].get("role", "covariate"))
            return {h: _csv_kind(by_name[h]) for h in header}

        arrays = csvio.read_typed(path, kinds_of)
        specs = []
        for h, values in arrays.items():
            entry = by_name[h]
            kind = _csv_kind(entry)
            cats = kind if isinstance(kind, tuple) else None
            if kind == "text":  # the vocabulary is the sorted distinct cells
                cats, arrays[h] = np.unique(values, return_inverse=True)
            specs.append(ColumnSpec(h, entry["kind"], entry.get("role", "covariate"), cats))
        return cls(specs, arrays)


def _csv_kind(entry):
    """The ``csvio`` kind of a schema column's cells."""
    kind = entry["kind"]
    if kind == "continuous":
        return "float"
    if kind == "binary":
        return "bit"
    cats = entry.get("categories")
    return "text" if cats is None else tuple(cats)


def write_schema(path, dataset, extra=None):
    payload = dataset.schema_dict()
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
