"""Exception and warning types shared across the package."""


class CausalUpliftError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- graph


class GraphError(CausalUpliftError):
    pass


class CycleDetected(GraphError):
    def __init__(self, path):
        self.path = list(path)
        super().__init__("directed cycle: " + " -> ".join(self.path))


class UnknownNode(GraphError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown node {name!r}")


class DuplicateEdge(GraphError):
    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"duplicate edge {self.edge[0]!r} -> {self.edge[1]!r}")


class OverlappingSets(GraphError):
    pass


# ---------------------------------------------------------------- data / stats


class DataError(CausalUpliftError):
    pass


class UnknownColumn(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown column {name!r}")


class MissingColumn(UnknownColumn):
    """A prediction input lacks a column the model was trained on."""


class EmptyColumn(DataError):
    pass


class SchemaError(DataError):
    """A schema that is not an object of column entries, or an entry with a
    missing or ill-typed key or a value its ``ColumnSpec`` refuses."""


class MissingValues(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} contains missing values")


class ContinuousColumn(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(
            f"column {name!r} is continuous; discretize before contingency testing"
        )


class NonBinary(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} is not binary 0/1")


class NonFinite(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} contains a non-finite value (nan or inf)")


class NonNumeric(DataError, ValueError):
    """A continuous cell that ``float`` cannot read; ``row`` counts data
    rows from 1, after the header."""

    def __init__(self, name, row, cell, source=None):
        self.name = name
        self.row = row
        self.cell = cell
        where = f"{source}: " if source else ""
        super().__init__(f"{where}column {name!r}, data row {row}: {cell!r} is not a number")


class LengthMismatch(CausalUpliftError):
    pass


class InvalidDof(CausalUpliftError):
    pass


# ---------------------------------------------------------------- classify


class EmptyArm(CausalUpliftError):
    def __init__(self, arm, n_treated, n_control):
        self.arm = arm
        self.n_treated = n_treated
        self.n_control = n_control
        super().__init__(
            f"arm T={arm} has no rows (treated={n_treated}, control={n_control})"
        )


# ---------------------------------------------------------------- bayes nets / BIF


class BifError(CausalUpliftError):
    pass


class BifSyntaxError(BifError):
    def __init__(self, line, col, expected, found=None):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        what = f", found {found!r}" if found is not None else ""
        super().__init__(f"line {line}, col {col}: expected {expected}{what}")


class UnknownVariable(BifError):
    def __init__(self, name, line=None, col=None):
        self.name = name
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"unknown variable {name!r}{where}")


class RowSumViolation(BifError):
    def __init__(self, node, config, total):
        self.node = node
        self.config = tuple(config)
        self.total = total
        super().__init__(
            f"CPT row for {node!r} at parent config {self.config} sums to {total!r}"
        )


class MissingCptRow(BifError):
    def __init__(self, node, config=None):
        self.node = node
        self.config = None if config is None else tuple(config)
        what = f" at parent config {self.config}" if config is not None else ""
        super().__init__(f"missing CPT row for {node!r}{what}")


class TNotParent(CausalUpliftError):
    def __init__(self, t, y):
        super().__init__(f"{t!r} is not a parent of {y!r} in the generating network")


# ---------------------------------------------------------------- evaluation


class EmptyControl(CausalUpliftError):
    pass


class InvalidK(CausalUpliftError):
    pass


class TooFewSamples(CausalUpliftError):
    pass


# ---------------------------------------------------------------- warnings


class DegenerateLabelsWarning(UserWarning):
    """Training labels contain a single class; a constant model is fitted."""


class DegenerateColumnWarning(UserWarning):
    """A column had fewer than two distinct values when discretized."""


class UnseenCategoryWarning(UserWarning):
    """Prediction input contains categories unseen at training time."""


class EmptyParentSetWarning(UserWarning):
    """No parents besides the treatment were found; models are constants."""


class ZeroVarianceWarning(UserWarning):
    """Paired differences have zero variance; p-value degenerates."""
