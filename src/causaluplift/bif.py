"""Reader and writer for a discrete-variable subset of the BIF format.

Supported blocks: ``network``, ``variable`` (type discrete only) and
``probability`` with either per-configuration rows or, for parentless
variables, a single ``table`` row. ``property`` lines are skipped, ``//``
and ``/* */`` comments are allowed. Parse errors carry line and column.
"""

import re

import numpy as np

from .datagen import BayesNet
from .errors import BifError, BifSyntaxError, UnknownVariable
from .graph import Dag

_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<number>{_NUMBER})
  | (?P<name>{_NAME})
  | (?P<punct>[{{}}()\[\]|,;])
    """,
    re.VERBOSE | re.DOTALL,
)
_NAME_RE = re.compile(_NAME)
_LABEL_RE = re.compile(f"{_NUMBER}|{_NAME}")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise BifSyntaxError(
                line, pos - line_start + 1, "a token", found=text[pos]
            )
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, raw, line, pos - line_start + 1))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = pos + raw.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise _error(tok, repr(text))
        return tok

    def expect_kind(self, what, *kinds):
        tok = self.next()
        if tok.kind not in kinds:
            raise _error(tok, what)
        return tok

    def items(self, read):
        """A comma list of one or more items, each read by ``read()``."""
        out = [read()]
        while self.peek().text == ",":
            self.next()
            out.append(read())
        return out

    def skip_properties(self):
        while self.peek().text == "property":
            while self.next().text != ";":
                if self.peek().kind == "end":
                    raise _error(self.peek(), "';'", found="end of input")


def _error(tok, expected, found=None):
    """The syntax error of finding ``tok`` (or ``found``) where ``expected`` was due."""
    return BifSyntaxError(tok.line, tok.col, expected, found=found or tok.text)


def _distinct(tokens, what):
    """The tokens' texts, refusing the first one that repeats an earlier one."""
    seen = []
    for tok in tokens:
        if tok.text in seen:
            raise _error(tok, what)
        seen.append(tok.text)
    return seen


def parse_bif(text):
    """Parse BIF text into a validated BayesNet."""
    p = _Parser(text)
    values = {}  # variable -> labels, in declaration order
    parents = {}
    cpts = {}
    if p.peek().text == "network":
        p.next()
        p.expect_kind("network name", "name")
        p.expect("{")
        p.skip_properties()
        p.expect("}")
    while p.peek().kind != "end":
        tok = p.next()
        if tok.text == "variable":
            _variable(p, values)
        elif tok.text == "probability":
            _probability(p, values, parents, cpts)
        else:
            raise _error(tok, "'variable' or 'probability'")
    edges = [(par, v) for v in values for par in parents.get(v, ())]
    return BayesNet(Dag(values, edges), values, cpts, parents)


def _variable(p, values):
    """Read one variable block's labels into ``values``."""
    name_tok = p.expect_kind("variable name", "name")
    if name_tok.text in values:
        raise _error(name_tok, "a new variable name")
    for text in ("{", "type", "discrete", "["):
        p.expect(text)
    arity_tok = p.next()
    if not arity_tok.text.isdecimal():
        raise _error(arity_tok, "an integer variable arity")
    arity = int(arity_tok.text)
    p.expect("]")
    p.expect("{")
    # category labels may be bare names or numeric ("0", "1")
    labels = p.items(lambda: p.expect_kind("a category label", "name", "number"))
    labels = _distinct(labels, "a new category label")
    p.expect("}")
    p.expect(";")
    p.skip_properties()
    p.expect("}")
    if len(labels) != arity:
        raise _error(arity_tok, f"{arity} category labels", f"{len(labels)} labels")
    values[name_tok.text] = tuple(labels)


def _probability(p, values, parents, cpts):
    """Read one probability block into ``parents`` and ``cpts``, placing
    each row of the child's dense CPT at its row-major parent configuration
    as it is read."""
    p.expect("(")
    child_tok = _known(p.expect_kind("variable name", "name"), values)
    child = child_tok.text
    names = []
    if p.peek().text == "|":
        p.next()
        tokens = p.items(lambda: _known(p.expect_kind("parent name", "name"), values))
        names = _distinct(tokens, "a new parent name")
    p.expect(")")
    if child in cpts:
        raise _error(child_tok, "a single probability block per variable")
    arities = [len(values[par]) for par in names]
    # rows never read stay NaN, which BayesNet reports with their parent labels
    table = np.full((int(np.prod(arities)), len(values[child])), np.nan)
    parents[child], cpts[child] = names, table
    p.expect("{")
    while p.peek().text != "}":
        p.skip_properties()
        row_tok = p.next()
        if row_tok.text == "table" and not names:
            config = ()
        elif row_tok.text == "table":
            raise _error(row_tok, "per-configuration rows for a variable with parents")
        elif row_tok.text == "(":
            config = tuple(p.items(lambda: p.expect_kind("a parent value", "name", "number").text))
            p.expect(")")
            if len(config) != len(names):
                raise _error(row_tok, f"{len(names)} parent values", f"{len(config)} values")
        else:
            raise _error(row_tok, "'table' or '('")
        codes = []
        for par, label in zip(names, config):
            if label not in values[par]:
                raise UnknownVariable(f"{par}={label}", row_tok.line, row_tok.col)
            codes.append(values[par].index(label))
        row = table[np.ravel_multi_index(codes, arities)]
        if not np.isnan(row[0]):
            raise _error(row_tok, "a new parent configuration", str(config))
        probs = p.items(lambda: float(p.expect_kind("a probability", "number").text))
        p.expect(";")
        if len(probs) != len(row):
            raise _error(row_tok, f"{len(row)} probabilities", str(len(probs)))
        row[:] = probs
    p.expect("}")


def _known(tok, values):
    """``tok``, refused unless it names a declared variable."""
    if tok.text not in values:
        raise UnknownVariable(tok.text, tok.line, tok.col)
    return tok


def emit_bif(net, name="network"):
    """Canonical BIF text; parse(emit(net)) reproduces the net exactly.

    Raises ``BifError`` for a node name that is not a BIF name token, or a
    label that is not a name or number token, since neither would read back.
    """
    lines = [f"network {name} {{", "}"]
    for v in net.dag.nodes:
        if not _NAME_RE.fullmatch(v):
            raise BifError(f"node {v!r} is not a BIF name")
        for label in net.categories[v]:
            if not _LABEL_RE.fullmatch(label):
                raise BifError(f"node {v!r} has label {label!r}, not a BIF name or number")
        cats = ", ".join(net.categories[v])
        lines.append(f"variable {v} {{")
        lines.append(f"  type discrete [ {net.arity(v)} ] {{ {cats} }};")
        lines.append("}")
    for v in net.dag.nodes:
        parents = net.cpt_parents[v]
        head = f"{v} | {', '.join(parents)}" if parents else v
        lines.append(f"probability ( {head} ) {{")
        # rows in the row-major order the reader places them in
        for config, row in zip(np.ndindex(*map(net.arity, parents)), net.cpts[v]):
            labels = ", ".join(net.categories[par][c] for par, c in zip(parents, config))
            key = f"( {labels} )" if parents else "table"
            lines.append(f"  {key} " + ", ".join(map(repr, row.tolist())) + ";")
        lines.append("}")
    return "\n".join(lines) + "\n"
