"""Reader and writer for a discrete-variable subset of the BIF format.

Supported blocks: ``network``, ``variable`` (type discrete only) and
``probability`` with either per-configuration rows or, for parentless
variables, a single ``table`` row. ``property`` lines are skipped, ``//``
and ``/* */`` comments are allowed. Parse errors carry line and column.
"""

import re

import numpy as np

from .datagen import BayesNet
from .errors import BifError, BifSyntaxError, MissingCptRow, UnknownVariable
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
            raise BifSyntaxError(tok.line, tok.col, repr(text), found=tok.text)
        return tok

    def expect_kind(self, kind, what):
        tok = self.next()
        if tok.kind != kind:
            raise BifSyntaxError(tok.line, tok.col, what, found=tok.text)
        return tok

    def expect_label(self, what):
        # category labels may be bare names or numeric ("0", "1")
        tok = self.next()
        if tok.kind not in ("name", "number"):
            raise BifSyntaxError(tok.line, tok.col, what, found=tok.text)
        return tok

    def skip_properties(self):
        while self.peek().text == "property":
            while self.next().text not in (";",):
                if self.peek().kind == "end":
                    tok = self.peek()
                    raise BifSyntaxError(tok.line, tok.col, "';'", found="end of input")


def parse_bif(text):
    """Parse BIF text into a validated BayesNet."""
    p = _Parser(text)
    name_order = []
    values = {}
    blocks = {}  # child -> (parents tuple, rows dict config->probs, token)

    tok = p.peek()
    if tok.text == "network":
        p.next()
        p.expect_kind("name", "network name")
        p.expect("{")
        p.skip_properties()
        p.expect("}")

    while p.peek().kind != "end":
        tok = p.next()
        if tok.text == "variable":
            name_tok = p.expect_kind("name", "variable name")
            if name_tok.text in values:
                raise BifSyntaxError(
                    name_tok.line, name_tok.col, "a new variable name", found=name_tok.text
                )
            p.expect("{")
            p.expect("type")
            p.expect("discrete")
            p.expect("[")
            arity_tok = p.expect_kind("number", "variable arity")
            arity = int(float(arity_tok.text))
            p.expect("]")
            p.expect("{")
            labels = [p.expect_label("a category label").text]
            while p.peek().text == ",":
                p.next()
                labels.append(p.expect_label("a category label").text)
            p.expect("}")
            p.expect(";")
            p.skip_properties()
            p.expect("}")
            if len(labels) != arity:
                raise BifSyntaxError(
                    arity_tok.line,
                    arity_tok.col,
                    f"{arity} category labels",
                    found=f"{len(labels)} labels",
                )
            name_order.append(name_tok.text)
            values[name_tok.text] = tuple(labels)
        elif tok.text == "probability":
            p.expect("(")
            child_tok = p.expect_kind("name", "variable name")
            child = child_tok.text
            if child not in values:
                raise UnknownVariable(child, child_tok.line, child_tok.col)
            parents = []
            if p.peek().text == "|":
                p.next()
                while True:
                    par_tok = p.expect_kind("name", "parent name")
                    if par_tok.text not in values:
                        raise UnknownVariable(par_tok.text, par_tok.line, par_tok.col)
                    parents.append(par_tok.text)
                    if p.peek().text != ",":
                        break
                    p.next()
            p.expect(")")
            if child in blocks:
                raise BifSyntaxError(
                    child_tok.line, child_tok.col, "a single probability block per variable",
                    found=child,
                )
            p.expect("{")
            rows = {}
            while p.peek().text != "}":
                p.skip_properties()
                row_tok = p.peek()
                if row_tok.text == "table":
                    p.next()
                    if parents:
                        raise BifSyntaxError(
                            row_tok.line,
                            row_tok.col,
                            "per-configuration rows for a variable with parents",
                            found="table",
                        )
                    probs = _read_numbers(p)
                    rows[()] = (probs, row_tok)
                elif row_tok.text == "(":
                    p.next()
                    config = [p.expect_label("a parent value").text]
                    while p.peek().text == ",":
                        p.next()
                        config.append(p.expect_label("a parent value").text)
                    p.expect(")")
                    if len(config) != len(parents):
                        raise BifSyntaxError(
                            row_tok.line,
                            row_tok.col,
                            f"{len(parents)} parent values",
                            found=f"{len(config)} values",
                        )
                    key = []
                    for par, label in zip(parents, config):
                        if label not in values[par]:
                            raise UnknownVariable(
                                f"{par}={label}", row_tok.line, row_tok.col
                            )
                        key.append(values[par].index(label))
                    key = tuple(key)
                    if key in rows:
                        raise BifSyntaxError(
                            row_tok.line, row_tok.col, "a new parent configuration",
                            found=str(tuple(config)),
                        )
                    probs = _read_numbers(p)
                    rows[key] = (probs, row_tok)
                else:
                    raise BifSyntaxError(
                        row_tok.line, row_tok.col, "'table' or '('", found=row_tok.text
                    )
            p.expect("}")
            blocks[child] = (tuple(parents), rows, child_tok)
        else:
            raise BifSyntaxError(
                tok.line, tok.col, "'variable' or 'probability'", found=tok.text
            )

    # assemble and validate
    edges = []
    cpts = {}
    cpt_parents = {}
    for node in name_order:
        if node not in blocks:
            raise MissingCptRow(node)
        parents, rows, tok = blocks[node]
        for par in parents:
            edges.append((par, node))
        arity = len(values[node])
        parent_arities = [len(values[par]) for par in parents]
        n_rows = int(np.prod(parent_arities)) if parents else 1
        table = np.full((n_rows, arity), np.nan)  # BayesNet rejects NaN rows
        for key, (probs, row_tok) in rows.items():
            if len(probs) != arity:
                raise BifSyntaxError(
                    row_tok.line, row_tok.col, f"{arity} probabilities",
                    found=f"{len(probs)}",
                )
            flat = 0
            for code, a in zip(key, parent_arities):
                flat = flat * a + code
            table[flat] = probs
        cpts[node] = table
        cpt_parents[node] = parents

    dag = Dag(name_order, edges)
    return BayesNet(dag, values, cpts, cpt_parents)


def _read_numbers(p):
    probs = [float(p.expect_kind("number", "a probability").text)]
    while p.peek().text == ",":
        p.next()
        probs.append(float(p.expect_kind("number", "a probability").text))
    p.expect(";")
    return probs


def emit_bif(net, name="network"):
    """Canonical BIF text; parse(emit(net)) reproduces the net exactly.

    Raises ``BifError`` for a node name that is not a BIF name token, or a
    label that is not a name or number token, since neither would read back.
    """
    from itertools import product

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
        table = net.cpts[v]
        if not parents:
            lines.append(f"probability ( {v} ) {{")
            lines.append("  table " + ", ".join(repr(float(x)) for x in table[0]) + ";")
            lines.append("}")
            continue
        header = ", ".join(parents)
        lines.append(f"probability ( {v} | {header} ) {{")
        for flat, config in enumerate(
            product(*(range(net.arity(par)) for par in parents))
        ):
            labels = ", ".join(
                net.categories[par][c] for par, c in zip(parents, config)
            )
            row = ", ".join(repr(float(x)) for x in table[flat])
            lines.append(f"  ( {labels} ) {row};")
        lines.append("}")
    return "\n".join(lines) + "\n"
