import importlib.resources as resources
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift.bif import emit_bif, parse_bif
from causaluplift.errors import (
    BifError,
    BifSyntaxError,
    CausalUpliftError,
    MissingCptRow,
    RowSumViolation,
    UnknownVariable,
)

TWO_NODE = """
network toy {
}
variable Rain {
  type discrete [ 2 ] { yes, no };
}
variable Sprinkler {
  type discrete [ 2 ] { on, off };
}
probability ( Rain ) {
  table 0.2, 0.8;
}
probability ( Sprinkler | Rain ) {
  ( yes ) 0.01, 0.99;
  ( no ) 0.4, 0.6;
}
"""


class TestParse:
    def test_two_node_fixture(self):
        net = parse_bif(TWO_NODE)
        assert net.dag.nodes == ("Rain", "Sprinkler")
        assert net.dag.edges == (("Rain", "Sprinkler"),)
        assert net.categories["Sprinkler"] == ("on", "off")
        assert np.allclose(net.cpts["Rain"], [[0.2, 0.8]])
        assert np.allclose(net.cpts["Sprinkler"], [[0.01, 0.99], [0.4, 0.6]])

    def test_numeric_labels(self):
        text = """
        variable A { type discrete [ 2 ] { 0, 1 }; }
        probability ( A ) { table 0.5, 0.5; }
        """
        net = parse_bif(text)
        assert net.categories["A"] == ("0", "1")

    def test_comments_skipped(self):
        text = TWO_NODE.replace(
            "probability ( Rain )", "// tail comment\nprobability ( Rain )"
        ).replace("table 0.2", "/* inline */ table 0.2")
        assert parse_bif(text) == parse_bif(TWO_NODE)

    def test_row_sum_violation(self):
        bad = TWO_NODE.replace("table 0.2, 0.8;", "table 0.2, 0.7;")
        with pytest.raises(RowSumViolation) as exc:
            parse_bif(bad)
        assert exc.value.node == "Rain"

    def test_unknown_variable_in_probability(self):
        bad = TWO_NODE + "\nprobability ( Ghost ) { table 1.0; }\n"
        with pytest.raises(UnknownVariable) as exc:
            parse_bif(bad)
        assert exc.value.name == "Ghost"
        assert exc.value.line is not None

    def test_unknown_parent(self):
        bad = TWO_NODE.replace("( Sprinkler | Rain )", "( Sprinkler | Ghost )")
        with pytest.raises(UnknownVariable):
            parse_bif(bad)

    def test_missing_row(self):
        bad = TWO_NODE.replace("  ( no ) 0.4, 0.6;\n", "")
        with pytest.raises(MissingCptRow) as exc:
            parse_bif(bad)
        assert exc.value.node == "Sprinkler"
        assert exc.value.config == ("no",)

    def test_missing_block(self):
        bad = TWO_NODE.replace(
            "probability ( Sprinkler | Rain ) {\n  ( yes ) 0.01, 0.99;\n  ( no ) 0.4, 0.6;\n}\n",
            "",
        )
        with pytest.raises(MissingCptRow):
            parse_bif(bad)

    def test_duplicate_row(self):
        bad = TWO_NODE.replace("( no ) 0.4, 0.6;", "( yes ) 0.4, 0.6;")
        with pytest.raises(BifSyntaxError):
            parse_bif(bad)

    def test_syntax_error_carries_position(self):
        with pytest.raises(BifSyntaxError) as exc:
            parse_bif("variable A {\n  type discrete [ 2 ] { a b };\n}")
        assert exc.value.line == 2
        assert exc.value.col > 0

    def test_wrong_probability_count(self):
        bad = TWO_NODE.replace("table 0.2, 0.8;", "table 1.0;")
        with pytest.raises(BifSyntaxError):
            parse_bif(bad)

    def test_wrong_label_count(self):
        bad = TWO_NODE.replace("[ 2 ] { yes, no }", "[ 3 ] { yes, no }")
        with pytest.raises(BifSyntaxError):
            parse_bif(bad)

    def test_table_with_parents_rejected(self):
        bad = TWO_NODE.replace(
            "( yes ) 0.01, 0.99;\n  ( no ) 0.4, 0.6;", "table 0.01, 0.99, 0.4, 0.6;"
        )
        with pytest.raises(BifSyntaxError):
            parse_bif(bad)

    def test_non_discrete_rejected(self):
        with pytest.raises(BifSyntaxError):
            parse_bif("variable A { type continuous; }")

    def test_property_lines_skipped(self):
        text = TWO_NODE.replace(
            "network toy {\n}",
            "network toy {\n  property version 1 ;\n}",
        )
        assert parse_bif(text) == parse_bif(TWO_NODE)

    @pytest.mark.parametrize(
        "old, new, line, col, expected, found",
        [
            ("[ 2 ] { yes, no }", "[ 2.5 ] { yes, no }", 5, 19, "an integer variable arity", "2.5"),
            # Rain is parentless and Sprinkler's parent: a repeat fails at the label
            ("[ 2 ] { yes, no }", "[ 3 ] { yes, no, yes }", 5, 34, "a new category label", "yes"),
            ("[ 2 ] { on, off }", "[ 3 ] { on, off, on }", 8, 34, "a new category label", "on"),
            ("0.8;", "0.8;\n  table 0.3, 0.7;", 12, 3, "a new parent configuration", "()"),
            ("| Rain )", "| Rain, Rain )", 13, 33, "a new parent name", "Rain"),
            ("network toy {", "network toy @ {", 2, 13, "a token", "@"),
            ("0.6;\n}", "0.6;\n  property never closed\n}", 18, 1, "';'", "end of input"),
            ("variable Sprinkler {", "variable Rain {", 7, 10, "a new variable name", "Rain"),
            ("( Sprinkler | Rain )", "( Rain )", 13, 15,
             "a single probability block per variable", "Rain"),
            ("( yes ) 0.01", "( yes, no ) 0.01", 14, 3, "1 parent values", "2 values"),
        ],
        ids=["fractional-arity", "repeated-label", "repeated-child-label", "second-table-row",
             "repeated-parent", "no-token", "unclosed-property", "repeated-variable",
             "second-probability-block", "parent-value-count"],
    )
    def test_refused_at_the_token(self, old, new, line, col, expected, found):
        with pytest.raises(BifSyntaxError) as exc:
            parse_bif(TWO_NODE.replace(old, new, 1))
        assert (exc.value.line, exc.value.col) == (line, col)
        assert (exc.value.expected, exc.value.found) == (expected, found)


class TestEmit:
    def test_round_trip_two_node(self):
        net = parse_bif(TWO_NODE)
        assert parse_bif(emit_bif(net)) == net

    def test_round_trip_bundled_fixture(self):
        import importlib.resources as resources

        text = (
            resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
        )
        net = parse_bif(text)
        again = parse_bif(emit_bif(net, name="clinic20"))
        assert again == net
        assert emit_bif(again, name="clinic20") == emit_bif(net, name="clinic20")

    def test_round_trip_numeric_labels(self):
        text = TWO_NODE.replace("yes, no", "0, 1").replace("( yes )", "( 0 )")
        net = parse_bif(text.replace("( no )", "( 1 )"))
        assert net.categories["Rain"] == ("0", "1")
        assert parse_bif(emit_bif(net)) == net

    @pytest.mark.parametrize(
        "rename, named",
        [
            ({"label": "low risk"}, "'low risk'"),
            ({"label": "1st"}, "'1st'"),
            ({"node": "Rain fall"}, "'Rain fall'"),
        ],
        ids=["spaced-label", "digit-led-label", "spaced-node"],
    )
    def test_name_or_label_outside_tokens_refused(self, rename, named):
        from causaluplift.datagen import BayesNet
        from causaluplift.graph import Dag

        net = parse_bif(TWO_NODE)
        rain = rename.get("node", "Rain")
        categories = {
            rain: (rename.get("label", "yes"), "no"),
            "Sprinkler": net.categories["Sprinkler"],
        }
        bad = BayesNet(
            Dag([rain, "Sprinkler"], [(rain, "Sprinkler")]),
            categories,
            {rain: net.cpts["Rain"], "Sprinkler": net.cpts["Sprinkler"]},
            {"Sprinkler": [rain]},
        )
        with pytest.raises(BifError) as info:
            emit_bif(bad)
        assert repr(rain) in str(info.value) and named in str(info.value)

    def test_emitted_fixture_is_current(self):
        # the bundled file must match what the emitter produces for it
        import importlib.resources as resources

        text = (
            resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
        )
        assert emit_bif(parse_bif(text), name="clinic20") == text


class TestRandomRoundTrips:
    def random_net(self, rng, n_nodes=8):
        from causaluplift.datagen import BayesNet
        from causaluplift.graph import Dag

        names = [f"V{i}" for i in range(n_nodes)]
        arities = {v: int(rng.integers(2, 4)) for v in names}
        edges = []
        parents = {v: [] for v in names}
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.3 and len(parents[names[j]]) < 3:
                    edges.append((names[i], names[j]))
                    parents[names[j]].append(names[i])
        categories = {
            v: tuple(f"s{k}" for k in range(arities[v])) for v in names
        }
        cpts = {}
        for v in names:
            rows = 1
            for p in parents[v]:
                rows *= arities[p]
            raw = rng.random((rows, arities[v])) + 0.05
            cpts[v] = raw / raw.sum(axis=1, keepdims=True)
        return BayesNet(Dag(names, edges), categories, cpts, parents)

    def test_emit_parse_identity_on_random_nets(self):
        rng = np.random.default_rng(2468)
        for _ in range(15):
            net = self.random_net(rng)
            text = emit_bif(net)
            again = parse_bif(text)
            assert again == net
            assert emit_bif(again) == text


CLINIC20 = resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
# whitespace-separated words and punctuation; the fixture has no comments
CLINIC20_TOKENS = re.findall(r"[{}()\[\]|,;]|[^\s{}()\[\]|,;]+", CLINIC20)
REPLACEMENTS = sorted(set(CLINIC20_TOKENS)) + ["2.5", "1e999", "property", "Ghost", "-"]


class TestMutatedFixture:
    def test_unmutated_tokens_parse_as_the_fixture(self):
        assert parse_bif(" ".join(CLINIC20_TOKENS)) == parse_bif(CLINIC20)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, len(CLINIC20_TOKENS) - 1),
        st.sampled_from(["delete", "duplicate", "replace"]),
        st.sampled_from(REPLACEMENTS),
    )
    def test_one_token_mutation_parses_or_is_refused_by_name(self, i, op, other):
        tokens = list(CLINIC20_TOKENS)
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = other
        try:
            parse_bif(" ".join(tokens))
        except CausalUpliftError:
            pass  # never an IndexError, KeyError or bare ValueError
