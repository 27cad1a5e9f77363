import itertools
import json

import numpy as np
import pytest

from causaluplift.errors import (
    CycleDetected,
    DuplicateEdge,
    OverlappingSets,
    UnknownNode,
)
from causaluplift.datagen import group1_network
from causaluplift.graph import (
    Dag,
    MutilationSpec,
    build_dag,
    d_separated,
    verify_uplift_conditions,
)
from conftest import (
    d_separated_oracle,
    enumerate_all_dags,
    random_dag,
    random_setting_dag,
)


class TestBuildDag:
    def test_single_node(self):
        g = build_dag(["A"], [])
        assert g.nodes == ("A",)
        assert g.edges == ()

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected) as exc:
            build_dag(["A", "B"], [("A", "B"), ("B", "A")])
        assert "A" in exc.value.path and "B" in exc.value.path

    def test_longer_cycle_names_offenders(self):
        with pytest.raises(CycleDetected) as exc:
            build_dag(list("ABCD"), [("A", "B"), ("B", "C"), ("C", "A")])
        assert set(exc.value.path) >= {"A", "B", "C"}

    def test_cycle_path_follows_edges(self):
        edges = [("D", "X"), ("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")]
        with pytest.raises(CycleDetected) as exc:
            build_dag(list("XABCD"), edges)
        path = exc.value.path
        assert path[0] == path[-1] and set(path) == {"A", "B", "C"}
        assert all(e in edges for e in zip(path, path[1:]))
        assert str(exc.value) == "directed cycle: " + " -> ".join(path)

    def test_long_chain_builds_in_order(self):
        nodes = [f"N{i}" for i in range(3000)]
        g = build_dag(nodes, list(zip(nodes, nodes[1:])))
        assert g.topological_order() == nodes
        assert g.descendants("N0") == set(nodes[1:])
        assert g.ancestors("N2999") == set(nodes[:-1])

    def test_long_cycle_names_every_node(self):
        nodes = [f"N{i}" for i in range(3000)]
        with pytest.raises(CycleDetected) as exc:
            build_dag(nodes, list(zip(nodes, nodes[1:] + nodes[:1])))
        path = exc.value.path
        assert len(path) == 3001 and path[0] == path[-1]
        assert set(path) == set(nodes)

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            build_dag(["A"], [("A", "B")])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_dag(["A", "B"], [("A", "B"), ("A", "B")])

    def test_self_loop(self):
        with pytest.raises(DuplicateEdge):
            build_dag(["A"], [("A", "A")])

    def test_group1_topology_is_valid(self):
        g = group1_network().dag
        assert g.parents("Y") == {"T", "X8", "X9"}
        assert g.parents("T") != set()


class TestQueries:
    def test_parents_chain(self):
        g = build_dag(list("ABC"), [("A", "B"), ("B", "C")])
        assert g.parents("C") == {"B"}

    def test_parents_collider(self):
        g = build_dag(list("ABC"), [("A", "C"), ("B", "C")])
        assert g.parents("C") == {"A", "B"}

    def test_parents_unknown(self):
        g = build_dag(["A"], [])
        with pytest.raises(UnknownNode):
            g.parents("Z")

    def test_fixture_outcome_parents(self, pretreatment_dag):
        assert pretreatment_dag.parents("Y") >= {"T", "P8", "P9"}

    def test_descendants_chain(self):
        g = build_dag(list("ABC"), [("A", "B"), ("B", "C")])
        assert g.descendants("A") == {"B", "C"}

    def test_descendants_isolated(self):
        g = build_dag(list("AB"), [])
        assert g.descendants("A") == set()

    def test_topological_order_is_a_copy(self):
        g = build_dag(list("ABC"), [("C", "A")])
        g.topological_order().clear()
        assert g.topological_order() == ["B", "C", "A"]

    def test_descendants_match_dfs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_dag(rng, 8, 0.35)
            for v in g.nodes:
                reach = set()
                stack = [v]
                while stack:
                    for c in g.children(stack.pop()):
                        if c not in reach:
                            reach.add(c)
                            stack.append(c)
                assert g.descendants(v) == reach

    def test_parents_descendants_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_dag(rng, 7, 0.3)
            for w in g.nodes:
                for v in g.parents(w):
                    assert w in g.descendants(v)


@pytest.fixture
def pretreatment_dag():
    import importlib.resources as resources

    text = (
        resources.files("causaluplift")
        .joinpath("fixtures/pretreatment_example.json")
        .read_text()
    )
    return Dag.from_json(text)


class TestMutilate:
    def test_remove_incoming(self):
        g = build_dag(["A", "B"], [("A", "B")])
        cut = g.mutilate(MutilationSpec(remove_incoming={"B"}))
        assert cut.edges == ()

    def test_remove_outgoing(self):
        g = build_dag(list("ABC"), [("A", "B"), ("B", "C")])
        cut = g.mutilate(MutilationSpec(remove_outgoing={"B"}))
        assert cut.edges == (("A", "B"),)

    def test_group1_do_treatment(self):
        g = group1_network().dag
        cut = g.mutilate(MutilationSpec(remove_incoming={"T"}))
        assert cut.parents("T") == set()
        assert cut.parents("Y") == g.parents("Y")

    def test_input_unchanged(self):
        g = build_dag(["A", "B"], [("A", "B")])
        g.mutilate(MutilationSpec(remove_incoming={"B"}))
        assert g.edges == (("A", "B"),)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_dag(rng, 6, 0.4)
            spec = MutilationSpec(
                remove_incoming=frozenset(g.nodes[:2]),
                remove_outgoing=frozenset(g.nodes[4:5]),
            )
            once = g.mutilate(spec)
            assert once.mutilate(spec) == once

    def test_unknown_node(self):
        g = build_dag(["A"], [])
        with pytest.raises(UnknownNode):
            g.mutilate(MutilationSpec(remove_incoming={"Z"}))


class TestDSeparation:
    def test_chain(self):
        g = build_dag(list("ABC"), [("A", "B"), ("B", "C")])
        assert d_separated(g, {"A"}, {"C"}, {"B"})
        assert not d_separated(g, {"A"}, {"C"}, set())

    def test_collider(self):
        g = build_dag(list("ABC"), [("A", "B"), ("C", "B")])
        assert d_separated(g, {"A"}, {"C"}, set())
        assert not d_separated(g, {"A"}, {"C"}, {"B"})

    def test_collider_descendant_opens(self):
        g = build_dag(list("ABCD"), [("A", "B"), ("C", "B"), ("B", "D")])
        assert not d_separated(g, {"A"}, {"C"}, {"D"})

    def test_overlapping_sets_rejected(self):
        g = build_dag(list("AB"), [("A", "B")])
        with pytest.raises(OverlappingSets):
            d_separated(g, {"A"}, {"A"}, set())
        with pytest.raises(OverlappingSets):
            d_separated(g, {"A"}, {"B"}, {"A"})

    def test_unknown_node(self):
        g = build_dag(["A", "B"], [])
        with pytest.raises(UnknownNode):
            d_separated(g, {"A"}, {"Z"}, set())

    def test_exhaustive_small_graphs(self):
        # every DAG on <= 4 nodes, every singleton pair, every z subset;
        # the 5-node sweep runs in the acceptance suite
        for n in (2, 3, 4):
            for g in enumerate_all_dags(n):
                desc = {v: g.descendants(v) for v in g.nodes}
                cache = {}
                for a, b in itertools.combinations(g.nodes, 2):
                    rest = [v for v in g.nodes if v not in (a, b)]
                    for r in range(len(rest) + 1):
                        for z in itertools.combinations(rest, r):
                            want = d_separated_oracle(
                                g, {a}, {b}, set(z), desc, cache
                            )
                            assert d_separated(g, {a}, {b}, set(z)) == want

    def test_random_ten_node_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            g = random_dag(rng, 10, 0.25)
            desc = {v: g.descendants(v) for v in g.nodes}
            cache = {}
            nodes = list(g.nodes)
            for _ in range(8):
                picks = rng.choice(10, size=4, replace=False)
                a, b = nodes[picks[0]], nodes[picks[1]]
                z = {nodes[picks[2]], nodes[picks[3]]} if rng.random() < 0.7 else set()
                want = d_separated_oracle(g, {a}, {b}, z, desc, cache)
                assert d_separated(g, {a}, {b}, z) == want

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            g = random_dag(rng, 7, 0.3)
            nodes = list(g.nodes)
            picks = rng.choice(7, size=3, replace=False)
            x, y, z = {nodes[picks[0]]}, {nodes[picks[1]]}, {nodes[picks[2]]}
            assert d_separated(g, x, y, z) == d_separated(g, y, x, z)

    def test_set_query_decomposes_into_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_dag(rng, 8, 0.3)
            nodes = list(g.nodes)
            x = set(nodes[:2])
            y = set(nodes[3:5])
            z = set(nodes[6:7])
            pairwise = all(
                d_separated(g, {a}, {b}, z) for a in x for b in y
            )
            assert d_separated(g, x, y, z) == pairwise

    def test_empty_sets_are_separated(self):
        g = build_dag(list("AB"), [("A", "B")])
        assert d_separated(g, set(), {"B"}, set())
        assert d_separated(g, {"A"}, set(), set())


class TestVerifyUpliftConditions:
    def test_chain_setting_holds(self):
        g = build_dag(["P", "T", "Y"], [("P", "T"), ("T", "Y")])
        report = verify_uplift_conditions(g, "T", "Y")
        assert report.t_is_parent_of_y
        assert report.y_has_no_descendants
        assert report.all_others_pretreatment
        assert report.rule1_holds and report.rule2_holds
        assert report.parents_excl_t == []
        assert report.violations == []

    def test_outcome_with_descendant(self):
        g = build_dag(["T", "Y", "W"], [("T", "Y"), ("Y", "W")])
        report = verify_uplift_conditions(g, "T", "Y")
        assert not report.y_has_no_descendants
        assert any("W" in v for v in report.violations)

    def test_treatment_not_parent(self):
        g = build_dag(["T", "Y", "P"], [("P", "Y"), ("P", "T")])
        report = verify_uplift_conditions(g, "T", "Y")
        assert not report.t_is_parent_of_y

    def test_group1_fixture(self):
        net = group1_network()
        report = verify_uplift_conditions(net.dag, "T", "Y")
        assert report.setting_ok
        assert report.rule1_holds and report.rule2_holds
        assert report.parents_excl_t == ["X8", "X9"]

    def test_pretreatment_fixture(self, pretreatment_dag):
        report = verify_uplift_conditions(pretreatment_dag, "T", "Y")
        assert report.setting_ok
        assert report.rule1_holds and report.rule2_holds
        assert set(report.parents_excl_t) == {"P8", "P9"}

    def test_setting_implies_rules(self):
        # setting-implies-rules spot check; the full 500-graph sweep is in
        # the acceptance suite
        rng = np.random.default_rng(21)
        for _ in range(60):
            g = random_setting_dag(rng)
            report = verify_uplift_conditions(g, "T", "Y")
            assert report.setting_ok
            assert report.rule1_holds and report.rule2_holds


class TestJson:
    def test_round_trip_byte_stable(self):
        g = group1_network().dag
        text = g.to_json()
        again = Dag.from_json(text)
        assert again == g
        assert again.to_json() == text

    def test_json_shape(self):
        g = build_dag(["A", "B"], [("A", "B")])
        payload = json.loads(g.to_json())
        assert payload == {"nodes": ["A", "B"], "edges": [["A", "B"]]}
