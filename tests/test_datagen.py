import dataclasses
import itertools
import math

import numpy as np
import pytest

from causaluplift.datagen import (
    BayesNet,
    GroundTruth,
    SynthConfig,
    generate_group,
    group1_network,
    group2_network,
    response_labels,
    sample,
    true_effect,
    true_effects,
)
from causaluplift.errors import (
    MissingCptRow,
    NonBinary,
    RowSumViolation,
    TNotParent,
)
from causaluplift.graph import Dag
from causaluplift.special import chi_square_sf
from causaluplift.stats import g2_test


def two_node_net(p_y1_given_t):
    dag = Dag(["T", "Y"], [("T", "Y")])
    cpts = {
        "T": np.array([[0.5, 0.5]]),
        "Y": np.array([[1 - p_y1_given_t[0], p_y1_given_t[0]],
                       [1 - p_y1_given_t[1], p_y1_given_t[1]]]),
    }
    return BayesNet(dag, {"T": ("0", "1"), "Y": ("0", "1")}, cpts, {"T": (), "Y": ("T",)})


class TestBayesNetValidation:
    def test_row_sum_checked(self):
        dag = Dag(["A"], [])
        with pytest.raises(RowSumViolation):
            BayesNet(dag, {"A": ("0", "1")}, {"A": np.array([[0.5, 0.4]])}, {"A": ()})

    def test_missing_cpt(self):
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(MissingCptRow):
            BayesNet(
                dag,
                {"A": ("0", "1"), "B": ("0", "1")},
                {"A": np.array([[0.5, 0.5]])},
                {"A": ()},
            )

    def test_nan_row_is_missing_row(self):
        dag = Dag(["A", "B", "C"], [("A", "C"), ("B", "C")])
        table = np.full((6, 2), 0.5)
        table[4] = np.nan
        with pytest.raises(MissingCptRow) as exc:
            BayesNet(
                dag,
                {"A": ("lo", "mid", "hi"), "B": ("no", "yes"), "C": ("0", "1")},
                {"A": np.full((1, 3), 1 / 3), "B": np.array([[0.5, 0.5]]), "C": table},
                {"A": (), "B": (), "C": ("A", "B")},
            )
        assert exc.value.node == "C"
        assert exc.value.config == ("hi", "no")

    def test_wrong_shape_is_missing_rows(self):
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(MissingCptRow):
            BayesNet(
                dag,
                {"A": ("0", "1"), "B": ("0", "1")},
                {"A": np.array([[0.5, 0.5]]), "B": np.array([[0.5, 0.5]])},
                {"A": (), "B": ("A",)},
            )

    def test_parent_order_must_match_graph(self):
        dag = Dag(["A", "B"], [("A", "B")])
        with pytest.raises(ValueError):
            BayesNet(
                dag,
                {"A": ("0", "1"), "B": ("0", "1")},
                {"A": np.array([[0.5, 0.5]]), "B": np.array([[0.5, 0.5]] * 2)},
                {"A": (), "B": ()},
            )

    def test_json_round_trip(self):
        net = group2_network()
        again = BayesNet.from_json(net.to_json())
        assert again == net


class TestSampling:
    def test_deterministic_cpts_give_unique_configuration(self):
        dag = Dag(["A", "B"], [("A", "B")])
        net = BayesNet(
            dag,
            {"A": ("0", "1"), "B": ("0", "1")},
            {"A": np.array([[0.0, 1.0]]), "B": np.array([[1.0, 0.0], [0.0, 1.0]])},
            {"A": (), "B": ("A",)},
        )
        data = sample(net, 50, seed=0)
        assert set(data.values("A").tolist()) == {1}
        assert set(data.values("B").tolist()) == {1}

    def test_root_frequency_concentrates(self):
        dag = Dag(["A"], [])
        net = BayesNet(dag, {"A": ("0", "1")}, {"A": np.array([[0.7, 0.3]])}, {"A": ()})
        data = sample(net, 10000, seed=1)
        assert data.values("A").mean() == pytest.approx(0.3, abs=0.015)

    def test_two_node_joint_matches_product(self):
        net = two_node_net((0.3, 0.8))
        data = sample(net, 8000, seed=2)
        t, y = data.values("T"), data.values("Y")
        counts = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                counts[i, j] = ((t == i) & (y == j)).sum()
        expected = np.array(
            [[0.5 * 0.7, 0.5 * 0.3], [0.5 * 0.2, 0.5 * 0.8]]
        ) * 8000
        stat = 2 * (counts[counts > 0] * np.log(counts[counts > 0] / expected[counts > 0])).sum()
        assert chi_square_sf(stat, 3) > 0.01

    def test_markov_factorization_on_fixture(self, clinic20):
        data = sample(clinic20, 20000, seed=3)
        for node in clinic20.dag.nodes:
            parents = clinic20.cpt_parents[node]
            codes = data.values(node)
            idx = np.zeros(20000, dtype=np.int64)
            for p in parents:
                idx = idx * clinic20.arity(p) + data.values(p)
            stat, dof = 0.0, 0
            for row in range(clinic20.cpts[node].shape[0]):
                mask = idx == row
                n_row = int(mask.sum())
                if n_row == 0:
                    continue
                expected = clinic20.cpts[node][row] * n_row
                observed = np.bincount(codes[mask], minlength=clinic20.arity(node))
                keep = observed > 0
                stat += 2 * (observed[keep] * np.log(observed[keep] / expected[keep])).sum()
                dof += clinic20.arity(node) - 1
            assert chi_square_sf(float(stat), dof) > 0.01, node

    def test_seed_determinism(self, clinic20):
        a = sample(clinic20, 200, seed=9)
        b = sample(clinic20, 200, seed=9)
        for col in a.columns:
            assert np.array_equal(a.values(col), b.values(col))


@pytest.fixture(scope="module")
def clinic20():
    import importlib.resources as resources

    from causaluplift.bif import parse_bif

    text = resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
    return parse_bif(text)


class TestTrueEffect:
    def test_equal_rows_give_zero(self):
        net = two_node_net((0.4, 0.4))
        assert true_effect(net, "T", "Y", {}) == 0.0

    def test_hand_built_gap(self):
        net = two_node_net((0.2, 0.9))
        assert true_effect(net, "T", "Y", {}) == pytest.approx(0.7, abs=1e-15)

    def test_requires_parenthood(self):
        dag = Dag(["T", "Y"], [])
        net = BayesNet(
            dag,
            {"T": ("0", "1"), "Y": ("0", "1")},
            {"T": np.array([[0.5, 0.5]]), "Y": np.array([[0.5, 0.5]])},
            {"T": (), "Y": ()},
        )
        with pytest.raises(TNotParent):
            true_effect(net, "T", "Y", {})

    def test_binary_outcome_required(self):
        dag = Dag(["T", "Y"], [("T", "Y")])
        net = BayesNet(
            dag,
            {"T": ("0", "1"), "Y": ("a", "b", "c")},
            {"T": np.array([[0.5, 0.5]]), "Y": np.array([[0.2, 0.3, 0.5]] * 2)},
            {"T": (), "Y": ("T",)},
        )
        with pytest.raises(NonBinary):
            true_effect(net, "T", "Y", {})

    def test_hidden_parent_matches_enumeration_oracle(self):
        # H -> Y hidden, H -> X observed proxy, T -> Y
        dag = Dag(["H", "X", "T", "Y"], [("H", "X"), ("H", "Y"), ("T", "Y")])
        p_h = 0.6

        def y_row(t, h):
            p = 0.2 + 0.25 * t + 0.3 * h
            return [1 - p, p]

        net = BayesNet(
            dag,
            {v: ("0", "1") for v in dag.nodes},
            {
                "H": np.array([[1 - p_h, p_h]]),
                "X": np.array([[0.8, 0.2], [0.25, 0.75]]),
                "T": np.array([[0.5, 0.5]]),
                "Y": np.array([y_row(t, h) for t, h in itertools.product(range(2), range(2))]),
            },
            {"H": (), "X": ("H",), "T": (), "Y": ("T", "H")},
            hidden=("H",),
        )
        for x in (0, 1):
            got = true_effect(net, "T", "Y", {"X": x})
            # brute force: P(h | x) by full enumeration of the joint
            num = {h: net.cpts["H"][0][h] * net.cpts["X"][h][x] for h in (0, 1)}
            z = num[0] + num[1]
            want = sum(
                num[h] / z * (net.cpts["Y"][net.flat_index("Y", {"T": 1, "H": h})][1]
                              - net.cpts["Y"][net.flat_index("Y", {"T": 0, "H": h})][1])
                for h in (0, 1)
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_vectorized_agrees_with_scalar(self):
        net = group2_network()
        data, truth, _ = generate_group(SynthConfig(group="group2", seed=5, n_samples=40))
        observed = [v for v in net.dag.nodes if v not in ("T", "Y") and v not in net.hidden]
        for i in range(0, 40, 7):
            row = {v: int(data.values(v)[i]) for v in observed}
            assert truth.effect[i] == pytest.approx(true_effect(net, "T", "Y", row), abs=1e-12)
        batch = true_effects(net, "T", "Y", data)
        assert np.allclose(batch, truth.effect, atol=1e-12)


class TestResponses:
    def test_table_mapping(self):
        y0 = np.array([0, 0, 1, 1])
        y1 = np.array([0, 1, 0, 1])
        assert response_labels(y0, y1).tolist() == [
            "nonresponse0",
            "positive",
            "negative",
            "nonresponse1",
        ]


def test_flat_index_of_narrow_codes_not_wrapped():
    # nine binary parents give 512 CPT rows; uint8 codes times 2 would stay
    # uint8 under NEP 50 and wrap past row 255
    parents = [f"P{i}" for i in range(9)]
    net = BayesNet(
        Dag(parents + ["C"], [(p, "C") for p in parents]),
        {v: ("0", "1") for v in parents + ["C"]},
        {**{p: [[0.5, 0.5]] for p in parents}, "C": np.full((512, 2), 0.5)},
        {"C": parents},
    )
    rows = np.arange(512)
    wide = {p: (rows >> (8 - i)) & 1 for i, p in enumerate(parents)}
    narrow = {p: c.astype(np.uint8) for p, c in wide.items()}
    assert np.array_equal(net.flat_index("C", wide), rows)
    assert np.array_equal(net.flat_index("C", narrow), rows)


class TestGenerateGroup:
    def test_group1_column_count_and_roles(self):
        data, truth, net = generate_group(SynthConfig(group="group1", seed=0, n_samples=500))
        assert len(data.columns) == 102
        assert data.columns[:2] == ["T", "Y"]
        assert data.role_of("treatment") == ["T"]
        assert data.role_of("outcome") == ["Y"]
        assert len(data.role_of("noise")) == 90
        assert len(truth) == 500

    def test_group2_hides_latents(self):
        data, truth, net = generate_group(SynthConfig(group="group2", seed=0, n_samples=300))
        assert len(data.columns) == 102
        for hidden in ("U1", "U2", "U3"):
            assert hidden not in data
            assert hidden in net.dag.nodes

    def test_responses_consistent_with_potentials(self):
        data, truth, net = generate_group(SynthConfig(group="group1", seed=1, n_samples=2000))
        assert np.array_equal(
            truth.response, response_labels(truth.potential_y0, truth.potential_y1)
        )
        assert set(np.unique(truth.response)) == {
            "positive",
            "negative",
            "nonresponse0",
            "nonresponse1",
        }

    def test_factual_outcome_matches_potentials(self):
        data, truth, net = generate_group(SynthConfig(group="group1", seed=2, n_samples=1500))
        t = data.values("T")
        y = data.values("Y")
        want = np.where(t == 1, truth.potential_y1, truth.potential_y0)
        assert np.array_equal(y, want)

    def test_determinism(self):
        a_data, a_truth, _ = generate_group(SynthConfig(group="group2", seed=3, n_samples=400))
        b_data, b_truth, _ = generate_group(SynthConfig(group="group2", seed=3, n_samples=400))
        for col in a_data.columns:
            assert np.array_equal(a_data.values(col), b_data.values(col))
        assert np.array_equal(a_truth.effect, b_truth.effect)

    def test_mean_effect_matches_do_simulation(self):
        cfg = SynthConfig(group="group1", seed=4, n_samples=20000)
        data, truth, net = generate_group(cfg)
        rng = np.random.default_rng(99)
        n = 1_000_000
        codes = {}
        for v in net.dag.topological_order():
            if v in ("T", "Y"):
                continue
            idx = net.flat_index(v, codes) if net.cpt_parents[v] else 0
            cdf = np.cumsum(net.cpts[v], axis=1)
            rows = cdf[idx] if net.cpt_parents[v] else np.broadcast_to(cdf[0], (n, 2))
            codes[v] = (rows[:, :-1] <= rng.random(n)[:, None]).sum(axis=1)
        u = rng.random(n)
        codes["T"] = 1
        p1 = net.cpts["Y"][net.flat_index("Y", codes), 1]
        codes["T"] = 0
        p0 = net.cpts["Y"][net.flat_index("Y", codes), 1]
        ate_sim = float(((u < p1).astype(int) - (u < p0).astype(int)).mean())
        assert truth.effect.mean() == pytest.approx(ate_sim, abs=0.01)

    def test_effect_signs_match_do_simulation_per_cell(self):
        data, truth, net = generate_group(SynthConfig(group="group1", seed=5, n_samples=4000))
        x8, x9 = data.values("X8"), data.values("X9")
        rng = np.random.default_rng(7)
        for a in (0, 1):
            for b in (0, 1):
                mask = (x8 == a) & (x9 == b)
                eff = truth.effect[mask][0]
                if abs(eff) < 0.05:
                    continue
                u = rng.random(100_000)
                p1 = net.cpts["Y"][net.flat_index("Y", {"T": 1, "X8": a, "X9": b}), 1]
                p0 = net.cpts["Y"][net.flat_index("Y", {"T": 0, "X8": a, "X9": b}), 1]
                sim = ((u < p1).astype(int) - (u < p0).astype(int)).mean()
                assert math.copysign(1, sim) == math.copysign(1, eff)

    def test_noise_columns_pass_independence(self):
        from causaluplift.stats import discretize_dataset

        data, truth, net = generate_group(SynthConfig(group="group1", seed=6, n_samples=4000))
        disc = discretize_dataset(data, 3)
        dependent = 0
        for name in data.role_of("noise"):
            for target in ("T", "Y"):
                res = g2_test(disc, name, target, alpha=0.01)
                dependent += 0 if res.independent else 1
        assert dependent <= math.ceil(2 * 0.01 * 180)

    def test_continuous_fraction(self):
        data, _, _ = generate_group(
            SynthConfig(group="group1", seed=7, n_samples=50, continuous_fraction=0.3, n_noise_vars=10)
        )
        kinds = [data.spec(n).kind for n in data.role_of("noise")]
        assert kinds.count("continuous") == 3
        assert kinds.count("binary") == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(group="group3", seed=0)
        with pytest.raises(ValueError):
            SynthConfig(group="group1", seed=0, n_samples=0)
        with pytest.raises(ValueError):
            SynthConfig(group="group1", seed=0, continuous_fraction=1.5)


class TestGroundTruthCsv:
    def test_round_trip(self, tmp_path):
        _, truth, _ = generate_group(SynthConfig(group="group1", seed=8, n_samples=60))
        path = tmp_path / "gt.csv"
        truth.write_csv(path, meta="x")
        again = GroundTruth.read_csv(path)
        assert np.array_equal(again.effect, truth.effect)
        assert np.array_equal(again.response, truth.response)
        assert np.array_equal(again.potential_y0, truth.potential_y0)

    def test_every_field_round_trips(self, tmp_path):
        truth = GroundTruth(
            effect=np.array([0.1, -0.0, 1e-300]),
            response=np.array(["positive", "a,\"b\"", "negative"], dtype=object),
            potential_y0=np.array([0, 1, 0], dtype=np.uint8),
            potential_y1=np.array([1, 1, 0], dtype=np.uint8),
        )
        path = tmp_path / "gt.csv"
        truth.write_csv(path, meta="x")
        assert path.read_text().splitlines()[1] == "row,effect,response,potential_y0,potential_y1"
        again = GroundTruth.read_csv(path)
        for field in dataclasses.fields(GroundTruth):
            got, want = getattr(again, field.name), getattr(truth, field.name)
            assert got.tolist() == want.tolist()
            if want.dtype != object:  # keeps the sign of -0.0
                assert got.tobytes() == want.tobytes()


class TestConditionCheckOnFixtures:
    def test_both_groups_satisfy_setting(self):
        from causaluplift.graph import verify_uplift_conditions

        for net in (group1_network(), group2_network()):
            report = verify_uplift_conditions(net.dag, "T", "Y")
            assert report.setting_ok
            assert report.rule1_holds and report.rule2_holds
