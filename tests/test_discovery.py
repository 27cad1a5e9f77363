import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causaluplift import discovery
from causaluplift.data import ColumnSpec, Dataset
from causaluplift.datagen import sample
from causaluplift.discovery import (
    DiscoveryConfig,
    ParentSet,
    discover_parents,
    mmpc,
    symmetric_correction,
)
from causaluplift.errors import UnknownColumn
from causaluplift.evaluation import prf
from causaluplift.graph import d_separated
from causaluplift.stats import CITestResult, g2_test
from conftest import enumerate_all_dags, random_dag, random_setting_dag


def binary_dataset(**cols):
    specs = [ColumnSpec(name, "binary") for name in cols]
    return Dataset(specs, {k: np.asarray(v) for k, v in cols.items()})


def v_structure_data(seed, n=5000, extra_noise=2):
    """A -> Y <- B with independent A, B and strong exact CPTs."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n)
    b = rng.integers(0, 2, n)
    y = (rng.random(n) < 0.1 + 0.35 * a + 0.35 * b).astype(int)
    cols = {"A": a, "B": b, "Y": y}
    for i in range(extra_noise):
        cols[f"R{i}"] = rng.integers(0, 2, n)
    return binary_dataset(**cols)


class TestConfig:
    def test_defaults(self):
        cfg = DiscoveryConfig()
        assert cfg.alpha == 0.01
        assert cfg.max_cond_size == 3
        assert cfg.symmetric

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(alpha=0.0)
        with pytest.raises(ValueError):
            DiscoveryConfig(max_cond_size=-1)


class TestMmpc:
    def test_v_structure(self):
        found = mmpc(v_structure_data(seed=2), "Y")
        assert set(found.members) == {"A", "B"}

    def test_unknown_target(self):
        with pytest.raises(UnknownColumn):
            mmpc(v_structure_data(seed=2), "nope")

    def test_noise_only_target(self):
        rng = np.random.default_rng(41)
        cols = {f"R{i}": rng.integers(0, 2, 2000) for i in range(10)}
        cols["Y"] = rng.integers(0, 2, 2000)
        found = mmpc(binary_dataset(**cols), "Y")
        assert found.members == []

    def test_noise_false_positive_rate(self):
        # 20 seeds x 10 candidate columns; final false-inclusion rate must
        # stay in the alpha ballpark
        false_positives = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            cols = {f"R{i}": rng.integers(0, 2, 2000) for i in range(10)}
            cols["Y"] = rng.integers(0, 2, 2000)
            found = discover_parents(binary_dataset(**cols), "Y")
            false_positives += len(found.members)
        assert false_positives <= 5  # 2.5% of 200 candidate slots

    def test_deterministic_trace(self):
        data = v_structure_data(seed=3, n=1500)
        a = mmpc(data, "Y")
        b = mmpc(data, "Y")
        assert a.members == b.members
        assert [r.to_dict() for r in a.trace] == [r.to_dict() for r in b.trace]

    def test_column_permutation_same_member_set(self):
        data = v_structure_data(seed=4, n=2000)
        shuffled = data.select(["R1", "B", "Y", "R0", "A"])
        assert set(mmpc(data, "Y").members) == set(mmpc(shuffled, "Y").members)

    def test_backward_removals_justified_by_trace(self):
        data = v_structure_data(seed=5, n=1200, extra_noise=4)
        found = mmpc(data, "Y")
        backward = [r for r in found.trace if r.phase == "backward"]
        tested = {r.x for r in backward}
        for x in tested:
            runs = [r for r in backward if r.x == x]
            was_removed = x not in found.members
            saw_independence = any(
                r.p_value > 0.01 or not r.reliable for r in runs
            )
            assert was_removed == saw_independence

    def test_tie_goes_to_the_column_declared_first(self):
        # two identical copies of Y's parent tie in every test; the one
        # declared first enters, and the other is then independent given it
        rng = np.random.default_rng(12)
        a = rng.integers(0, 2, 2000)
        y = (rng.random(2000) < 0.2 + 0.6 * a).astype(int)
        noise = rng.integers(0, 2, 2000)
        assert mmpc(binary_dataset(A=a, B=a.copy(), R=noise, Y=y), "Y").members == ["A"]
        assert mmpc(binary_dataset(B=a.copy(), A=a, R=noise, Y=y), "Y").members == ["B"]

    def test_max_cond_size_zero(self):
        data = v_structure_data(seed=7, n=2000)
        found = mmpc(data, "Y", DiscoveryConfig(max_cond_size=0))
        given = {r.given for r in found.trace}
        assert given == {()}

    def test_monotone_soundness_with_sample_size(self, clinic20):
        small_f1, large_f1 = [], []
        truth = clinic20.dag.parents("Referral")
        for seed in range(10):
            for n, bucket in ((400, small_f1), (2000, large_f1)):
                data = sample(clinic20, n, seed)
                found = discover_parents(data, "Referral")
                bucket.append(prf(found.members, truth).f1)
        assert np.mean(large_f1) >= np.mean(small_f1)


@pytest.fixture(scope="module")
def clinic20():
    import importlib.resources as resources

    from causaluplift.bif import parse_bif

    text = resources.files("causaluplift").joinpath("fixtures/clinic20.bif").read_text()
    return parse_bif(text)


def near_duplicate_data(seed, n=280):
    """X is driven hard by three 4-ary columns and Y is a noisy copy of X.

    mmpc(Y) accepts X, but the reverse search from X conditions on X's own
    dense neighborhood, where the test on Y becomes unreliable (counted as
    independence) -- the asymmetry the correction is there to catch.
    """
    rng = np.random.default_rng(seed)
    c1, c2, c3 = (rng.integers(0, 4, n) for _ in range(3))
    x = (rng.random(n) < 0.03 + 0.94 * ((c1 + c2 + c3) >= 5)).astype(int)
    y = np.where(rng.random(n) < 0.35, 1 - x, x)
    quaternary = ("0", "1", "2", "3")
    specs = [
        ColumnSpec("C1", "categorical", categories=quaternary),
        ColumnSpec("C2", "categorical", categories=quaternary),
        ColumnSpec("C3", "categorical", categories=quaternary),
        ColumnSpec("X", "binary"),
        ColumnSpec("Y", "binary"),
    ]
    return Dataset(specs, {"C1": c1, "C2": c2, "C3": c3, "X": x, "Y": y})


class TestSymmetricCorrection:
    def test_v_structure_unchanged(self):
        data = v_structure_data(seed=8)
        candidate = mmpc(data, "Y")
        corrected = symmetric_correction(data, "Y", candidate)
        assert corrected.members == candidate.members

    def test_empty_candidate(self):
        data = v_structure_data(seed=9, n=500)
        empty = ParentSet(target="Y", members=[])
        assert symmetric_correction(data, "Y", empty).members == []

    def test_near_duplicate_removed(self):
        data = near_duplicate_data(seed=0)
        candidate = mmpc(data, "Y")
        assert candidate.members == ["X"]
        reverse = mmpc(data, "X")
        assert "Y" not in reverse.members
        corrected = symmetric_correction(data, "Y", candidate)
        assert corrected.members == []
        removals = [r for r in corrected.trace if r.phase == "symmetry-removed"]
        assert [r.x for r in removals] == ["X"]

    def test_discover_parents_applies_symmetry(self):
        data = near_duplicate_data(seed=1)
        assert discover_parents(data, "Y").members == []
        assert discover_parents(
            data, "Y", DiscoveryConfig(symmetric=False)
        ).members == ["X"]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 600),
    levels=st.lists(st.integers(2, 4), min_size=2, max_size=6),
    alpha=st.sampled_from([0.01, 0.05, 0.3]),
    max_cond_size=st.integers(0, 3),
)
def test_backward_records_match_a_fresh_test(seed, n, levels, alpha, max_cond_size):
    # a backward record read from the forward phase is the test run afresh
    rng = np.random.default_rng(seed)
    cols = {f"X{i}": rng.integers(0, k, n) for i, k in enumerate(levels)}
    drive = sum(rng.uniform(0.0, 0.5) * (v == 0) for v in cols.values())
    cols["Y"] = (rng.random(n) < 0.1 + drive / len(levels) * 1.6).astype(int)
    specs = [
        ColumnSpec(name, "binary") if k == 2
        else ColumnSpec(name, "categorical", categories=tuple(str(i) for i in range(k)))
        for name, k in zip(cols, [*levels, 2])
    ]
    data = Dataset(specs, cols)
    cfg = DiscoveryConfig(alpha=alpha, max_cond_size=max_cond_size)
    for r in mmpc(data, "Y", cfg).trace:
        if r.phase == "backward":
            res = g2_test(data, r.x, "Y", r.given, alpha)
            assert (r.p_value, r.statistic, r.reliable) == (res.p_value, res.statistic, res.reliable)


class TestOneTestPerBatchedRecord:
    """Each test a search runs is evaluated once, by ``discovery.g2_batch``
    (a forward round's candidates against one subset) or ``discovery.g2_test``
    (a backward test the forward phase did not run). Each record repeats an
    evaluation made in its own search, and each candidate's evaluations come
    in the order of its records."""

    @staticmethod
    def spy(monkeypatch):
        evaluated, batches = [], []
        real_batch, real_test = discovery.g2_batch, discovery.g2_test

        def key(x, y, z, res):
            return (x, y, tuple(z), res.p_value, res.statistic, res.reliable)

        def batch(data, xs, y, z, alpha):
            results = real_batch(data, xs, y, z, alpha)
            assert len(results) == len(xs)
            batches.append(len(xs))
            evaluated.extend(key(x, y, z, res) for x, res in zip(xs, results))
            return results

        def test(data, x, y, z, alpha):
            res = real_test(data, x, y, z, alpha)
            evaluated.append(key(x, y, z, res))
            return res

        monkeypatch.setattr(discovery, "g2_batch", batch)
        monkeypatch.setattr(discovery, "g2_test", test)
        return evaluated, batches

    @staticmethod
    def keys(records):
        return [(r.x, r.y, r.given, r.p_value, r.statistic, r.reliable) for r in records]

    @staticmethod
    def by_pair(keys):
        """Each (candidate, target) pair's tests, in order."""
        out = {}
        for k in keys:
            out.setdefault(k[:2], []).append(k)
        return out

    def check(self, evaluated, records):
        """``evaluated`` and ``records`` come from one search. Returns the
        backward records whose test the forward phase ran."""
        keys = self.keys(records)
        forward = {k[:3]: k for k, r in zip(keys, records) if r.phase == "forward"}
        twin = [r.phase == "backward" and k[:3] in forward for k, r in zip(keys, records)]
        # no (x, y, given) is evaluated twice
        assert len({k[:3] for k in evaluated}) == len(evaluated)
        # every record equals an evaluation made in this search
        assert set(keys) <= set(evaluated)
        # a backward record with a forward twin repeats its result
        twins = [k for k, t in zip(keys, twin) if t]
        assert all(forward[k[:3]] == k for k in twins)
        # every other record is evaluated: the evaluations are exactly the
        # forward records and the backward records with no forward twin
        fresh = [k for k, t in zip(keys, twin) if not t]
        assert self.by_pair(evaluated) == self.by_pair(fresh)
        return twins

    def test_mmpc(self, monkeypatch):
        evaluated, batches = self.spy(monkeypatch)
        found = mmpc(v_structure_data(seed=3, n=3000, extra_noise=3), "Y")
        assert len(found.trace) > 6
        assert max(batches) > 1  # candidates were tested together
        assert {r.phase for r in found.trace} == {"forward", "backward"}
        twins = self.check(evaluated, found.trace)
        backward = [r for r in found.trace if r.phase == "backward"]
        assert 0 < len(twins) < len(backward)  # some backward tests reused, some run

    def test_symmetric_search(self, monkeypatch):
        evaluated, batches = self.spy(monkeypatch)
        searches = []
        real_mmpc = discovery.mmpc

        def recording(data, target, cfg):
            start = len(evaluated)
            found = real_mmpc(data, target, cfg)
            searches.append((evaluated[start:], found.trace))
            return found

        monkeypatch.setattr(discovery, "mmpc", recording)
        found = discover_parents(v_structure_data(seed=3, n=3000, extra_noise=3), "Y")
        assert len(searches) == 3  # the search from Y, then one back from A and from B
        assert sum(len(tests) for tests, _ in searches) == len(evaluated)
        assert found.trace[: len(searches[0][1])] == searches[0][1]
        for tests, trace in searches:
            assert self.check(tests, trace)  # each search reuses its own forward results

    def test_forward_records_candidate_by_candidate(self, monkeypatch):
        # a round's records run candidate by candidate in declaration order,
        # each candidate's subsets in order up to its first independent one,
        # as a search testing one candidate at a time would record them;
        # every subset of round r > 0 ends with the member added before it
        evaluated, _ = self.spy(monkeypatch)
        rng = np.random.default_rng(4)
        n = 4000
        a, b, c = (rng.integers(0, 2, n) for _ in range(3))
        d = np.where(rng.random(n) < 0.8, c, 1 - c)  # Y's association through C
        y = (rng.random(n) < 0.05 + 0.3 * a + 0.3 * b + 0.3 * c).astype(int)
        data = binary_dataset(D=d, A=a, B=b, C=c, Y=y)
        found = mmpc(data, "Y")
        self.check(evaluated, found.trace)
        rounds = {}
        for r in found.trace:
            if r.phase == "forward":
                rounds.setdefault(r.given[-1] if r.given else None, []).append(r)
        # some round tests two candidates, one of them against several subsets
        assert any(1 < len({r.x for r in rs}) < len(rs) for rs in rounds.values())
        for records in rounds.values():
            order = [r.x for r in records]
            assert order == sorted(order, key=data.columns.index)


class TestExactUnderAPerfectTest:
    """With every CI test answered by d-separation on the true graph, a
    perfect test under faithfulness, the search returns exactly PC(T), the
    target's parents and children, once the symmetry check has run
    (Tsamardinos, Brown & Aliferis 2006). In the pretreatment setting the
    outcome is childless, so that is PA(Y), the set the arm models need."""

    @staticmethod
    def oracle(monkeypatch, dag):
        """A dataset of ``dag``'s nodes, of no rows, whose tests read ``dag``."""

        def test(data, x, y, z, alpha):
            independent = d_separated(dag, {x}, {y}, set(z))
            return CITestResult(0.0, 0, float(independent), independent, True)

        def batch(data, xs, y, z, alpha):
            return [test(data, x, y, z, alpha) for x in xs]

        monkeypatch.setattr(discovery, "g2_test", test)
        monkeypatch.setattr(discovery, "g2_batch", batch)
        return binary_dataset(**{v: np.zeros(0, np.uint8) for v in dag.nodes})

    @staticmethod
    def small_and_sampled_dags():
        dags = [g for k in range(1, 5) for g in enumerate_all_dags(k)]
        rng = np.random.default_rng(31)
        return dags + [random_dag(rng, int(rng.integers(5, 9)), 0.3) for _ in range(40)]

    @staticmethod
    def setting_dags():
        rng = np.random.default_rng(32)
        return [random_setting_dag(rng, n_pre=int(rng.integers(3, 8))) for _ in range(120)]

    def test_exact_pc_set_with_the_symmetry_check(self, monkeypatch):
        plain_superset = 0
        for dag in self.small_and_sampled_dags():
            data = self.oracle(monkeypatch, dag)
            cfg = DiscoveryConfig(max_cond_size=len(dag.nodes))
            for target in dag.nodes:
                pc = dag.parents(target) | dag.children(target)
                plain = set(mmpc(data, target, cfg).members)
                assert plain >= pc, (dag.edges, target)
                plain_superset += plain != pc
                assert set(discover_parents(data, target, cfg).members) == pc, (dag.edges, target)
        assert plain_superset > 0  # the symmetry check is load-bearing

    def test_exact_parents_of_the_outcome_with_no_cap(self, monkeypatch):
        for dag in self.setting_dags():
            data = self.oracle(monkeypatch, dag)
            cfg = DiscoveryConfig(max_cond_size=len(dag.nodes))
            assert set(discover_parents(data, "Y", cfg).members) == dag.parents("Y"), dag.edges

    def test_a_bounded_cap_adds_members_and_drops_no_parent(self, monkeypatch):
        extra = 0
        for dag in self.setting_dags():
            data = self.oracle(monkeypatch, dag)
            for cap in range(4):
                found = set(discover_parents(data, "Y", DiscoveryConfig(max_cond_size=cap)).members)
                assert found >= dag.parents("Y"), (dag.edges, cap)
                extra += found != dag.parents("Y")
        assert extra > 0  # some separating sets are larger than the cap
