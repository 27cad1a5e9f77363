"""Max-min parents-and-children search for a single target column.

Under the pretreatment setting (the target has no descendants) the PC set
of the outcome equals its parent set, so this local search is all the
structure learning the pipeline needs. Association between a candidate and
the target is measured as the complement of the G-squared p-value, with
ties at p=0 broken by the larger statistic; unreliable tests count as
independence so sparse strata cannot invent parents. A ``ParentSet``
holds the members and a trace: a ``TestRecord`` per CI test, in the order
run, then one ``symmetry-removed`` record per member the symmetry check drops.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .errors import UnknownColumn
from .stats import g2_batch, g2_test


@dataclass(frozen=True)
class DiscoveryConfig:
    alpha: float = 0.01
    max_cond_size: int = 3
    symmetric: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.max_cond_size < 0:
            raise ValueError("max_cond_size must be >= 0")


class TestRecord(NamedTuple):
    x: str
    y: str
    given: tuple
    p_value: float
    statistic: float
    reliable: bool
    phase: str

    def to_dict(self):
        return self._asdict()


@dataclass
class ParentSet:
    target: str
    members: list
    trace: list = field(default_factory=list)

    def to_dict(self):
        return {"target": self.target, "members": list(self.members)}


def _subsets(pool, max_size):
    for size in range(min(len(pool), max_size) + 1):
        yield from combinations(pool, size)


def _record(candidate, target, given, res, phase):
    return TestRecord(candidate, target, given, res.p_value, res.statistic, res.reliable, phase)


def _forward_round(data, live, target, subsets, alpha):
    """Each live candidate's tests against ``subsets``, in order, up to and
    including its first independent one, as ``{candidate: [(given,
    result), ...]}``. All candidates still in play are tested against one
    subset in one ``g2_batch`` pass."""
    tested = {c: [] for c in live}
    pending = list(live)
    for given in subsets:
        if not pending:
            break
        results = g2_batch(data, pending, target, given, alpha)
        for c, res in zip(pending, results):
            tested[c].append((given, res))
        pending = [c for c, res in zip(pending, results) if not res.independent]
    return tested


def mmpc(data, target, cfg=DiscoveryConfig()):
    """Two-phase max-min search for the PC set of ``target``.

    Forward: repeatedly add the candidate whose worst-case association with
    the target (minimum over conditioning subsets of the current set, up to
    ``max_cond_size``) is largest, skipping candidates separated by any
    subset. Backward: drop members rendered independent by some subset of
    the remaining set. Deterministic: ties break by column declaration
    order, subsets enumerate by size then position.

    A forward round tests its candidates subset by subset, all of them at
    once, but records the tests candidate by candidate, each candidate's
    subsets in order, as a search testing one candidate at a time would.
    The backward phase reads a test the forward phase already ran from its
    result, which is the one ``g2_test`` would return, and records it again.
    """
    if target not in data:
        raise UnknownColumn(target)
    trace = []

    # best "worst-case" association seen so far, per live candidate:
    # (1 - p, statistic), minimized over tested subsets
    floor = {c: (2.0, float("inf")) for c in data.columns if c != target}
    cpc = []
    new_subsets = [()]
    forward = {}  # (candidate, given) -> result, for this search's backward phase
    while floor:
        tested = _forward_round(data, list(floor), target, new_subsets, cfg.alpha)
        for c, tests in tested.items():
            for given, res in tests:
                forward[c, given] = res
                trace.append(_record(c, target, given, res, "forward"))
                if res.independent:
                    del floor[c]
                    break
                floor[c] = min(floor[c], (1.0 - res.p_value, res.statistic))
        if not floor:
            break
        # ``floor`` keeps declaration order, and ``max`` keeps the first of a tie
        best = max(floor, key=floor.__getitem__)
        del floor[best]
        # subsets of the grown set that involve the newest member
        new_subsets = [s + (best,) for s in _subsets(cpc, cfg.max_cond_size - 1)]
        cpc.append(best)

    members = list(cpc)
    for x in list(members):
        others = [m for m in members if m != x]
        for given in _subsets(others, cfg.max_cond_size):
            # a subset of the members that entered before x was tested forward
            res = forward.get((x, given))
            if res is None:
                res = g2_test(data, x, target, given, cfg.alpha)
            trace.append(_record(x, target, given, res, "backward"))
            if res.independent:
                members.remove(x)
                break

    return ParentSet(target=target, members=members, trace=trace)


def symmetric_correction(data, target, candidate, cfg=DiscoveryConfig()):
    """Keep a member only if the reverse search from it finds the target.

    Near-deterministic copies of the target can enter the PC set one-way;
    the symmetry requirement of the published algorithm removes them.
    """
    members = []
    trace = list(candidate.trace)
    for x in candidate.members:
        if target in mmpc(data, x, cfg).members:
            members.append(x)
        else:
            trace.append(TestRecord(x, target, (), None, None, True, "symmetry-removed"))
    return ParentSet(target=target, members=members, trace=trace)


def discover_parents(data, target, cfg=DiscoveryConfig()):
    """MMPC with the symmetry check applied when the config asks for it."""
    found = mmpc(data, target, cfg)
    if cfg.symmetric:
        found = symmetric_correction(data, target, found, cfg)
    return found
