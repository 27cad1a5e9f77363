"""Max-min parents-and-children search for a single target column.

Under the pretreatment setting (the target has no descendants) the PC set
of the outcome equals its parent set, so this local search is all the
structure learning the pipeline needs. Association between a candidate and
the target is measured as the complement of the G-squared p-value, with
ties at p=0 broken by the larger statistic; unreliable tests count as
independence so sparse strata cannot invent parents.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .errors import UnknownColumn
from .stats import g2_test


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


@dataclass(frozen=True)
class TestRecord:
    x: str
    y: str
    given: tuple
    p_value: float
    statistic: float
    reliable: bool
    phase: str

    def to_dict(self):
        return {
            "x": self.x,
            "y": self.y,
            "given": list(self.given),
            "p_value": self.p_value,
            "statistic": self.statistic,
            "reliable": self.reliable,
            "phase": self.phase,
        }


@dataclass
class ParentSet:
    target: str
    members: list
    trace: list = field(default_factory=list)

    def to_dict(self, include_trace=True):
        out = {"target": self.target, "members": list(self.members)}
        if include_trace:
            out["trace"] = [r.to_dict() for r in self.trace]
        return out


def _subsets(pool, max_size):
    for size in range(min(len(pool), max_size) + 1):
        yield from combinations(pool, size)


def _test(data, candidate, target, given, alpha, phase, trace):
    res = g2_test(data, candidate, target, given, alpha)
    trace.append(
        TestRecord(
            x=candidate,
            y=target,
            given=tuple(given),
            p_value=res.p_value,
            statistic=res.statistic,
            reliable=res.reliable,
            phase=phase,
        )
    )
    return res


def mmpc(data, target, cfg=DiscoveryConfig()):
    """Two-phase max-min search for the PC set of ``target``.

    Forward: repeatedly add the candidate whose worst-case association with
    the target (minimum over conditioning subsets of the current set, up to
    ``max_cond_size``) is largest, skipping candidates separated by any
    subset. Backward: drop members rendered independent by some subset of
    the remaining set. Deterministic: ties break by column declaration
    order, subsets enumerate by size then position.
    """
    if target not in data:
        raise UnknownColumn(target)
    candidates = [c for c in data.columns if c != target]
    trace = []

    # best "worst-case" association seen so far, per live candidate:
    # (1 - p, statistic), minimized over tested subsets
    floor = {c: (2.0, float("inf")) for c in candidates}
    cpc = []
    new_subsets = [()]
    while floor:
        for c in list(floor):
            for given in new_subsets:
                res = _test(data, c, target, given, cfg.alpha, "forward", trace)
                if res.independent:
                    del floor[c]
                    break
                key = (1.0 - res.p_value, res.statistic)
                if key < floor[c]:
                    floor[c] = key
        if not floor:
            break
        best = None
        for c in candidates:  # declaration order breaks ties
            if c in floor and (best is None or floor[c] > floor[best]):
                best = c
        cpc.append(best)
        del floor[best]
        # subsets of the grown set that involve the newest member
        rest = [m for m in cpc if m != best]
        new_subsets = [
            s + (best,)
            for s in _subsets(rest, cfg.max_cond_size - 1)
        ]

    members = list(cpc)
    for x in list(members):
        others = [m for m in members if m != x]
        for given in _subsets(others, cfg.max_cond_size):
            res = _test(data, x, target, given, cfg.alpha, "backward", trace)
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
        reverse = mmpc(data, x, cfg)
        if target in reverse.members:
            members.append(x)
        else:
            trace.append(
                TestRecord(
                    x=x,
                    y=target,
                    given=(),
                    p_value=None,
                    statistic=None,
                    reliable=True,
                    phase="symmetry-removed",
                )
            )
    return ParentSet(target=target, members=members, trace=trace)


def discover_parents(data, target, cfg=DiscoveryConfig()):
    """MMPC with the symmetry check applied when the config asks for it."""
    found = mmpc(data, target, cfg)
    if cfg.symmetric:
        found = symmetric_correction(data, target, found, cfg)
    return found
