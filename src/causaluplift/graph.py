"""Directed acyclic graphs over named variables.

Provides the DAG container, parent/descendant queries, graph mutilation
(edge removal around intervened nodes), a linear-time d-separation test,
and the structural check that decides whether thresholding the difference
of the two arm-conditional outcome probabilities is a valid causal
classification rule for a given treatment/outcome pair.
"""

import heapq
import json
from dataclasses import dataclass, field

from .errors import CycleDetected, DuplicateEdge, OverlappingSets, UnknownNode

_UP = 0
_DOWN = 1


@dataclass(frozen=True)
class MutilationSpec:
    """Edges to delete: all incoming edges of ``remove_incoming`` nodes and
    all outgoing edges of ``remove_outgoing`` nodes."""

    remove_incoming: frozenset = frozenset()
    remove_outgoing: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "remove_incoming", frozenset(self.remove_incoming))
        object.__setattr__(self, "remove_outgoing", frozenset(self.remove_outgoing))


class Dag:
    """Immutable DAG with declaration-ordered nodes.

    Construction validates the edge set: unknown endpoints, self loops,
    duplicate edges and directed cycles are all rejected.
    """

    __slots__ = ("nodes", "edges", "_index", "_parents", "_children", "_order")

    def __init__(self, nodes, edges=()):
        nodes = tuple(nodes)
        seen = set()
        for n in nodes:
            if n in seen:
                raise ValueError(f"duplicate node name {n!r}")
            seen.add(n)
        self.nodes = nodes
        self._index = {n: i for i, n in enumerate(nodes)}
        self._parents = {n: set() for n in nodes}
        self._children = {n: set() for n in nodes}
        seen_edges = set()
        for p, c in edges:
            if p not in self._index:
                raise UnknownNode(p)
            if c not in self._index:
                raise UnknownNode(c)
            if (p, c) in seen_edges or p == c:
                raise DuplicateEdge((p, c))
            seen_edges.add((p, c))
            self._parents[c].add(p)
            self._children[p].add(c)
        self.edges = tuple(
            sorted(seen_edges, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        )
        self._order = self._kahn()

    def _kahn(self):
        """Kahn's algorithm, ties broken by declaration order; raises
        ``CycleDetected`` naming one cycle when nodes are left over."""
        in_deg = {n: len(self._parents[n]) for n in self.nodes}
        ready = [i for i, n in enumerate(self.nodes) if not in_deg[n]]
        order = []
        while ready:
            n = self.nodes[heapq.heappop(ready)]
            order.append(n)
            for c in self._children[n]:
                in_deg[c] -= 1
                if not in_deg[c]:
                    heapq.heappush(ready, self._index[c])
        if len(order) == len(self.nodes):
            return order
        # every leftover node has a leftover parent: walk parents until a
        # node repeats, then report that loop in edge direction
        walk = [next(n for n in self.nodes if in_deg[n])]
        step = {walk[0]: 0}
        while True:
            n = min(
                (p for p in self._parents[walk[-1]] if in_deg[p]),
                key=self._index.__getitem__,
            )
            if n in step:
                raise CycleDetected([n] + walk[step[n]:][::-1])
            step[n] = len(walk)
            walk.append(n)

    def _check(self, v):
        if v not in self._index:
            raise UnknownNode(v)

    def parents(self, v):
        self._check(v)
        return set(self._parents[v])

    def children(self, v):
        self._check(v)
        return set(self._children[v])

    def descendants(self, v):
        """All nodes reachable from ``v`` along edge direction, excluding ``v``."""
        self._check(v)
        return _reach([v], self._children) - {v}

    def ancestors(self, v):
        """All nodes from which ``v`` is reachable, excluding ``v``."""
        self._check(v)
        return _reach([v], self._parents) - {v}

    def topological_order(self):
        """Kahn's order; ties broken by declaration order."""
        return list(self._order)

    def mutilate(self, spec):
        """New DAG with the specified incoming/outgoing edges removed."""
        for n in spec.remove_incoming | spec.remove_outgoing:
            self._check(n)
        kept = [
            (p, c)
            for p, c in self.edges
            if c not in spec.remove_incoming and p not in spec.remove_outgoing
        ]
        return Dag(self.nodes, kept)

    def sort_nodes(self, names):
        """Return ``names`` as a list in declaration order."""
        return sorted(names, key=self._index.__getitem__)

    def __eq__(self, other):
        return (
            isinstance(other, Dag)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return f"Dag({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def to_json(self):
        """Canonical JSON; byte-stable for a fixed node order."""
        payload = {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        return cls(payload["nodes"], [tuple(e) for e in payload["edges"]])


def _reach(starts, adjacency):
    """``starts`` plus every node reachable from them through ``adjacency``."""
    out = set(starts)
    stack = list(out)
    while stack:
        for m in adjacency[stack.pop()]:
            if m not in out:
                out.add(m)
                stack.append(m)
    return out


def build_dag(nodes, edges):
    """Construct a validated DAG; fails with a cycle/duplicate diagnosis."""
    return Dag(nodes, edges)


def d_separated(g, x, y, z):
    """True iff every path between ``x`` and ``y`` is blocked given ``z``.

    Uses the standard linear-time reachability formulation: a ball starting
    at ``x`` travels against edges ("up") and along edges ("down"); chains
    and forks are blocked at conditioned nodes while colliders pass only at
    conditioned nodes or their ancestors-of-``z``.
    """
    x, y, z = set(x), set(y), set(z)
    for n in x | y | z:
        g._check(n)
    if x & y or x & z or y & z:
        raise OverlappingSets(
            f"query sets overlap: x={sorted(x)} y={sorted(y)} z={sorted(z)}"
        )
    if not x or not y:
        return True

    anc_z = _reach(z, g._parents)

    visited = set()
    frontier = [(s, _UP) for s in x]
    while frontier:
        state = frontier.pop()
        if state in visited:
            continue
        visited.add(state)
        n, d = state
        if n in y:
            return False
        if d == _UP and n not in z:
            for p in g._parents[n]:
                frontier.append((p, _UP))
            for c in g._children[n]:
                frontier.append((c, _DOWN))
        elif d == _DOWN:
            if n not in z:
                for c in g._children[n]:
                    frontier.append((c, _DOWN))
            if n in anc_z:
                for p in g._parents[n]:
                    frontier.append((p, _UP))
    return True


@dataclass
class ConditionReport:
    """Outcome of the structural validity check for uplift-style estimation.

    The three structural booleans describe the assumed setting (treatment is
    a direct cause of the outcome, the outcome is childless, everything else
    is pretreatment). ``rule1_holds`` and ``rule2_holds`` are the two
    graph-surgery independence conditions that license replacing the
    interventional contrast with the observed arm-conditional contrast; when
    the setting holds they are implied.
    """

    t_is_parent_of_y: bool
    y_has_no_descendants: bool
    all_others_pretreatment: bool
    rule1_holds: bool
    rule2_holds: bool
    parents_excl_t: list
    violations: list = field(default_factory=list)

    @property
    def setting_ok(self):
        return (
            self.t_is_parent_of_y
            and self.y_has_no_descendants
            and self.all_others_pretreatment
        )


def verify_uplift_conditions(g, t, y):
    """Check whether ``(g, t, y)`` matches the pretreatment problem setting.

    Reports the structural booleans, the applicability of the two do-calculus
    rewrites on the corresponding mutilated graphs, and the outcome's parents
    excluding the treatment (the covariate set for valid uplift estimation).
    """
    g._check(t)
    g._check(y)
    if t == y:
        raise OverlappingSets("treatment and outcome must differ")

    pa_y = g.parents(y)
    parents_excl_t = g.sort_nodes(pa_y - {t})
    violations = []

    t_is_parent = t in pa_y
    if not t_is_parent:
        violations.append(f"treatment {t} is not a parent of outcome {y}")

    desc_y = g.descendants(y)
    y_childless = not desc_y
    for w in g.sort_nodes(desc_y):
        violations.append(f"outcome {y} has descendant {w}")

    desc_t = g.descendants(t) - {y}
    pretreatment = not desc_t and y_childless
    for w in g.sort_nodes(desc_t):
        violations.append(f"{w} is a descendant of treatment {t}")

    pa_prime = set(parents_excl_t)
    context = set(g.nodes) - {t, y} - pa_prime
    g_do_t = g.mutilate(MutilationSpec(remove_incoming=frozenset({t})))
    rule1 = d_separated(g_do_t, {y}, context, pa_prime | {t})
    if not rule1:
        violations.append(
            f"context variables remain associated with {y} given "
            f"parents and {t} after removing incoming edges of {t}"
        )

    g_obs_t = g.mutilate(MutilationSpec(remove_outgoing=frozenset({t})))
    rule2 = d_separated(g_obs_t, {y}, {t}, pa_prime)
    if not rule2:
        violations.append(
            f"{t} remains associated with {y} given parents after "
            f"removing outgoing edges of {t}"
        )

    return ConditionReport(
        t_is_parent_of_y=t_is_parent,
        y_has_no_descendants=y_childless,
        all_others_pretreatment=pretreatment,
        rule1_holds=rule1,
        rule2_holds=rule2,
        parents_excl_t=parents_excl_t,
        violations=violations,
    )
