"""State-level reachability: graphs, quotient DAGs, and complete monotones.

A finite set of exact channels acting on exact states generates a
transition graph whose edges all have unit length.  Collapsing mutually
reachable states (cycles) gives an acyclic quotient.  Each base class gets
the longest-path monotone: a table of integer longest distances from the
base (-1 off its reachable region), read as the value 1/(l+1) at distance
l and 2 off the region.  The family of all such tables is compatible with
every edge and reproduces the reachability partial order exactly on the
explored graph.  Both checks read one dominance relation: class r dominates
class s when no table's distance at s is below its distance at r.

The exploration applies each channel's certified Choi operator to integer
columns of state keys, a level at a time.  A reach graph numbers its states
by their keys and spells digests only for its DOT export and the quotient;
quotients export JSON and DOT, and monotone tables JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd
from operator import floordiv
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    key_has_unit_trace,
    matrix_units,
)
from .util import Report, breadth_first, combine, level_cut


class NotCPTPError(ValueError):
    """A map failed Choi certification; carries the offending evidence."""

    def __init__(self, message: str, label: str, choi_matrix: ExactMatrix):
        super().__init__(f"channel {label}: {message}")
        self.label = label
        self.choi_matrix = choi_matrix


class UnknownStateError(ValueError):
    """Queried state is not a node of the graph."""


def choi(channel) -> ExactMatrix:
    """Choi operator: apply the channel to each matrix unit E_ij, one half of
    the unnormalized maximally entangled operator.  Output factor first, so
    trace preservation reads as partial_trace_first(...) == identity."""
    return ExactMatrix.choi_from_images(
        [channel.apply_to_matrix(unit) for unit in matrix_units(channel.dim)]
    )


def certify_cptp(channel) -> ExactMatrix:
    """Choi certification: positive semidefinite and trace preserving.

    Returns the Choi operator; raises NotCPTPError with it as witness
    otherwise.
    """
    j = choi(channel)
    if not j.is_hermitian():
        raise NotCPTPError("Choi operator is not Hermitian", channel.label, j)
    if not j.is_psd():
        raise NotCPTPError(
            "Choi operator is not positive semidefinite", channel.label, j
        )
    d = channel.dim
    if j.partial_trace_first(d, d) != ExactMatrix.identity(d):
        raise NotCPTPError("map is not trace preserving", channel.label, j)
    return j


@dataclass(frozen=True, slots=True)
class ReachGraph:
    """Bounded closure of seed states under a finite channel set.

    Nodes are 0..n-1 in discovery order (index maps each state's key to its
    node), or a synthetic graph's strings.  Edges (source, target, label) have unit length.
    """

    nodes: Tuple
    edges: Tuple[Tuple, ...]
    seeds: Tuple
    truncated: bool = False
    index: Optional[Dict[tuple, int]] = field(default=None, hash=False)

    @classmethod
    def synthetic(
        cls,
        node_ids: Sequence[str],
        edges: Sequence[Tuple[str, str, str]],
        seeds: Sequence[str] = (),
    ) -> "ReachGraph":
        known = set(node_ids)
        if len(known) != len(node_ids) or not known.issuperset(seeds):
            raise ValueError("node ids must be distinct and include every seed")
        for u, v, _ in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
        return cls(nodes=tuple(node_ids), edges=tuple(edges), seeds=tuple(seeds))

    def named(self) -> "ReachGraph":
        """The graph with each state's node spelled as its digest, one digest
        per state; a synthetic graph is returned as it is."""
        if self.index is None:
            return self
        ids = [ExactMatrix.from_hermitian_key(k).digest() for k in self.index]
        edges = tuple((ids[u], ids[v], lab) for u, v, lab in self.edges)
        return ReachGraph(tuple(ids), edges, tuple(ids[s] for s in self.seeds), self.truncated)

    def to_dot(self) -> str:
        g = self.named()
        lines = ["digraph reach {"]
        for nid in sorted(g.nodes):
            shape = "doubleoctagon" if nid in g.seeds else "ellipse"
            lines.append(f'  "{nid}" [label="{nid[:8]}" shape={shape}];')
        for u, v, lab in sorted(g.edges):
            lines.append(f'  "{u}" -> "{v}" [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def explore(
    channels: Sequence,
    seeds: Sequence[ExactDensityMatrix],
    max_depth: int,
    node_budget: int = 100_000,
) -> ReachGraph:
    """Breadth-first closure of the seeds under the channels.

    A channel is any object with `dim`, `label` and an `apply_to_matrix`
    for choi.  A state is kept as its Hermitian key and numbered when it
    is found; ReachGraph.named spells digests.  The budget counts
    expansions (one channel applied to one stored state), so at most
    node_budget states join the seeds.  A level is one integer column per
    key coordinate; each channel's children of the kept parents are its key
    map on the columns (util.combine), reduced by their gcd, and taken in
    the frontier-major order that util.level_cut keeps.

    No child is put through the PSD test, by proof: a child is its parent
    under Phi_J(X) = sum_ij X_ij Phi(E_ij), Phi(E_ij)[a, b] = J[a*d + i,
    b*d + j], the linear map whose Choi operator is the J that certify_cptp
    returns.  That J is PSD with partial trace I, so Phi_J is completely
    positive and trace preserving (Choi 1975), and by induction from the
    validated seeds every child is a density matrix.  A key spells only
    Hermitian matrices, and a Hermitian J keeps images Hermitian.  Each new
    state still gets the O(d) unit-trace check, which raises ValueError.
    """
    if not channels:
        raise ValueError("need at least one channel")
    if not seeds:
        raise ValueError("need at least one seed state")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    dim = channels[0].dim
    if any(ch.dim != dim for ch in channels):
        raise ShapeError("all channels must act on the same dimension")
    labels = [ch.label for ch in channels]
    if len(set(labels)) != len(labels):
        raise ValueError("channel labels must be distinct: a path is a word of labels")
    maps = [certify_cptp(ch).choi_key_map(dim) for ch in channels]
    if any(s.dim != dim for s in seeds):
        raise ShapeError("seed dimension does not match the channels")

    states = {k: i for i, k in enumerate(dict.fromkeys(s.mat.hermitian_key() for s in seeds))}
    keys = list(states)  # the frontier, numbered last
    seed_ids = tuple(states.values())
    edges: Dict[Tuple[int, int, str], None] = {}  # insertion-ordered set
    expanded = 0
    truncated = False
    for _ in range(max_depth):
        kept, truncated = level_cut(len(keys), len(maps), node_budget - expanded)
        expanded += kept
        cols = list(zip(*keys))
        children = [None] * kept  # frontier-major: parent p, channel c at p * len(maps) + c
        for c, rows in enumerate(maps):
            kids = [combine(row, cols, len(range(c, kept, len(maps)))) for row in rows]
            common = list(map(gcd, *kids))
            children[c::len(maps)] = zip(*(map(floordiv, col, common) for col in kids))
        parents, keys = range(len(states) - len(keys), len(states)), []
        for (nid, label), key in zip(product(parents, labels), children):
            oid = states.get(key)
            if oid is None:
                if not key_has_unit_trace(dim, key):
                    raise ValueError(f"channel {label}: a child is not Hermitian of unit trace")
                oid = states[key] = len(states)
                keys.append(key)
            edges[(nid, oid, label)] = None
        if truncated:
            break
    return ReachGraph(
        nodes=tuple(range(len(states))),
        edges=tuple(edges),
        seeds=seed_ids,
        truncated=truncated,
        index=states,
    )


REACHABLE = "reachable"
NOT_REACHABLE = "not_reachable_within_bound"


@dataclass(frozen=True, slots=True)
class ReachOutcome(Report):
    status: str
    path: Optional[Tuple[str, ...]]


def reach(g: ReachGraph, source, target) -> ReachOutcome:
    """Shortest generator word from source to target inside the graph.

    The negative answer is bound-relative: a target outside the explored
    closure is reported as not reachable within the bound, never as
    unreachable outright.  States are found by Hermitian key (g.index).
    The search is util.breadth_first on edges keyed by (state, label), the
    labels in sorted order; no state is stepped twice by one label.
    """
    index = g.index or {}
    src = index.get(source.mat.hermitian_key())
    if src is None:
        raise UnknownStateError("source state is not a node of the graph")
    dst = index.get(target.mat.hermitian_key())
    if dst is None:
        return ReachOutcome(NOT_REACHABLE, None)
    if src == dst:
        return ReachOutcome(REACHABLE, ())
    succ = {(u, lab): (v, v) for u, v, lab in g.edges}
    labels = [(lab, lab) for lab in sorted({lab for _, _, lab in g.edges})]
    n = len(g.nodes)
    path = breadth_first(src, dst, labels, lambda u, lab: succ.get((u, lab)), n, n * len(labels))[0]
    return ReachOutcome(NOT_REACHABLE if path is None else REACHABLE, path)


def _tarjan_scc(nodes: Sequence[str], adj: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's strongly connected components, on an explicit frame stack,
    each emitted after every component it reaches: sinks first."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    onstack = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    work = []

    def push(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        onstack.add(v)
        work.append((v, iter(adj[v])))

    for root in nodes:
        if root not in index:
            push(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    push(w)
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every successor of v is done
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                    onstack.difference_update(comp)
                    sccs.append(comp)
    return sccs


@dataclass(frozen=True, slots=True)
class QuotientDAG:
    """Strongly-connected components of a reach graph; acyclic by collapse.

    Edges are the sorted distinct (u, v) class pairs with u != v; like the
    graph's edges they have unit length.  Classes are numbered by ascending
    representative (least member), so representatives strictly increase.
    `order` lists every class once with every edge running forward, or
    construction raises ValueError.
    """

    classes: Tuple[Tuple[str, ...], ...]
    class_of: Dict[str, int]
    edges: Tuple[Tuple[int, int], ...]
    order: Tuple[int, ...]

    def __post_init__(self):
        pos = {c: i for i, c in enumerate(self.order)}
        if sorted(self.order) != list(range(self.size)) or any(
            pos[u] >= pos[v] for u, v in self.edges
        ):
            raise ValueError("quotient order is not topological: the graph has a cycle")

    @property
    def size(self) -> int:
        return len(self.classes)

    def representative(self, idx: int) -> str:
        return self.classes[idx][0]

    def successors(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.size)]
        for u, v in self.edges:
            out[u].append(v)
        return out

    def to_json_dict(self) -> dict:
        return {
            "classes": {
                self.representative(i): list(members)
                for i, members in enumerate(self.classes)
            },
            "edges": [
                [self.representative(u), self.representative(v), "1"]
                for u, v in self.edges
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph quotient {", "  compound=true;"]
        for i, members in enumerate(self.classes):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{self.representative(i)[:8]}";')
            for m in members:
                lines.append(f'    "{m}" [label="{m[:8]}"];')
            lines.append("  }")
        for u, v in self.edges:
            lines.append(
                f'  "{self.representative(u)}" -> "{self.representative(v)}"'
                f" [ltail=cluster_{u} lhead=cluster_{v}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def quotient(g: ReachGraph) -> QuotientDAG:
    """Collapse mutually reachable nodes of the digest-named graph; two nodes
    share a class exactly when each is reachable from the other.  The order
    is Tarjan's emission order reversed."""
    g = g.named()
    nodes = sorted(g.nodes)
    adj: Dict[str, List[str]] = {n: [] for n in nodes}
    for u, v, _ in g.edges:
        adj[u].append(v)
    for n in adj:
        adj[n] = sorted(set(adj[n]))
    emitted = [sorted(c) for c in _tarjan_scc(nodes, adj)]
    sccs = sorted(emitted, key=lambda c: c[0])
    class_of = {}
    for i, comp in enumerate(sccs):
        for n in comp:
            class_of[n] = i
    class_edges = {(class_of[u], class_of[v]) for u, v, _ in g.edges}
    return QuotientDAG(
        classes=tuple(tuple(c) for c in sccs),
        class_of=class_of,
        edges=tuple(sorted((u, v) for u, v in class_edges if u != v)),
        order=tuple(class_of[c[0]] for c in reversed(emitted)),
    )


UNREACHABLE_VALUE = Fraction(2)


def _distance_value(d: int) -> Fraction:
    return Fraction(1, d + 1) if d >= 0 else UNREACHABLE_VALUE


@dataclass(frozen=True, slots=True)
class MonotoneTable:
    """The base class's monotone as integer longest distances, one per
    quotient class: dist[c] is the longest path length from the base to c,
    or -1 when the base cannot reach c.  A larger distance means a smaller
    value."""

    base: int
    dist: Tuple[int, ...]

    def value(self, c: int) -> Fraction:
        """1/(l+1) at longest distance l, UNREACHABLE_VALUE off the region."""
        return _distance_value(self.dist[c])

    def to_json_dict(self, reps: Tuple[str, ...]) -> dict:
        """The table keyed by class representative; reps[c] is class c's."""
        # One string per distinct distance, shared by every class at it.
        text = {d: str(_distance_value(d)) for d in set(self.dist)}
        return {
            "base": reps[self.base],
            "values": dict(zip(reps, map(text.__getitem__, self.dist))),
        }


def _longest_distances(
    base: int, order: Sequence[int], out: Sequence[Sequence[int]]
) -> MonotoneTable:
    """Relax unit edges along a topological order, starting from the base."""
    dist = [-1] * len(order)
    dist[base] = 0
    for u in order:
        du = dist[u]
        if du < 0:
            continue
        for v in out[u]:
            if du + 1 > dist[v]:
                dist[v] = du + 1
    return MonotoneTable(base=base, dist=tuple(dist))


@dataclass(frozen=True, slots=True)
class MonotoneFamily:
    """One table per class of the quotient: the overcomplete family.  Bit s
    of dominance[r] is set when class r dominates class s; it is built once."""

    quotient: QuotientDAG
    tables: Tuple[MonotoneTable, ...]
    dominance: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Each table clears, at every class c it reaches, the classes below
        c's distance; a class it cannot reach (-1) gains no constraint."""
        n = self.quotient.size
        dominated = [(1 << n) - 1] * n
        for table in self.tables:
            levels: Dict[int, List[int]] = {}
            for c, d in enumerate(table.dist):
                if d >= 0:
                    levels.setdefault(d, []).append(c)
            at_least = 0  # classes at the current distance or more
            for d in sorted(levels, reverse=True):
                for c in levels[d]:
                    at_least |= 1 << c
                for c in levels[d]:
                    dominated[c] &= at_least
        object.__setattr__(self, "dominance", tuple(dominated))

    def to_json_dict(self) -> list:
        q = self.quotient
        reps = tuple(q.representative(c) for c in range(q.size))
        return [t.to_json_dict(reps) for t in self.tables]

    def summary_json(self) -> list:
        """Per table: its base, how many classes it reaches, its longest distance."""
        rep = self.quotient.representative
        return [
            {"base": rep(t.base), "reachable": len(t.dist) - t.dist.count(-1),
             "max_distance": max(t.dist)}
            for t in self.tables
        ]


def monotone_family(q: QuotientDAG) -> MonotoneFamily:
    out = q.successors()
    return MonotoneFamily(
        quotient=q,
        tables=tuple(_longest_distances(c, q.order, out) for c in range(q.size)),
    )


@dataclass(frozen=True, slots=True)
class CheckResult:
    ok: bool
    counterexample: Optional[dict] = None


def check_compatible(g: ReachGraph, family: MonotoneFamily) -> CheckResult:
    """Every table must be non-increasing along every edge of the graph,
    that is, its distance must not drop along an edge.

    An edge breaks that exactly when its source class does not dominate its
    target class; only then are the tables scanned, for the first one whose
    distance drops."""
    g = g.named()
    class_of = family.quotient.class_of
    dominated = family.dominance
    for u, v, lab in g.edges:
        cu = class_of[u]
        cv = class_of[v]
        if dominated[cu] >> cv & 1:
            continue
        for table in family.tables:
            if table.dist[cv] < table.dist[cu]:
                return CheckResult(
                    False,
                    {
                        "edge": [u, v, lab],
                        "base": family.quotient.representative(table.base),
                        "value_from": str(table.value(cu)),
                        "value_to": str(table.value(cv)),
                    },
                )
    return CheckResult(True)


def _closure_bitsets(q: QuotientDAG) -> List[int]:
    """Reflexive-transitive closure over the class DAG: a class's row is its
    own bit ORed with its successors' rows, filled in a depth-first
    post-order of q.edges that owes nothing to the tables it checks or to
    q.order."""
    out = q.successors()
    rows, seen = [0] * q.size, [False] * q.size
    stack = [(c, False) for c in range(q.size)]  # (class, successors done)
    while stack:
        u, done = stack.pop()
        if done:
            row = 1 << u
            for v in out[u]:
                row |= rows[v]
            rows[u] = row
        elif not seen[u]:
            seen[u] = True
            stack.append((u, True))
            stack.extend((v, False) for v in out[u] if not seen[v])
    return rows


def check_complete(family: MonotoneFamily) -> CheckResult:
    """Dominance in every table must coincide with reachability, where
    reachability comes from an independent transitive-closure oracle.

    Dominance is MonotoneFamily.dominance.  The first mismatch is reported
    in (r, s) order.
    """
    q = family.quotient
    dominated = family.dominance
    closure = _closure_bitsets(q)
    for r in range(q.size):
        diff = dominated[r] ^ closure[r]
        if diff:
            s = (diff & -diff).bit_length() - 1
            return CheckResult(
                False,
                {
                    "from": q.representative(r),
                    "to": q.representative(s),
                    "dominated": bool(dominated[r] >> s & 1),
                    "reachable": bool(closure[r] >> s & 1),
                },
            )
    return CheckResult(True)


def generic_seed(dim: int = 4) -> ExactDensityMatrix:
    """State with distinct eigenvalues in a deliberately skew eigenbasis.

    A full-rank source cannot reach a reset state through unitary channels
    alone: each conjugates and depolarises, which keeps four distinct
    eigenvalues distinct, while a target lam |1><1| + (1 - lam) I/4 has a
    threefold one.  So from this state only a word through a reset reaches
    a target, and reaching it mirrors the target's membership on the
    explored bound.
    """
    total = dim * (dim + 1) // 2
    diag = ExactMatrix.diagonal([Fraction(dim - i, total) for i in range(dim)])
    triples = [(Fraction(a, h), Fraction(b, h))
               for a, b, h in ((3, 4, 5), (5, 12, 13), (8, 15, 17))]
    mixer = ExactMatrix.diagonal([GaussianRational(1 - i % 2, i % 2) for i in range(dim)])
    for k in range(dim - 1):  # a rotation, for odd k a complex one, of the plane (k, k + 1)
        c, s = triples[k % 3]
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
        rows[k][k] = rows[k + 1][k + 1] = c
        rows[k][k + 1], rows[k + 1][k] = (GaussianRational(0, s),) * 2 if k % 2 else (s, -s)
        mixer = mixer @ ExactMatrix.from_rows(rows)
    return ExactDensityMatrix(mixer @ diag @ mixer.dagger())


def demo_graph() -> ReachGraph:
    """Small synthetic graph with a known profile: a 6-step longest chain
    next to a shortcut edge, one 2-cycle (an equivalent-state pair), and a
    node the seed cannot reach."""
    nodes = ["rho", "a", "b", "c", "d", "e", "sigma", "g1", "g2", "omega"]
    edges = [
        ("rho", "a", "s1"),
        ("a", "b", "s2"),
        ("b", "c", "s3"),
        ("c", "d", "s4"),
        ("d", "e", "s5"),
        ("e", "sigma", "s6"),
        ("rho", "sigma", "jump"),
        ("sigma", "g1", "w1"),
        ("g1", "g2", "w2"),
        ("g2", "g1", "w3"),
        ("omega", "a", "w4"),
    ]
    return ReachGraph.synthetic(nodes, edges, seeds=("rho",))
