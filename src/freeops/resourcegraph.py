"""State-level reachability: graphs, quotient DAGs, and complete monotones.

A finite set of exact channels acting on exact states generates a
transition graph.  Collapsing mutually reachable states (cycles) gives an
acyclic quotient; assigning each base class the reciprocal longest-path
monotone, value 2 off the reachable region, yields a family that is
compatible with every edge and reproduces the reachability partial order
exactly on the explored graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    rat_to_str,
)
from .reduction import choi


class NotCPTPError(ValueError):
    """A map failed Choi certification; carries the offending evidence."""

    def __init__(self, message: str, label: str, choi_matrix: ExactMatrix):
        super().__init__(f"channel {label}: {message}")
        self.label = label
        self.choi_matrix = choi_matrix


class UnknownStateError(ValueError):
    """Queried state is not a node of the graph."""


@dataclass(frozen=True, slots=True)
class KrausChannel:
    """Channel given by a finite Kraus list over Gaussian rationals."""

    ops: Tuple[ExactMatrix, ...]
    label: str

    def __post_init__(self):
        if not self.ops:
            raise ValueError("a Kraus channel needs at least one operator")
        d = self.ops[0].rows
        for k in self.ops:
            if k.rows != d or k.cols != d:
                raise ShapeError("Kraus operators must be square and same-sized")

    @property
    def dim(self) -> int:
        return self.ops[0].rows

    def apply_to_matrix(self, m: ExactMatrix) -> ExactMatrix:
        out = ExactMatrix.zeros(self.dim, self.dim)
        for k in self.ops:
            out = out + (k @ m @ k.dagger())
        return out

    def apply(self, state: ExactDensityMatrix) -> ExactDensityMatrix:
        return ExactDensityMatrix(self.apply_to_matrix(state.mat))


_CPTP_CACHE: dict = {}


def certify_cptp(channel) -> ExactMatrix:
    """Choi certification: positive semidefinite and trace preserving.

    Returns the Choi operator; raises NotCPTPError with it as witness
    otherwise.  Results are cached per channel object value.
    """
    cached = _CPTP_CACHE.get(channel)
    if cached is not None:
        return cached
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
    _CPTP_CACHE[channel] = j
    return j


@dataclass(frozen=True, slots=True)
class ReachGraph:
    """Bounded closure of seed states under a finite channel set.

    Nodes are keyed by state digest (synthetic graphs may carry None
    states); every edge has unit length, kept rational so weighted graphs
    stay expressible.
    """

    nodes: Dict[str, Optional[ExactDensityMatrix]]
    edges: Tuple[Tuple[str, str, str, Fraction], ...]
    seeds: Tuple[str, ...]
    depth_bound: int
    truncated: bool = False

    @classmethod
    def synthetic(
        cls,
        node_ids: Sequence[str],
        edges: Sequence[Tuple[str, str, str]],
        seeds: Sequence[str] = (),
        depth_bound: int = 0,
    ) -> "ReachGraph":
        known = set(node_ids)
        for u, v, _ in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
        return cls(
            nodes={n: None for n in node_ids},
            edges=tuple((u, v, lab, Fraction(1)) for u, v, lab in edges),
            seeds=tuple(seeds),
            depth_bound=depth_bound,
        )

    def adjacency(self) -> Dict[str, List[Tuple[str, str]]]:
        adj: Dict[str, List[Tuple[str, str]]] = {n: [] for n in self.nodes}
        for u, v, lab, _ in self.edges:
            adj[u].append((lab, v))
        for n in adj:
            adj[n].sort()
        return adj

    def to_json_dict(self) -> dict:
        return {
            "nodes": {
                nid: (state.to_json_dict() if state is not None else None)
                for nid, state in sorted(self.nodes.items())
            },
            "edges": [
                [u, v, lab, rat_to_str(ln)]
                for u, v, lab, ln in sorted(self.edges)
            ],
            "seeds": list(self.seeds),
            "depth_bound": self.depth_bound,
            "truncated": self.truncated,
        }

    def to_dot(self) -> str:
        lines = ["digraph reach {"]
        for nid in sorted(self.nodes):
            shape = "doubleoctagon" if nid in self.seeds else "ellipse"
            lines.append(f'  "{nid}" [label="{nid[:8]}" shape={shape}];')
        for u, v, lab, _ in sorted(self.edges):
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

    Every channel is Choi-certified before exploration; node identity is
    exact state equality (digest keyed, equality confirmed).
    """
    if not channels:
        raise ValueError("need at least one channel")
    if not seeds:
        raise ValueError("need at least one seed state")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    dim = channels[0].dim
    for ch in channels:
        if ch.dim != dim:
            raise ShapeError("all channels must act on the same dimension")
        certify_cptp(ch)
    for s in seeds:
        if s.dim != dim:
            raise ShapeError("seed dimension does not match the channels")

    nodes: Dict[str, ExactDensityMatrix] = {}
    seed_ids = []
    frontier = []
    for s in seeds:
        nid = s.digest()
        seed_ids.append(nid)
        if nid not in nodes:
            nodes[nid] = s
            frontier.append((nid, s))
    edges = []
    edge_seen = set()
    truncated = False
    for _ in range(max_depth):
        if truncated or not frontier:
            break
        next_frontier = []
        for nid, state in frontier:
            if truncated:
                break
            for ch in channels:
                label = ch.label
                out = ExactDensityMatrix(ch.apply_to_matrix(state.mat))
                oid = out.digest()
                existing = nodes.get(oid)
                if existing is not None:
                    if existing.mat != out.mat:
                        raise RuntimeError("digest collision between distinct states")
                else:
                    if len(nodes) >= node_budget:
                        truncated = True
                        break
                    nodes[oid] = out
                    next_frontier.append((oid, out))
                key = (nid, oid, label)
                if key not in edge_seen:
                    edge_seen.add(key)
                    edges.append((nid, oid, label, Fraction(1)))
        frontier = next_frontier
    return ReachGraph(
        nodes=dict(nodes),
        edges=tuple(edges),
        seeds=tuple(dict.fromkeys(seed_ids)),
        depth_bound=max_depth,
        truncated=truncated,
    )


REACHABLE = "reachable"
NOT_REACHABLE = "not_reachable_within_bound"


@dataclass(frozen=True, slots=True)
class ReachOutcome:
    status: str
    path: Optional[Tuple[str, ...]]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "path": list(self.path) if self.path is not None else None,
        }


def _resolve_node(g: ReachGraph, state_or_id) -> Optional[str]:
    nid = state_or_id if isinstance(state_or_id, str) else state_or_id.digest()
    return nid if nid in g.nodes else None


def reach(g: ReachGraph, source, target) -> ReachOutcome:
    """Shortest generator word from source to target inside the graph.

    The negative answer is bound-relative: a target outside the explored
    closure is reported as not reachable within the bound, never as
    unreachable outright.
    """
    src = _resolve_node(g, source)
    if src is None:
        raise UnknownStateError("source state is not a node of the graph")
    dst = _resolve_node(g, target)
    if dst is None:
        return ReachOutcome(NOT_REACHABLE, None)
    if src == dst:
        return ReachOutcome(REACHABLE, ())
    adj = g.adjacency()
    parents = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for lab, v in adj[u]:
                if v in parents:
                    continue
                parents[v] = (u, lab)
                if v == dst:
                    path = []
                    node = v
                    while parents[node] is not None:
                        node, lab2 = parents[node]
                        path.append(lab2)
                    return ReachOutcome(REACHABLE, tuple(reversed(path)))
                nxt.append(v)
        frontier = nxt
    return ReachOutcome(NOT_REACHABLE, None)


def _tarjan_scc(nodes: Sequence[str], adj: Dict[str, List[str]]) -> List[List[str]]:
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    onstack = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


@dataclass(frozen=True, slots=True)
class QuotientDAG:
    """Strongly-connected components of a reach graph; acyclic by collapse."""

    classes: Tuple[Tuple[str, ...], ...]
    class_of: Dict[str, int]
    edges: Tuple[Tuple[int, int, Fraction], ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    def representative(self, idx: int) -> str:
        return self.classes[idx][0]

    def topological_order(self) -> List[int]:
        """Deterministic Kahn order; raises ValueError on a cycle."""
        indeg = [0] * self.size
        out: List[List[int]] = [[] for _ in range(self.size)]
        for u, v, _ in self.edges:
            out[u].append(v)
            indeg[v] += 1
        ready = sorted(i for i in range(self.size) if indeg[i] == 0)
        order = []
        while ready:
            u = ready.pop(0)
            order.append(u)
            fresh = []
            for v in out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    fresh.append(v)
            ready = sorted(ready + fresh)
        if len(order) != self.size:
            raise ValueError("quotient graph contains a cycle")
        return order

    def to_json_dict(self) -> dict:
        return {
            "classes": {
                self.representative(i): list(members)
                for i, members in enumerate(self.classes)
            },
            "edges": [
                [self.representative(u), self.representative(v), rat_to_str(ln)]
                for u, v, ln in self.edges
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
        for u, v, _ in self.edges:
            lines.append(
                f'  "{self.representative(u)}" -> "{self.representative(v)}"'
                f" [ltail=cluster_{u} lhead=cluster_{v}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def quotient(g: ReachGraph) -> QuotientDAG:
    """Collapse mutually reachable nodes; two nodes share a class exactly
    when each is reachable from the other."""
    nodes = sorted(g.nodes)
    adj: Dict[str, List[str]] = {n: [] for n in nodes}
    for u, v, _, _ in g.edges:
        adj[u].append(v)
    for n in adj:
        adj[n] = sorted(set(adj[n]))
    sccs = [sorted(c) for c in _tarjan_scc(nodes, adj)]
    sccs.sort(key=lambda c: c[0])
    class_of = {}
    for i, comp in enumerate(sccs):
        for n in comp:
            class_of[n] = i
    lengths: Dict[Tuple[int, int], Fraction] = {}
    for u, v, _, ln in g.edges:
        cu, cv = class_of[u], class_of[v]
        if cu == cv:
            continue
        prev = lengths.get((cu, cv))
        if prev is None or ln > prev:
            lengths[(cu, cv)] = ln
    q = QuotientDAG(
        classes=tuple(tuple(c) for c in sccs),
        class_of=class_of,
        edges=tuple((u, v, lengths[(u, v)]) for u, v in sorted(lengths)),
    )
    q.topological_order()  # collapse guarantees acyclicity; fail loudly if not
    return q


UNREACHABLE_VALUE = Fraction(2)


@dataclass(frozen=True, slots=True)
class MonotoneTable:
    """Values of the base class's monotone on every quotient class."""

    base: int
    values: Dict[int, Fraction]

    def to_json_dict(self, q: QuotientDAG) -> dict:
        return {
            "base": q.representative(self.base),
            "values": {
                q.representative(c): rat_to_str(v)
                for c, v in sorted(self.values.items())
            },
        }


def monotone(q: QuotientDAG, base: int) -> MonotoneTable:
    """Longest-path monotone: 1/(l+1) on classes at longest distance l from
    the base, 2 on classes the base cannot reach."""
    order = q.topological_order()
    out: List[List[Tuple[int, Fraction]]] = [[] for _ in range(q.size)]
    for u, v, ln in q.edges:
        out[u].append((v, ln))
    dist: Dict[int, Fraction] = {base: Fraction(0)}
    for u in order:
        du = dist.get(u)
        if du is None:
            continue
        for v, ln in out[u]:
            cand = du + ln
            if v not in dist or cand > dist[v]:
                dist[v] = cand
    values = {}
    for c in range(q.size):
        if c in dist:
            values[c] = Fraction(1) / (dist[c] + 1)
        else:
            values[c] = UNREACHABLE_VALUE
    return MonotoneTable(base=base, values=values)


@dataclass(frozen=True, slots=True)
class MonotoneFamily:
    """One table per class of the quotient: the overcomplete family."""

    quotient: QuotientDAG
    tables: Tuple[MonotoneTable, ...]

    def to_json_dict(self) -> dict:
        return {
            "tables": [t.to_json_dict(self.quotient) for t in self.tables]
        }


def monotone_family(q: QuotientDAG) -> MonotoneFamily:
    return MonotoneFamily(
        quotient=q, tables=tuple(monotone(q, c) for c in range(q.size))
    )


@dataclass(frozen=True, slots=True)
class CheckResult:
    ok: bool
    counterexample: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def check_compatible(g: ReachGraph, family: MonotoneFamily) -> CheckResult:
    """Every table must be non-increasing along every edge of the graph."""
    class_of = family.quotient.class_of
    for u, v, lab, _ in g.edges:
        cu = class_of[u]
        cv = class_of[v]
        for table in family.tables:
            if table.values[cv] > table.values[cu]:
                return CheckResult(
                    False,
                    {
                        "edge": [u, v, lab],
                        "base": family.quotient.representative(table.base),
                        "value_from": rat_to_str(table.values[cu]),
                        "value_to": rat_to_str(table.values[cv]),
                    },
                )
    return CheckResult(True)


def _closure_bitsets(q: QuotientDAG) -> List[int]:
    """Reflexive-transitive closure over the class DAG, matrix style."""
    n = q.size
    reach_bits = [1 << i for i in range(n)]
    for u, v, _ in q.edges:
        reach_bits[u] |= 1 << v
    for k in range(n):
        mask = 1 << k
        row_k = reach_bits[k]
        for i in range(n):
            if reach_bits[i] & mask:
                reach_bits[i] |= row_k
    return reach_bits


def check_complete(g: ReachGraph, family: MonotoneFamily) -> CheckResult:
    """Dominance in every table must coincide with reachability, where
    reachability comes from an independent transitive-closure oracle."""
    q = family.quotient
    closure = _closure_bitsets(q)
    by_base = {t.base: t for t in family.tables}
    tables = family.tables
    for r in range(q.size):
        own = by_base.get(r)
        for s in range(q.size):
            dominated = True
            if own is not None and own.values[s] > own.values[r]:
                dominated = False
            else:
                for t in tables:
                    if t.values[s] > t.values[r]:
                        dominated = False
                        break
            reachable = bool(closure[r] & (1 << s))
            if dominated != reachable:
                return CheckResult(
                    False,
                    {
                        "from": q.representative(r),
                        "to": q.representative(s),
                        "dominated": dominated,
                        "reachable": reachable,
                    },
                )
    return CheckResult(True)


def generic_seed(dim: int = 4) -> ExactDensityMatrix:
    """State with distinct eigenvalues in a deliberately skew eigenbasis.

    Only unitaries commuting with it fix it, and its eigenbasis is mixed
    across all coordinates, so neither basis states (fixed by diagonal
    rotations) nor diagonal states (fixed by diagonal block products) can
    fake reachability of its depolarised image: that reachability then
    mirrors scalar-word membership on the explored bound.
    """
    total = dim * (dim + 1) // 2
    diag = ExactMatrix.diagonal([Fraction(dim - i, total) for i in range(dim)])
    triples = [
        (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(5, 13), Fraction(12, 13)),
        (Fraction(8, 17), Fraction(15, 17)),
    ]
    units = [GaussianRational(Fraction(1)), GaussianRational(Fraction(0), Fraction(1))]
    mixer = ExactMatrix.diagonal([units[i % 2] for i in range(dim)])
    for k in range(dim - 1):
        c, s = triples[k % 3]
        rows = [
            [
                GaussianRational(Fraction(1 if i == j else 0))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        rows[k][k] = GaussianRational(c)
        rows[k + 1][k + 1] = GaussianRational(c)
        if k % 2:
            rows[k][k + 1] = GaussianRational(Fraction(0), s)
            rows[k + 1][k] = GaussianRational(Fraction(0), s)
        else:
            rows[k][k + 1] = GaussianRational(s)
            rows[k + 1][k] = GaussianRational(-s)
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
