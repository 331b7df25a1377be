"""Exploration, quotienting, and the longest-path monotone family."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from corpus import (
    DEFAULT_PAIR,
    check_compatible_pairwise,
    check_complete_pairwise,
    mutual_reachability_classes,
    random_digraph,
    random_graphs,
)
from oracles import (
    KrausChannel,
    coordinates,
    gr,
    mat_add,
    quaternion_matrix,
    reference_choi,
    reference_explore,
    reference_reach,
)
from freeops import cli, resourcegraph
from freeops.exact import ExactDensityMatrix, ExactMatrix
from freeops.freerot import make_free_pair, q_adjoint, q_mul
from freeops.pcp import parse_instance
from freeops.reduction import ChannelElement, compile_generators, make_target
from freeops.resourcegraph import (
    NOT_REACHABLE,
    REACHABLE,
    MonotoneFamily,
    MonotoneTable,
    NotCPTPError,
    QuotientDAG,
    ReachGraph,
    ReachOutcome,
    UnknownStateError,
    _closure_bitsets,
    check_compatible,
    check_complete,
    certify_cptp,
    choi,
    demo_graph,
    explore,
    generic_seed,
    monotone_family,
    quotient,
    reach,
)

PAIR = DEFAULT_PAIR
HALF = Fraction(1, 2)
CLASSIC3 = "1|101\n10|00\n011|11\n"

X2 = KrausChannel(
    (ExactMatrix.from_rows([[gr(0), gr(1)], [gr(1), gr(0)]]),), "X"
)
ID2 = KrausChannel((ExactMatrix.identity(2),), "id")


def _kraus(*rows_list):
    return tuple(ExactMatrix.from_rows(rows) for rows in rows_list)


# A 3-4-5 rotation with imaginary off-diagonal entries, and amplitude
# damping with Kraus operators diag(1, 3/5) and 4/5 |0><1|.
ROTATION2 = KrausChannel(
    _kraus([[gr("3/5"), gr(0, "4/5")], [gr(0, "4/5"), gr("3/5")]]), "R"
)
DAMP2 = KrausChannel(
    _kraus([[gr(1), gr(0)], [gr(0), gr("3/5")]], [[gr(0), gr("4/5")], [gr(0), gr(0)]]), "A"
)
Y_AXIS_PAIR = make_free_pair(cli._rotation_params(
    SimpleNamespace(cos="5/13", sin="12/13", axis_a="0,1,0", axis_b="0,0,1")
))


def classic3(pair=PAIR, damping=HALF):
    return compile_generators(parse_instance(CLASSIC3), pair, damping).channels()


def kahn_is_acyclic(q: QuotientDAG) -> bool:
    """Independent cycle check (plain Kahn peeling)."""
    indeg = {i: 0 for i in range(q.size)}
    out = {i: [] for i in range(q.size)}
    for u, v in q.edges:
        out[u].append(v)
        indeg[v] += 1
    queue = [i for i in indeg if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == q.size


# --- exploration ----------------------------------------------------------------


def test_explore_identity_channel_self_loop():
    seed = ExactDensityMatrix.basis_state(2, 0)
    g = explore([ID2], [seed], 3).named()
    assert len(g.nodes) == 1
    nid = seed.mat.digest()
    assert g.edges == ((nid, nid, "id"),)


def test_explore_bit_flip_two_cycle():
    zero = ExactDensityMatrix.basis_state(2, 0)
    one = ExactDensityMatrix.basis_state(2, 1)
    g = explore([X2], [zero], 4).named()
    assert set(g.nodes) == {zero.mat.digest(), one.mat.digest()}
    assert (zero.mat.digest(), one.mat.digest(), "X") in g.edges
    assert (one.mat.digest(), zero.mat.digest(), "X") in g.edges


def test_explore_reaches_target_state():
    gens = compile_generators(parse_instance("0|0"), PAIR, HALF)
    rho = ExactDensityMatrix.basis_state(4, 0)
    g = explore(gens.channels(), [rho], 2).named()
    psi = make_target(Fraction(1, 4)).apply(rho)
    assert psi.mat.digest() in g.nodes


def test_explore_rejects_non_cptp():
    lossy = KrausChannel(
        (ExactMatrix.diagonal([gr(1), gr(0)]),), "lossy"
    )
    seed = ExactDensityMatrix.basis_state(2, 0)
    with pytest.raises(NotCPTPError, match="channel lossy: map is not trace preserving") as err:
        explore([lossy], [seed], 1)
    assert err.value.choi_matrix == reference_choi(lossy)


def test_explore_rejects_a_repeated_label():
    """A reach path is a word of labels, so no two channels share one."""
    seed = ExactDensityMatrix.basis_state(2, 0)
    with pytest.raises(ValueError, match="channel labels must be distinct"):
        explore([ID2, KrausChannel(X2.ops, "id")], [seed], 1)


class Transpose:
    """m -> m^T: positive and trace preserving, but not completely positive.
    (A Kraus list is completely positive whatever its operators, so this
    map cannot be one.)"""

    dim = 2
    label = "transpose"

    def apply_to_matrix(self, m):
        return ExactMatrix(2, 2, [m.entry(c, r) for r in range(2) for c in range(2)])


def test_explore_rejects_non_positive():
    seed = ExactDensityMatrix.maximally_mixed(2)
    with pytest.raises(NotCPTPError, match="not positive semidefinite") as err:
        explore([Transpose()], [seed], 1)
    assert err.value.label == "transpose"
    assert err.value.choi_matrix == reference_choi(Transpose())


class LeftMultiply:
    """m -> K m for K = |0><1|: linear, but its Choi operator is not Hermitian."""

    dim = 2
    label = "left"
    K = ExactMatrix.from_rows([[gr(0), gr(1)], [gr(0), gr(0)]])

    def apply_to_matrix(self, m):
        return self.K @ m


def test_explore_rejects_non_hermitian():
    seed = ExactDensityMatrix.maximally_mixed(2)
    with pytest.raises(NotCPTPError, match="channel left: Choi operator is not Hermitian") as err:
        explore([LeftMultiply()], [seed], 1)
    assert err.value.choi_matrix == reference_choi(LeftMultiply())


@pytest.mark.parametrize("channel", [ID2, X2, ROTATION2, DAMP2], ids=lambda ch: ch.label)
def test_choi_of_kraus_channels_equals_reference(channel):
    assert choi(channel) == reference_choi(channel)


def test_certify_accepts_unitary_kraus():
    j = certify_cptp(X2)
    assert j.is_psd()


def test_explore_budget_truncation():
    gens = compile_generators(parse_instance("01|0\n1|11"), PAIR, HALF)
    seed = ExactDensityMatrix.basis_state(4, 2)
    g = explore(gens.channels(), [seed], 4, node_budget=5)
    assert g.truncated
    # 4 expansions complete level 1 with 4 new states, and the fifth, kept
    # from level 2, finds one more
    assert len(g.edges) == 5
    assert len(g.nodes) == 6


def test_explore_worker_counts_agree():
    # exploration is single-threaded; repeat runs must agree exactly
    gens = compile_generators(parse_instance("0|0"), PAIR, HALF)
    seed = ExactDensityMatrix.basis_state(4, 2)
    runs = [explore(gens.channels(), [seed], 3) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def reach_classic3(tmp_path, *extra):
    """Run `reach --depth 3 --from spread --to target:1/4` over classic3
    with the extra options; returns the report's graph_nodes."""
    path = tmp_path / "classic3.pcp"
    path.write_text(CLASSIC3)
    out = tmp_path / "r.json"
    argv = ["reach", "--instance", str(path), "--depth", "3", "--from", "spread",
            "--to", "target:1/4", "--out", str(out), *extra]
    assert cli.main(argv) == 10
    return json.loads(out.read_text())["outcome"]["graph_nodes"]


def recording(log, check):
    def wrapped(*args):
        log(args[-1])
        return check(*args)

    return wrapped


def test_explore_validates_each_new_state_once(tmp_path, monkeypatch):
    """On `reach --depth 3` over classic3, is_psd runs only on the source,
    the target and each channel's Choi operator: a child is a density matrix
    because its channel is certified.  A child is J applied to a Hermitian
    key, so it is Hermitian by construction: the Hermitian test runs on the
    Choi operators (certification and the map reader) and on no explored
    state.  Each new state's key goes once through the key-level unit-trace
    check; a child whose state is already known is not checked again, and
    the matrix-level check runs only on the source and the target."""
    psd, trace_checked, key_checked, hermitian = [], [], [], []
    monkeypatch.setattr(ExactMatrix, "is_psd", recording(psd.append, ExactMatrix.is_psd))
    monkeypatch.setattr(
        ExactMatrix, "has_unit_trace", recording(trace_checked.append, ExactMatrix.has_unit_trace)
    )
    monkeypatch.setattr(
        resourcegraph, "key_has_unit_trace",
        recording(key_checked.append, resourcegraph.key_has_unit_trace),
    )
    monkeypatch.setattr(
        ExactMatrix, "is_hermitian", recording(hermitian.append, ExactMatrix.is_hermitian)
    )
    nodes = reach_classic3(tmp_path)
    assert [m.rows for m in psd] == [4, 4] + [16] * 6  # source, target, one Choi per channel
    source, target = psd[:2]
    assert trace_checked == [source, target]
    assert len(key_checked) == nodes - 1 == 2 * (3 + 9 + 27)  # unitary and reset-ended words
    assert len(set(key_checked)) == len(key_checked)
    assert {m for m in hermitian if m.rows == 16} == set(psd[2:])
    assert {m for m in hermitian if m.rows == 4} == {source, target}


@pytest.mark.parametrize("dot", [False, True], ids=["no-dot", "dot"])
def test_reach_spells_digests_only_for_dot(tmp_path, monkeypatch, dot):
    """reach finds its source and target by Hermitian key and computes no
    digest; --dot computes one per node of the report's graph."""
    digested = []
    monkeypatch.setattr(ExactMatrix, "digest", recording(digested.append, ExactMatrix.digest))
    nodes = reach_classic3(tmp_path, *(["--dot", str(tmp_path / "g.dot")] if dot else []))
    assert len(digested) == (nodes if dot else 0)
    assert len(set(digested)) == len(digested)


def test_explore_children_come_from_the_choi_operator(monkeypatch):
    """A faulty channel kernel that spares the matrix units, so that choi
    still reads the honest operator, no longer reaches the children."""
    seed = generic_seed(4)
    channels = classic3()
    honest = explore(channels, [seed], 2)
    apply_to_matrix = ChannelElement.apply_to_matrix

    def faulty(ch, m):
        out = apply_to_matrix(ch, m)
        return mat_add(out, out) if m == seed.mat else out

    monkeypatch.setattr(ChannelElement, "apply_to_matrix", faulty)
    assert explore(channels, [seed], 2) == honest


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda j: j.scale(2), "not Hermitian of unit trace"),  # Hermitian, PSD, trace 2
        (lambda j: mat_add(j, ExactMatrix(16, 16, [int(k == 1) for k in range(256)])),
         "Choi operator is not Hermitian"),
    ],
    ids=["trace-2", "not-hermitian"],
)
def test_explore_rejects_a_child_that_is_not_a_state(monkeypatch, corrupt, message):
    """A certificate that does not describe a channel is caught: by the
    unit-trace check on the first new state, or by the map reader."""
    certify = resourcegraph.certify_cptp
    monkeypatch.setattr(resourcegraph, "certify_cptp", lambda ch: corrupt(certify(ch)))
    with pytest.raises(ValueError, match=message):
        explore(classic3(), [generic_seed(4)], 1)


SEEDS = {
    "spread": lambda: generic_seed(4),
    "basis:0": lambda: ExactDensityMatrix.basis_state(4, 0),
    "maxmixed": lambda: ExactDensityMatrix.maximally_mixed(4),
}
EXPLORE_CASES = {
    **{f"classic3-{name}-depth4": (classic3, [seed], 4) for name, seed in SEEDS.items()},
    "classic3-y-axis-damping-2-3-depth3": (
        lambda: classic3(Y_AXIS_PAIR, Fraction(2, 3)), [SEEDS["spread"]], 3
    ),
    "classic3-two-seeds-depth2": (
        classic3, [SEEDS["basis:0"], SEEDS["spread"], SEEDS["basis:0"]], 2
    ),
    "kraus-id": (lambda: [ID2], [lambda: ExactDensityMatrix.basis_state(2, 0)], 3),
    "kraus-bit-flip": (lambda: [X2], [lambda: ExactDensityMatrix.basis_state(2, 0)], 4),
    "kraus-rotation-damping": (
        lambda: [X2, ROTATION2, DAMP2], [lambda: ExactDensityMatrix.maximally_mixed(2)], 5
    ),
}


@pytest.mark.parametrize("case", EXPLORE_CASES)
def test_explore_equals_reference(case):
    """The columnar exploration gives the child-by-child one's graph: the
    same nodes, the same edges in the same order, seeds and truncation."""
    channels, seeds, depth = EXPLORE_CASES[case]
    channels, seeds = channels(), [s() for s in seeds]
    g = explore(channels, seeds, depth).named()
    assert g == reference_explore(channels, seeds, depth)


def test_explore_equals_reference_at_every_budget():
    """Budgets 0 to 43 on classic3 at depth 3 (6 + 36 expansions fill two
    levels), so the cuts fall inside a parent's six children too."""
    channels, seeds = classic3(), [generic_seed(4)]
    for budget in range(44):
        g = explore(channels, seeds, 3, node_budget=budget).named()
        assert g == reference_explore(channels, seeds, 3, node_budget=budget), budget
        assert len(g.edges) == budget and g.truncated


# --- reach queries -----------------------------------------------------------------


@pytest.mark.parametrize("case", EXPLORE_CASES)
def test_reach_equals_reference(case):
    """reach gives the parent walk's answer from each seed to every node,
    each target built from its key: the same shortest word, ties broken by
    discovery order and then by label."""
    channels, seeds, depth = EXPLORE_CASES[case]
    channels, seeds = channels(), [s() for s in seeds]
    g = explore(channels, seeds, depth)
    for key in g.index:
        target = ExactDensityMatrix(ExactMatrix.from_hermitian_key(key))
        for source in seeds:
            assert reach(g, source, target) == reference_reach(g, source, target)


def test_reach_same_state_empty_path():
    seed = ExactDensityMatrix.basis_state(2, 0)
    g = explore([X2], [seed], 2)
    out = reach(g, seed, seed)
    assert out.status == REACHABLE
    assert out.path == ()


def test_reach_across_two_cycle():
    zero = ExactDensityMatrix.basis_state(2, 0)
    one = ExactDensityMatrix.basis_state(2, 1)
    g = explore([X2], [zero], 2)
    out = reach(g, zero, one)
    assert out.status == REACHABLE
    assert out.path == ("X",)


def test_reach_target_unreachable_when_unsolvable():
    gens = compile_generators(parse_instance("0|1"), PAIR, HALF)
    rho = generic_seed(4)
    for depth in (2, 4):
        g = explore(gens.channels(), [rho], depth)
        for d in range(1, depth + 1):
            psi = make_target(HALF ** d).apply(rho)
            out = reach(g, rho, psi)
            assert out.status == NOT_REACHABLE
            assert out.path is None


def test_degenerate_seed_breaks_the_correspondence():
    # "0|1" has no solution, yet a pure seed on h = a^dag b, which
    # M_1: x -> a x b^dag maps to 1, reaches the target's state by E1 alone
    # at depth 1: reachability from a chosen source is not membership.  From
    # basis:0 = |1> it is (see generic_seed for the full-rank seed).
    gens = compile_generators(parse_instance("0|1"), PAIR, HALF)
    h = coordinates(quaternion_matrix(q_mul(q_adjoint(PAIR.a), PAIR.b)))
    col = ExactMatrix(4, 1, list(h))
    rho = ExactDensityMatrix(col @ col.dagger())
    g = explore(gens.channels(), [rho], 1)
    psi = make_target(HALF).apply(rho)
    assert reach(g, rho, psi) == ReachOutcome(REACHABLE, ("E1",))
    basis = ExactDensityMatrix.basis_state(4, 0)
    g = explore(gens.channels(), [basis], 1)
    assert reach(g, basis, make_target(HALF).apply(basis)).status == NOT_REACHABLE


def test_reach_unknown_source_raises():
    seed = ExactDensityMatrix.basis_state(2, 0)
    g = explore([X2], [seed], 1)
    with pytest.raises(UnknownStateError):
        reach(g, ExactDensityMatrix.maximally_mixed(2), seed)


# --- quotient ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "nodes,seeds", [(["a", "a", "b"], ()), (["a", "b"], ("zz",))],
    ids=["duplicate-node", "seed-not-a-node"],
)
def test_synthetic_graph_rejects_bad_nodes(nodes, seeds):
    with pytest.raises(ValueError, match="node ids must be distinct and include every seed"):
        ReachGraph.synthetic(nodes, [("a", "b", "x")], seeds=seeds)


def test_quotient_two_cycle_single_class():
    g = ReachGraph.synthetic(["u", "v"], [("u", "v", "f"), ("v", "u", "g")])
    q = quotient(g)
    assert q.size == 1
    assert q.classes[0] == ("u", "v")
    assert q.edges == ()


def test_quotient_dag_identity_partition():
    g = ReachGraph.synthetic(
        ["x", "y", "z"], [("x", "y", "a"), ("y", "z", "b")]
    )
    q = quotient(g)
    assert q.size == 3
    assert all(len(c) == 1 for c in q.classes)


def test_quotient_demo_graph():
    q = quotient(demo_graph())
    assert q.size == 9
    cycle_class = q.classes[q.class_of["g1"]]
    assert cycle_class == ("g1", "g2")
    assert kahn_is_acyclic(q)


def test_quotient_matches_mutual_reachability_oracle():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(3, 30)
        g = random_digraph(rng, n, rng.randint(n, 3 * n))
        q = quotient(g)
        assert sorted(q.classes) == sorted(mutual_reachability_classes(g))
        assert kahn_is_acyclic(q)
        pos = {c: i for i, c in enumerate(q.order)}
        assert sorted(q.order) == list(range(q.size))
        assert all(pos[u] < pos[v] for u, v in q.edges)


# --- monotones ---------------------------------------------------------------------------


def test_monotone_demo_values():
    q = quotient(demo_graph())
    table = monotone_family(q).tables[q.class_of["rho"]]
    assert table.value(q.class_of["rho"]) == 1
    assert table.value(q.class_of["sigma"]) == Fraction(1, 7)
    assert table.value(q.class_of["g1"]) == Fraction(1, 8)
    assert table.value(q.class_of["omega"]) == 2
    assert table.value(q.class_of["a"]) == Fraction(1, 2)


def test_quotient_dag_rejects_an_order_that_is_not_topological():
    classes, class_of = (("u",), ("v",)), {"u": 0, "v": 1}
    with pytest.raises(ValueError, match="cycle"):
        QuotientDAG(classes, class_of, edges=((0, 1), (1, 0)), order=(0, 1))
    assert QuotientDAG(classes, class_of, edges=((0, 1),), order=(0, 1)).order == (0, 1)
    for order in ((1, 0), (0, 0), (0,), (0, 1, 2)):
        with pytest.raises(ValueError):
            QuotientDAG(classes, class_of, edges=((0, 1),), order=order)


def test_monotone_table_json():
    q = quotient(demo_graph())
    table = monotone_family(q).tables[q.class_of["rho"]]
    reps = tuple(q.representative(c) for c in range(q.size))
    data = table.to_json_dict(reps)
    assert data["base"] == "rho"
    values = data["values"]
    assert list(values) == list(reps)
    assert values["sigma"] == "1/7"
    assert values["omega"] == "2"


def test_family_compatible_and_complete_on_demo():
    g = demo_graph()
    q = quotient(g)
    family = monotone_family(q)
    assert check_compatible(g, family).ok
    assert check_complete(family).ok


def test_compatibility_catches_injected_violation():
    g = demo_graph()
    q = quotient(g)
    family = monotone_family(q)
    base = q.class_of["rho"]
    table = next(t for t in family.tables if t.base == base)
    bumped = list(table.dist)
    bumped[q.class_of["a"]] = -1  # value 2, above the base value 1 along rho->a
    tampered = MonotoneFamily(
        quotient=q,
        tables=tuple(
            MonotoneTable(base, tuple(bumped)) if t.base == base else t
            for t in family.tables
        ),
    )
    result = check_compatible(g, tampered)
    assert not result.ok
    assert result.counterexample["edge"] == ["rho", "a", "s1"]


def test_completeness_needs_every_base():
    g = ReachGraph.synthetic(
        ["root", "a", "b"], [("root", "a", "l"), ("root", "b", "r")]
    )
    q = quotient(g)
    family = monotone_family(q)
    assert check_complete(family).ok
    dropped = MonotoneFamily(
        quotient=q,
        tables=tuple(t for t in family.tables if t.base != q.class_of["a"]),
    )
    result = check_complete(dropped)
    assert not result.ok
    assert result.counterexample["dominated"] is True
    assert result.counterexample["reachable"] is False


def test_single_node_graph_vacuous_checks():
    g = ReachGraph.synthetic(["only"], [])
    q = quotient(g)
    family = monotone_family(q)
    assert check_compatible(g, family).ok
    assert check_complete(family).ok


def test_monotone_values_strictly_decrease_in_reachable_region():
    rng = random.Random(808)
    graphs = [demo_graph()] + [
        random_digraph(rng, rng.randint(4, 20), rng.randint(6, 40))
        for _ in range(8)
    ]
    for g in graphs:
        q = quotient(g)
        for table in monotone_family(q).tables:
            assert table.value(table.base) == 1
            for c in range(q.size):
                assert table.value(c) == 2 or 0 < table.value(c) <= 1
            for u, v in q.edges:
                if table.value(u) != 2:
                    assert table.value(v) < table.value(u)


def test_family_checks_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(10):
        n = rng.randint(3, 25)
        g = random_digraph(rng, n, rng.randint(n // 2, 3 * n))
        q = quotient(g)
        family = monotone_family(q)
        assert check_compatible(g, family).ok
        assert check_complete(family).ok


def test_family_checks_on_explored_graph():
    gens = compile_generators(parse_instance("0|0"), PAIR, HALF)
    seed = ExactDensityMatrix.basis_state(4, 2)
    g = explore(gens.channels(), [seed], 4)
    q = quotient(g)
    family = monotone_family(q)
    assert check_compatible(g, family).ok
    assert check_complete(family).ok
    base = q.class_of[seed.mat.digest()]
    table = monotone_family(q).tables[base]
    assert table.value(base) == 1



def test_closure_bitsets_match_bfs():
    """The completeness oracle's rows against plain BFS over the class edges,
    on the random quotients of the longest-path check and on classic3's."""
    gens = compile_generators(parse_instance("1|101\n10|00\n011|11\n"), PAIR, HALF)
    graphs = random_graphs(2105, 60)
    graphs.append(explore(gens.channels(), [generic_seed(4)], 4))
    for g in graphs:
        q = quotient(g)
        out = {c: [] for c in range(q.size)}
        for u, v in q.edges:
            out[u].append(v)
        rows = _closure_bitsets(q)
        assert len(rows) == q.size
        for r in range(q.size):
            seen = {r}
            frontier = [r]
            while frontier:
                frontier = [v for u in frontier for v in out[u] if v not in seen]
                seen.update(frontier)
            assert rows[r] == sum(1 << s for s in seen)
    assert q.size > 100 and len(q.edges) > q.size


def family_variants(rng, family):
    """The family intact, with one table dropped, and with one distance
    moved by one (never below -1)."""
    q, tables = family.quotient, family.tables
    yield family
    drop = rng.randrange(len(tables))
    yield MonotoneFamily(q, tables[:drop] + tables[drop + 1 :])
    i = rng.randrange(len(tables))
    c = rng.randrange(q.size)
    dist = list(tables[i].dist)
    dist[c] = dist[c] + 1 if dist[c] < 0 or rng.random() < 0.5 else dist[c] - 1
    bumped = MonotoneTable(tables[i].base, tuple(dist))
    yield MonotoneFamily(q, tables[:i] + (bumped,) + tables[i + 1 :])


def test_check_complete_matches_pairwise_oracle():
    rng = random.Random(4242)
    gens = compile_generators(parse_instance("1|101\n10|00\n011|11\n"), PAIR, HALF)
    graphs = [explore(gens.channels(), [ExactDensityMatrix.basis_state(4, 0)], 3)]
    for _ in range(64):
        n = rng.randint(1, 12)
        graphs.append(random_digraph(rng, n, rng.randint(0, min(n * n, 3 * n))))
    oks = set()
    for g in graphs:
        for _ in range(3):
            for family in family_variants(rng, monotone_family(quotient(g))):
                want = check_complete_pairwise(family)
                assert check_complete(family) == want
                oks.add(want.ok)
    assert oks == {True, False}


def test_check_compatible_matches_pairwise_oracle():
    rng = random.Random(2424)
    gens = compile_generators(parse_instance("1|101\n10|00\n011|11\n"), PAIR, HALF)
    graphs = [explore(gens.channels(), [ExactDensityMatrix.basis_state(4, 0)], 3).named()]
    for _ in range(64):
        n = rng.randint(1, 12)
        graphs.append(random_digraph(rng, n, rng.randint(0, min(n * n, 3 * n))))
    oks = set()
    for g in graphs:
        # The reversed graph has the same classes, in the same order, and its
        # tables break every edge between two classes of g.
        rev = ReachGraph.synthetic(g.nodes, [(v, u, lab) for u, v, lab in g.edges])
        q = quotient(g)
        assert quotient(rev).classes == q.classes
        reversed_family = MonotoneFamily(q, monotone_family(quotient(rev)).tables)
        assert check_compatible(g, reversed_family) == check_compatible_pairwise(g, reversed_family)
        for _ in range(3):
            for family in family_variants(rng, monotone_family(q)):
                want = check_compatible_pairwise(g, family)
                assert check_compatible(g, family) == want
                oks.add(want.ok)
    assert oks == {True, False}


# --- exports -------------------------------------------------------------------------------


def test_graph_exports_are_deterministic():
    g = demo_graph()
    again = demo_graph()
    assert (g.nodes, g.edges, g.seeds) == (again.nodes, again.edges, again.seeds)
    dot = g.to_dot()
    assert dot.startswith("digraph reach {")
    assert '"rho" -> "a" [label="s1"];' in dot


def test_quotient_dot_contains_clusters():
    q = quotient(demo_graph())
    dot = q.to_dot()
    assert "subgraph cluster_" in dot
    assert dot.count("subgraph") == q.size
