"""Exploration, quotienting, and the longest-path monotone family."""

import random
from fractions import Fraction

import pytest

from corpus import mutual_reachability_classes, random_digraph
from freeops.exact import ExactDensityMatrix, ExactMatrix, gr
from freeops.freerot import make_free_pair, standard_params
from freeops.pcp import parse_instance
from freeops.reduction import compile_generators, make_target
from freeops.resourcegraph import (
    NOT_REACHABLE,
    REACHABLE,
    KrausChannel,
    MonotoneFamily,
    MonotoneTable,
    NotCPTPError,
    QuotientDAG,
    ReachGraph,
    UnknownStateError,
    check_compatible,
    check_complete,
    certify_cptp,
    demo_graph,
    explore,
    generic_seed,
    monotone,
    monotone_family,
    quotient,
    reach,
)

PAIR = make_free_pair(standard_params())
HALF = Fraction(1, 2)

X2 = KrausChannel(
    (ExactMatrix.from_rows([[gr(0), gr(1)], [gr(1), gr(0)]]),), "X"
)
ID2 = KrausChannel((ExactMatrix.identity(2),), "id")


def kahn_is_acyclic(q: QuotientDAG) -> bool:
    """Independent cycle check (plain Kahn peeling)."""
    indeg = {i: 0 for i in range(q.size)}
    out = {i: [] for i in range(q.size)}
    for u, v, _ in q.edges:
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
    g = explore([ID2], [seed], 3)
    assert len(g.nodes) == 1
    nid = seed.digest()
    assert g.edges == ((nid, nid, "id", Fraction(1)),)


def test_explore_bit_flip_two_cycle():
    zero = ExactDensityMatrix.basis_state(2, 0)
    one = ExactDensityMatrix.basis_state(2, 1)
    g = explore([X2], [zero], 4)
    assert set(g.nodes) == {zero.digest(), one.digest()}
    assert (zero.digest(), one.digest(), "X", Fraction(1)) in g.edges
    assert (one.digest(), zero.digest(), "X", Fraction(1)) in g.edges


def test_explore_reaches_target_state():
    gens = compile_generators(parse_instance("0|0"), PAIR, HALF)
    rho = ExactDensityMatrix.basis_state(4, 0)
    g = explore(gens.channels(), [rho], 2)
    psi = make_target(Fraction(1, 4)).apply(rho)
    assert psi.digest() in g.nodes


def test_explore_rejects_non_cptp():
    lossy = KrausChannel(
        (ExactMatrix.diagonal([gr(1), gr(0)]),), "lossy"
    )
    seed = ExactDensityMatrix.basis_state(2, 0)
    with pytest.raises(NotCPTPError) as err:
        explore([lossy], [seed], 1)
    assert err.value.choi_matrix.rows == 4


def test_explore_rejects_non_positive():
    # transpose map: trace preserving but not completely positive
    swap = KrausChannel(
        (
            ExactMatrix.from_rows([[gr(1), gr(0)], [gr(0), gr(0)]]),
            ExactMatrix.from_rows([[gr(0), gr(0)], [gr(0), gr(1)]]),
            ExactMatrix.from_rows(
                [[gr(0), gr(Fraction(1, 2))], [gr(Fraction(1, 2)), gr(0)]]
            ),
            ExactMatrix.from_rows(
                [[gr(0), gr(0, Fraction(1, 2))], [gr(0, -Fraction(1, 2)), gr(0)]]
            ),
        ),
        "transpose-ish",
    )
    seed = ExactDensityMatrix.maximally_mixed(2)
    with pytest.raises(NotCPTPError):
        explore([swap], [seed], 1)


def test_certify_accepts_unitary_kraus():
    j = certify_cptp(X2)
    assert j.is_psd()


def test_explore_budget_truncation():
    gens = compile_generators(parse_instance("01|0\n1|11"), PAIR, HALF)
    seed = ExactDensityMatrix.basis_state(4, 2)
    g = explore(gens.channels(), [seed], 4, node_budget=5)
    assert g.truncated
    assert len(g.nodes) <= 6


def test_explore_worker_counts_agree():
    # exploration is single-threaded; repeat runs must agree exactly
    gens = compile_generators(parse_instance("0|0"), PAIR, HALF)
    seed = ExactDensityMatrix.basis_state(4, 2)
    runs = [explore(gens.channels(), [seed], 3) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


# --- reach queries -----------------------------------------------------------------


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
    # A basis seed is fixed by the diagonal first-block rotation, so its
    # depolarised image is reached at depth 1 even without a tile solution;
    # this is exactly why reach demos use the spread seed above.
    gens = compile_generators(parse_instance("0|1"), PAIR, HALF)
    rho = ExactDensityMatrix.basis_state(4, 0)
    g = explore(gens.channels(), [rho], 1)
    psi = make_target(HALF).apply(rho)
    assert reach(g, rho, psi).status == REACHABLE


def test_reach_unknown_source_raises():
    seed = ExactDensityMatrix.basis_state(2, 0)
    g = explore([X2], [seed], 1)
    with pytest.raises(UnknownStateError):
        reach(g, ExactDensityMatrix.maximally_mixed(2), seed)


# --- quotient ------------------------------------------------------------------------


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


# --- monotones ---------------------------------------------------------------------------


def test_monotone_demo_values():
    q = quotient(demo_graph())
    table = monotone(q, q.class_of["rho"])
    assert table.values[q.class_of["rho"]] == 1
    assert table.values[q.class_of["sigma"]] == Fraction(1, 7)
    assert table.values[q.class_of["g1"]] == Fraction(1, 8)
    assert table.values[q.class_of["omega"]] == 2
    assert table.values[q.class_of["a"]] == Fraction(1, 2)


def test_monotone_rejects_cycles():
    bogus = QuotientDAG(
        classes=(("u",), ("v",)),
        class_of={"u": 0, "v": 1},
        edges=((0, 1, Fraction(1)), (1, 0, Fraction(1))),
    )
    with pytest.raises(ValueError):
        monotone(bogus, 0)


def test_monotone_table_json():
    q = quotient(demo_graph())
    table = monotone(q, q.class_of["rho"])
    data = table.to_json_dict(q)
    assert data["base"] == "rho"
    assert data["values"]["sigma"] == "1/7"
    assert data["values"]["omega"] == "2"


def test_family_compatible_and_complete_on_demo():
    g = demo_graph()
    q = quotient(g)
    family = monotone_family(q)
    assert check_compatible(g, family)
    assert check_complete(g, family)


def test_compatibility_catches_injected_violation():
    g = demo_graph()
    q = quotient(g)
    family = monotone_family(q)
    base = q.class_of["rho"]
    table = next(t for t in family.tables if t.base == base)
    bumped = dict(table.values)
    bumped[q.class_of["a"]] = Fraction(3)  # above the base value along rho->a
    tampered = MonotoneFamily(
        quotient=q,
        tables=tuple(
            MonotoneTable(base, bumped) if t.base == base else t
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
    assert check_complete(g, family)
    dropped = MonotoneFamily(
        quotient=q,
        tables=tuple(t for t in family.tables if t.base != q.class_of["a"]),
    )
    result = check_complete(g, dropped)
    assert not result.ok
    assert result.counterexample["dominated"] is True
    assert result.counterexample["reachable"] is False


def test_single_node_graph_vacuous_checks():
    g = ReachGraph.synthetic(["only"], [])
    q = quotient(g)
    family = monotone_family(q)
    assert check_compatible(g, family)
    assert check_complete(g, family)


def test_monotone_values_strictly_decrease_in_reachable_region():
    rng = random.Random(808)
    graphs = [demo_graph()] + [
        random_digraph(rng, rng.randint(4, 20), rng.randint(6, 40))
        for _ in range(8)
    ]
    for g in graphs:
        q = quotient(g)
        for table in monotone_family(q).tables:
            assert table.values[table.base] == 1
            for v in table.values.values():
                assert v == 2 or 0 < v <= 1
            for u, v, _ in q.edges:
                if table.values[u] != 2:
                    assert table.values[v] < table.values[u]


def test_family_checks_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(10):
        n = rng.randint(3, 25)
        g = random_digraph(rng, n, rng.randint(n // 2, 3 * n))
        q = quotient(g)
        family = monotone_family(q)
        assert check_compatible(g, family)
        assert check_complete(g, family)


def test_family_checks_on_explored_graph():
    gens = compile_generators(parse_instance("0|0"), PAIR, HALF)
    seed = ExactDensityMatrix.basis_state(4, 2)
    g = explore(gens.channels(), [seed], 4)
    q = quotient(g)
    family = monotone_family(q)
    assert check_compatible(g, family)
    assert check_complete(g, family)
    base = q.class_of[seed.digest()]
    table = monotone(q, base)
    assert table.values[base] == 1


# --- exports -------------------------------------------------------------------------------


def test_graph_exports_are_deterministic():
    g = demo_graph()
    assert g.to_json_dict() == demo_graph().to_json_dict()
    dot = g.to_dot()
    assert dot.startswith("digraph reach {")
    assert '"rho" -> "a" [label="s1"];' in dot


def test_quotient_dot_contains_clusters():
    q = quotient(demo_graph())
    dot = q.to_dot()
    assert "subgraph cluster_" in dot
    assert dot.count("subgraph") == q.size
