"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
comparisons are exact; the only tolerance anywhere is the wall-clock bound
in criterion 1.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from corpus import (
    CORPUS,
    DEFAULT_PAIR,
    SHORT_TILES,
    SOLVABLE,
    UNSOLVABLE,
    bfs_reachable,
    compose,
    enumerate_solutions,
    random_density,
    random_digraph,
)
from freeops import cli
from freeops.exact import ExactDensityMatrix, ExactMatrix
from freeops.freerot import freeness_scan
from freeops.pcp import FOUND as PCP_FOUND
from freeops.pcp import PCPInstance, solve_bounded, verify_solution
from freeops.reduction import (
    DISTINCT,
    INDISTINGUISHABLE,
    FOUND,
    compile_generators,
    make_target,
    membership_search,
    theory_diff,
)
from freeops.resourcegraph import (
    check_compatible,
    check_complete,
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


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_freeness_witness():
    start = time.perf_counter()
    report = freeness_scan(PAIR, 12)
    elapsed = time.perf_counter() - start
    ok = (
        report.word_count == 8190
        and not report.collisions
        and not report.scalar_words
        and not report.truncated
        and elapsed < 60
    )
    _line(
        1,
        ok,
        f"scanned {report.word_count} words to length 12: "
        f"{len(report.collisions)} collisions, {len(report.scalar_words)} scalar"
        f" words, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_composition_law():
    pool = []
    for text, damping in (
        ("1|101\n10|00\n011|11", Fraction(1, 2)),
        ("01|0\n1|11", Fraction(1, 3)),
        ("11|1\n1|11", Fraction(2, 5)),
    ):
        gens = compile_generators(
            cli.pcp.parse_instance(text), PAIR, damping
        )
        pool.extend(gens.channels())
    rng = random.Random(91)
    failures = 0
    for _ in range(1000):
        x = rng.choice(pool)
        y = rng.choice(pool)
        rho = random_density(rng)
        z = compose(x, y)
        if z.apply(rho) != x.apply(y.apply(rho)):
            failures += 1
        # a reset absorbs what acts first; otherwise dampings multiply
        if z.damping != (x.damping if x.reset else x.damping * y.damping):
            failures += 1
    ok = failures == 0
    _line(2, ok, f"1000 random pairs: {failures} exactness failures")
    assert ok


def test_criterion_3_cptp_certification():
    checked = 0
    failures = []
    for entry in CORPUS:
        gens = compile_generators(entry.instance, PAIR, HALF)
        for ch in gens.channels():
            j = choi(ch)
            if not j.is_psd():
                failures.append((entry.name, ch.label, "choi not PSD"))
            if j.partial_trace_first(4, 4) != ExactMatrix.identity(4):
                failures.append((entry.name, ch.label, "not trace preserving"))
            checked += 1
    ok = not failures and len(CORPUS) >= 20
    _line(
        3,
        ok,
        f"{checked} generators from {len(CORPUS)} instances certified, "
        f"{len(failures)} failures, zero tolerance",
    )
    assert ok, failures


def test_criterion_4_reduction_equivalence():
    assert len(SOLVABLE) >= 10 and len(UNSOLVABLE) >= 10
    failures = []
    for entry in CORPUS:
        # the corpus classification itself, by the two independent oracles
        oracle10 = solve_bounded(entry.instance, 10)
        if entry.solvable:
            if oracle10.status != PCP_FOUND or len(oracle10.witness) != entry.min_len:
                failures.append((entry.name, "oracle classification"))
            if entry.min_len > 8:
                failures.append((entry.name, "minimal solution exceeds 8"))
        elif oracle10.status == PCP_FOUND:
            failures.append((entry.name, "unexpected solution"))

        # a witness of n letters, E_{t1} .. E_{t(n-1)} R_{tn}, is a tile
        # solution of length n: depth, witness length and oracle depth all
        # equal the shortest solution's length
        depth = entry.min_len if entry.solvable else 8
        gens = compile_generators(entry.instance, PAIR, HALF)
        oracle = solve_bounded(entry.instance, depth)
        outcomes = {
            mode: membership_search(gens, depth, mode=mode)
            for mode in ("generic", "structured")
        }
        for mode, out in outcomes.items():
            if (out.status == FOUND) != (oracle.status == PCP_FOUND):
                failures.append((entry.name, mode, "status mismatch"))
            if out.status == FOUND:
                if out.extracted is None or not verify_solution(
                    entry.instance, out.extracted
                ):
                    failures.append((entry.name, mode, "extraction failed"))
                if out.depth_reached != entry.min_len:
                    failures.append((entry.name, mode, "witness depth"))
                if len(out.witness) != entry.min_len:
                    failures.append((entry.name, mode, "witness length"))
        if outcomes["generic"].status != outcomes["structured"].status:
            failures.append((entry.name, "modes disagree"))
    ok = not failures
    _line(
        4,
        ok,
        f"{len(SOLVABLE)} solvable + {len(UNSOLVABLE)} unsolvable instances: "
        f"both modes vs tile oracle at matched depths, {len(failures)} failures",
    )
    assert ok, failures


def _quotient_reachability_oracle(graph, q):
    """Pairwise BFS on the node graph, projected to classes."""
    reach_sets = {n: bfs_reachable(graph, n) for n in graph.nodes}
    pairs = set()
    for r in range(q.size):
        root = q.classes[r][0]
        for s in range(q.size):
            if q.classes[s][0] in reach_sets[root]:
                pairs.add((r, s))
    return pairs


def test_criterion_5_monotone_correctness():
    failures = []
    rng = random.Random(555)
    graphs = []
    for i in range(47):
        n = rng.randint(4, 60)
        graphs.append(("random", random_digraph(rng, n, rng.randint(n, 2 * n))))
    for n in (120, 160, 200):
        graphs.append(("random", random_digraph(rng, n, 2 * n)))
    for text, depth in (
        ("0|0", 6),
        ("0|1", 6),
        ("01|0\n1|11", 4),
        ("1|101\n10|00\n011|11", 3),
    ):
        gens = compile_generators(cli.pcp.parse_instance(text), PAIR, HALF)
        seed = ExactDensityMatrix.basis_state(4, 2)
        graphs.append(("explored", explore(gens.channels(), [seed], depth).named()))

    for kind, graph in graphs:
        q = quotient(graph)
        if q.size > 200:
            failures.append((kind, "too many classes"))
        family = monotone_family(q)
        if check_compatible(graph, family) is not None:
            failures.append((kind, "compatibility"))
        if check_complete(family) is not None:
            failures.append((kind, "completeness"))
        if len(graph.nodes) <= 60:
            # extra independence: dominance against plain pairwise BFS
            oracle_pairs = _quotient_reachability_oracle(graph, q)
            for r in range(q.size):
                for s in range(q.size):
                    dominated = all(
                        t.value(s) <= t.value(r) for t in family.tables
                    )
                    if dominated != ((r, s) in oracle_pairs):
                        failures.append((kind, "oracle disagreement", r, s))

    fixture = demo_graph()
    q = quotient(fixture)
    table = monotone_family(q).tables[q.class_of["rho"]]
    if table.value(q.class_of["sigma"]) != Fraction(1, 7):
        failures.append(("fixture", "sigma value"))
    if table.value(q.class_of["omega"]) != 2:
        failures.append(("fixture", "unreachable value"))
    ok = not failures
    _line(
        5,
        ok,
        f"{len(graphs)} graphs (50 random + 4 explored) + fixture: "
        f"compatible, complete, fixture values 1/7 and 2; "
        f"{len(failures)} failures",
    )
    assert ok, failures[:5]


def test_criterion_6_quotient_correctness():
    from corpus import mutual_reachability_classes

    rng = random.Random(606)
    failures = 0
    for _ in range(50):
        n = rng.randint(3, 60)
        graph = random_digraph(rng, n, rng.randint(n // 2, 3 * n))
        q = quotient(graph)
        if sorted(q.classes) != sorted(mutual_reachability_classes(graph)):
            failures += 1
        # independent acyclicity check: peel by out-degree into remaining set
        remaining = set(range(q.size))
        out_edges = set(q.edges)
        while remaining:
            sinks = {
                u
                for u in remaining
                if not any((u, v) in out_edges for v in remaining if v != u)
            }
            if not sinks:
                failures += 1
                break
            remaining -= sinks
    ok = failures == 0
    _line(
        6,
        ok,
        f"50 random digraphs: quotient classes match pairwise-BFS mutual"
        f" reachability, all acyclic; {failures} failures",
    )
    assert ok


def test_criterion_7_distinguishability():
    # A solution of length n, doubled, is one of length 2n, so the target at
    # damping p^{2n} is realized at depth 2n; without a solution of length 2,
    # the target at p^2 is not realized at any depth.
    failures = []
    statuses = set()
    for entry in CORPUS:
        if entry.solvable and entry.min_len <= 3:
            depth = 2 * entry.min_len
            expect = INDISTINGUISHABLE
            target_damping = HALF ** (2 * entry.min_len)
        else:
            depth = 4
            expect = DISTINCT
            target_damping = HALF ** 2
        gens = compile_generators(entry.instance, PAIR, HALF)
        out = theory_diff(gens, make_target(target_damping, "PSI"), depth)
        statuses.add(out.status)
        if out.status != expect:
            failures.append((entry.name, out.status, expect))
        if out.truncated:
            failures.append((entry.name, "truncated"))
        if out.status == DISTINCT and out.witness is None:
            failures.append((entry.name, "missing witness"))
        realized = out.matches.get("f2:PSI")
        if out.status == INDISTINGUISHABLE and (realized is None or realized["at_depth"] != depth):
            failures.append((entry.name, "missing realization"))
    ok = (
        not failures
        and statuses <= {DISTINCT, INDISTINGUISHABLE}
        and "equal" not in "".join(statuses)
    )
    _line(
        7,
        ok,
        f"{len(CORPUS)} instances: indistinguishable exactly when the tile"
        f" solution fits the bound, never an equality claim;"
        f" {len(failures)} failures",
    )
    assert ok, failures


def _normalized(report: dict) -> str:
    trimmed = dict(report)
    trimmed.pop("wall_time_s", None)
    return json.dumps(trimmed, sort_keys=True)


def test_criterion_8_reproducibility(tmp_path):
    classic = tmp_path / "classic.pcp"
    classic.write_text("1|101\n10|00\n011|11\n")
    trivial = tmp_path / "trivial.pcp"
    trivial.write_text("0|0\n")
    commands = {
        "verify-free": ["verify-free", "--max-len", "8"],
        "solve-pcp": ["solve-pcp", "--instance", str(classic), "--depth", "6"],
        "membership": ["membership", "--instance", str(classic), "--depth", "8"],
        "monotones": ["monotones", "--graph", "demo"],
        "diff": ["diff", "--instance", str(trivial), "--depth", "2"],
        "reach": [
            "reach",
            "--instance",
            str(trivial),
            "--depth",
            "2",
            "--from",
            "spread",
            "--to",
            "target:1/4",
        ],
    }
    failures = []
    runs = 0
    for name, argv in commands.items():
        texts = set()
        for repeat in range(3):
            out = tmp_path / f"{name}-{repeat}.json"
            code = cli.main(argv + ["--out", str(out)])
            if code not in (0, 10, 11):
                failures.append((name, "exit", code))
            texts.add(_normalized(json.loads(out.read_text())))
            runs += 1
        if len(texts) != 1:
            failures.append((name, "non-deterministic report"))
    ok = not failures
    _line(
        8,
        ok,
        f"{runs} runs over {len(commands)} commands x 3 repeats:"
        f" byte-identical reports modulo timing; {len(failures)} failures",
    )
    assert ok, failures


def test_reach_agrees_with_membership_on_target_pair():
    # cross-module agreement at matched depths and dampings, with the
    # full-rank seed: the target at damping p^depth is reachable within the
    # bound exactly when a tile solution of length depth exists
    for text, solvable, depth in (
        ("0|0", True, 2),
        ("01|0\n1|11", True, 4),
        ("01|0\n1|11", True, 3),
        ("0|1", False, 4),
        ("1|101\n10|00", False, 4),
    ):
        inst = cli.pcp.parse_instance(text)
        gens = compile_generators(inst, PAIR, HALF)
        seed = generic_seed(4)
        graph = explore(gens.channels(), [seed], depth)
        member = membership_search(gens, depth, mode="generic")
        target = make_target(HALF ** depth).apply(seed)
        outcome = reach(graph, seed, target)
        exact_length = any(len(w) == depth for w in enumerate_solutions(inst.tiles, depth))
        want = "reachable" if exact_length else "not_reachable_within_bound"
        assert outcome.status == want, text
        if outcome.status == "reachable":
            assert len(outcome.path) == depth
        assert (member.status == FOUND) == solvable


def test_four_answers_agree_on_the_two_tile_sweep():
    """One question, four answers.  On each of the 2,304 two-tile instances
    at p = 1/2 and n = 4, with L the set of solution lengths <= n found by
    enumeration: the tile search finds a solution of length min L;
    membership at depth n finds a witness of length min L at damping
    p^(min L); diff realizes T_(p^k) at depth k; and reach from basis:0
    finds the state T_(p^k)(basis:0) at path length k within an explore to
    depth n, the last two exactly for the k in L.  Each side answers None
    where it finds nothing, and "cut" where its budget cut it; a solution
    of length m, repeated, is one of length 2m, so each answer is compared
    with L, not with its minimum."""
    n = 4
    source = ExactDensityMatrix.basis_state(4, 0)
    targets = {k: make_target(HALF**k, "PSI") for k in range(1, n + 1)}
    target_states = {k: t.apply(source) for k, t in targets.items()}
    mismatches = []

    def check(tiles, question, got, want):
        if got != want:
            mismatches.append(f"{tiles}: {question} answers {got}, enumeration {want}")

    for tiles in product(SHORT_TILES, repeat=2):
        inst = PCPInstance(tiles)
        lengths = {len(w) for w in enumerate_solutions(tiles, n)}
        shortest = min(lengths, default=None)
        gens = compile_generators(inst, PAIR, HALF)
        solved = solve_bounded(inst, n)
        got = "cut" if solved.truncated else solved.witness and len(solved.witness)
        check(tiles, "solve_bounded", got, shortest)
        member = membership_search(gens, n)
        got = "cut" if member.truncated else member.witness and (
            len(member.witness), member.witness_damping
        )
        check(tiles, "membership_search", got, shortest and (shortest, HALF**shortest))
        graph = explore(gens.channels(), [source], n)
        check(tiles, "explore", graph.truncated, False)
        for k, target in targets.items():
            want = k if k in lengths else None
            out = theory_diff(gens, target, k)
            realized = out.matches.get("f2:PSI")
            got = "cut" if out.truncated else realized and realized["at_depth"]
            check(tiles, f"theory_diff T_(p^{k})", got, want)
            path = reach(graph, source, target_states[k]).path
            check(tiles, f"reach T_(p^{k})(basis:0)", path and len(path), want)
    assert not mismatches, mismatches[:20]
