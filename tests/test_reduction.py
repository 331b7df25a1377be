"""Generator compilation, channel algebra, membership search, and diffing."""

import dataclasses
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from corpus import CORPUS, DEFAULT_PAIR, compose, random_density
from oracles import (
    block,
    block_diag,
    det,
    gr,
    is_unitary,
    mat_add,
    mat_pow,
    mat_sub,
    matrix_from_json,
    mul,
    trace,
    zeros,
)
from freeops import cli
from freeops.exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    rat_to_str,
)
from freeops.freerot import (
    RotationParams,
    encode_word,
    freeness_certificate,
    freeness_scan,
    make_free_pair,
    q_identity,
    q_mul,
    q_phase_key,
    quaternion_matrix,
)
from freeops.pcp import parse_instance, solve_bounded, verify_solution
from freeops.reduction import (
    DISTINCT,
    EXHAUSTED,
    FOUND,
    INDISTINGUISHABLE,
    ChannelElement,
    _closure,
    compile_generators,
    labeled,
    make_target,
    membership_search,
    phase_canonical,
    theory_diff,
)
from freeops.resourcegraph import choi, explore
from freeops.util import report_json

PAIR = DEFAULT_PAIR
A = quaternion_matrix(PAIR.a)
B = quaternion_matrix(PAIR.b)
HALF = Fraction(1, 2)
IDENTITY = ChannelElement(q_identity(2), Fraction(1))


def compiled(text, damping=HALF):
    return compile_generators(parse_instance(text), PAIR, damping)


def reference_generators(inst, a, b):
    """The compiled unitaries built from the 2x2 rotation matrices a and b:
    H_i = blockdiag(code(top_i), a^i b) and
    G_i = blockdiag(code(bottom_i)^dag, (a^i b)^dag)."""

    def code(bits):
        m = ExactMatrix.identity(2)
        for ch in bits:
            m = m @ (a if ch == "0" else b)
        return m

    out = {}
    for i, (top, bottom) in enumerate(inst.tiles, start=1):
        index_block = mat_pow(a, i) @ b
        out[f"H{i}"] = block_diag(code(top), index_block)
        out[f"G{i}"] = block_diag(code(bottom).dagger(), index_block.dagger())
    return out


# --- compilation ------------------------------------------------------------------


def test_compile_first_tile_blocks():
    gens = compiled("0|100")
    assert quaternion_matrix(gens.h_gens[0].unitary) == block_diag(A, A @ B)
    assert quaternion_matrix(gens.g_gens[0].unitary) == block_diag((B @ A @ A).dagger(), (A @ B).dagger())


def test_compile_index_blocks_track_tile_number():
    gens = compiled("0|0\n1|1\n01|10")
    for i, h in enumerate(gens.h_gens, start=1):
        assert block(quaternion_matrix(h.unitary), 2, 2, 2, 2) == mat_pow(A, i) @ B


def test_compile_matches_matrix_construction():
    one, zero = Fraction(1), Fraction(0)
    y_axis = make_free_pair(
        RotationParams(Fraction(5, 13), Fraction(12, 13), (zero, one, zero), (zero, zero, one))
    )
    for pair in (PAIR, y_axis):
        a, b = quaternion_matrix(pair.a), quaternion_matrix(pair.b)
        for entry in CORPUS:
            gens = compile_generators(entry.instance, pair, HALF)
            expected = reference_generators(entry.instance, a, b)
            assert {ch.word[0] for ch in gens.channels()} == set(expected)
            for ch in gens.channels():
                assert quaternion_matrix(ch.unitary) == expected[ch.word[0]], (entry.name, ch.word)


def test_compile_rejects_bad_damping():
    inst = parse_instance("0|0")
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            compile_generators(inst, PAIR, bad)


def test_all_generators_exactly_unitary():
    for entry in CORPUS[:8]:
        gens = compile_generators(entry.instance, PAIR, HALF)
        for ch in gens.channels():
            assert is_unitary(quaternion_matrix(ch.unitary))


def test_matching_tile_telescopes():
    gens = compiled("0|0")
    product = quaternion_matrix(gens.g_gens[0].unitary) @ quaternion_matrix(gens.h_gens[0].unitary)
    assert product == ExactMatrix.identity(4)


def test_generator_set_json_bundle():
    gens = compiled("0|100")
    data = gens.to_json_dict()
    assert data["instance"]["tiles"] == [["0", "100"]]
    assert data["damping"]["H1"] == "1/2"
    assert set(data["unitaries"]) == {"H1", "G1"}
    assert matrix_from_json(data["unitaries"]["G1"]) == quaternion_matrix(gens.g_gens[0].unitary)


# --- channel algebra ----------------------------------------------------------------


def test_compose_identity_neutral():
    gens = compiled("0|100")
    ident = IDENTITY
    x = gens.h_gens[0]
    assert compose(ident, x) == x
    assert compose(x, ident) == x


def test_compose_damping_and_words():
    x = make_target(Fraction(1, 2))
    y = make_target(Fraction(1, 3))
    z = compose(x, y)
    assert z.damping == Fraction(1, 6)
    gens = compiled("0|0")
    w = compose(gens.h_gens[0], gens.g_gens[0])
    assert w.word == ("H1", "G1")


def test_compose_matches_sequential_application():
    rng = random.Random(321)
    gens = compiled("1|101\n10|00\n011|11")
    channels = gens.channels()
    for _ in range(100):
        x = rng.choice(channels)
        y = rng.choice(channels)
        rho = random_density(rng)
        assert compose(x, y).apply(rho) == x.apply(y.apply(rho))


def test_compose_associative():
    gens = compiled("01|0\n1|11")
    a, b, c = gens.h_gens[0], gens.g_gens[1], gens.h_gens[1]
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_apply_fixes_maximally_mixed():
    gens = compiled("0|100")
    mixed = ExactDensityMatrix.maximally_mixed(4)
    for ch in gens.channels():
        assert ch.apply(mixed) == mixed


def test_apply_identity_channel():
    rng = random.Random(7)
    rho = random_density(rng)
    assert IDENTITY.apply(rho) == rho


def reference_apply(ch, m):
    """The channel formula spelled out in ExactMatrix operations."""
    mix = ExactMatrix.identity(ch.dim).scale(
        mul(trace(m), GaussianRational((1 - ch.damping) / ch.dim))
    )
    u = quaternion_matrix(ch.unitary)
    return mat_add((u @ m @ u.dagger()).scale(ch.damping), mix)


def test_apply_to_matrix_matches_reference_formula():
    rng = random.Random(2105)
    gens = compiled("1|101\n10|00\n011|11")
    channels = list(gens.channels()) + [
        IDENTITY,
        make_target(Fraction(1, 3)),
        compose(gens.h_gens[0], gens.g_gens[2]),
    ]

    def entry():
        return gr(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )

    operators = [random_density(rng).mat for _ in range(5)]
    for _ in range(20):  # arbitrary, in general non-Hermitian, complex trace
        operators.append(ExactMatrix(4, 4, [entry() for _ in range(16)]))
    for _ in range(5):  # zero trace
        m = ExactMatrix(4, 4, [entry() for _ in range(16)])
        operators.append(mat_sub(m, ExactMatrix.identity(4).scale(mul(trace(m), gr(Fraction(1, 4))))))
    operators.append(zeros(4, 4))
    assert any(trace(m).im != 0 for m in operators)
    assert sum(trace(m) == gr(0) for m in operators) >= 6
    for ch in channels:
        for m in operators:
            assert ch.apply_to_matrix(m) == reference_apply(ch, m)
        for i in range(4):  # the operators choi feeds in
            for j in range(4):
                e = ExactMatrix(4, 4, [int(k == 4 * i + j) for k in range(16)])
                assert ch.apply_to_matrix(e) == reference_apply(ch, e)


def test_apply_dimension_checked():
    with pytest.raises(ShapeError):
        make_target(HALF).apply(ExactDensityMatrix.maximally_mixed(2))


def test_target_on_basis_state():
    rho = ExactDensityMatrix.basis_state(4, 0)
    out = make_target(HALF).apply(rho)
    assert out.mat == ExactMatrix.diagonal(
        [gr("5/8"), gr("1/8"), gr("1/8"), gr("1/8")]
    )


def test_target_domain():
    for bad in (Fraction(0), Fraction(1), Fraction(5, 4)):
        with pytest.raises(ValueError):
            make_target(bad)
    assert make_target(HALF).word == ()


# --- Choi certification ---------------------------------------------------------------


def test_choi_of_identity_is_maximally_entangled():
    j = choi(IDENTITY)
    expected = ExactMatrix(
        16,
        16,
        [
            gr(1) if (r // 4 == r % 4 and c // 4 == c % 4) else gr(0)
            for r in range(16)
            for c in range(16)
        ],
    )
    assert j == expected


def test_choi_trace_is_dimension():
    assert trace(choi(make_target(HALF))) == gr(4)


def test_compiled_generators_are_cptp():
    gens = compiled("1|101\n10|00\n011|11")
    for ch in gens.channels():
        j = choi(ch)
        assert j.is_psd()
        assert j.partial_trace_first(4, 4) == ExactMatrix.identity(4)


def test_composed_channels_stay_cptp():
    gens = compiled("01|0\n1|11")
    word = compose(compose(gens.h_gens[0], gens.g_gens[1]), gens.h_gens[1])
    j = choi(word)
    assert j.is_psd()
    assert j.partial_trace_first(4, 4) == ExactMatrix.identity(4)


# --- block structure --------------------------------------------------------------------


def test_products_keep_block_structure():
    rng = random.Random(99)
    gens = compiled("1|101\n10|00\n011|11")
    channels = gens.channels()
    for _ in range(50):
        length = rng.randint(1, 6)
        product = ExactMatrix.identity(4)
        for _ in range(length):
            product = product @ quaternion_matrix(rng.choice(channels).unitary)
        assert block(product, 0, 2, 2, 2) == zeros(2, 2)
        assert block(product, 2, 0, 2, 2) == zeros(2, 2)
        for corner in (block(product, 0, 0, 2, 2), block(product, 2, 2, 2, 2)):
            assert is_unitary(corner)
            assert det(corner) == gr(1)


# --- membership search -------------------------------------------------------------------


def test_membership_trivial_instance_generic():
    out = membership_search(compiled("0|0"), 2, mode="generic")
    assert out.status == FOUND
    assert out.witness == ("H1", "G1")
    assert out.scalar_value == gr(1)
    assert out.extracted == (1,)
    assert out.witness_damping == Fraction(1, 4)


def test_membership_trivial_instance_structured():
    out = membership_search(compiled("0|0"), 2, mode="structured")
    assert out.status == FOUND
    assert out.witness == ("G1", "H1")
    assert out.scalar_value == gr(1)
    assert out.extracted == (1,)
    assert out.witness_damping == Fraction(1, 4)


def test_membership_unsolvable_instance():
    gens = compiled("0|1")
    for mode in ("generic", "structured"):
        out = membership_search(gens, 8, mode=mode)
        assert out.status == EXHAUSTED
        assert out.witness is None
        assert not out.truncated


def test_membership_classic_instance():
    inst = parse_instance("1|101\n10|00\n011|11")
    gens = compile_generators(inst, PAIR, HALF)
    oracle = solve_bounded(inst, 4)
    for mode in ("generic", "structured"):
        out = membership_search(gens, 8, mode=mode)
        assert out.status == FOUND
        assert out.depth_reached == 8 == 2 * len(oracle.witness)
        assert out.extracted is not None
        assert verify_solution(inst, out.extracted)
        assert out.witness_damping == HALF ** 8


def test_membership_rejects_bad_args():
    gens = compiled("0|0")
    with pytest.raises(ValueError):
        membership_search(gens, 0)
    with pytest.raises(ValueError):
        membership_search(gens, 2, mode="diagonal")


def test_membership_budget_truncation():
    gens = compiled("1|101\n10|00\n011|11")
    out = membership_search(gens, 8, mode="generic", node_budget=20)
    assert out.status == EXHAUSTED
    assert out.truncated


# Budgets at and one below a level boundary: a search is truncated exactly
# when one more expansion was due, and a level cut short never counts as
# completed.  The scan, generic and structured rows were taken before those
# searches shared one level loop; the diff rows count the expansions of f1's
# closure alone, and the explore and solve rows count expansions, not stored
# states or visited configurations.  A scan row also runs `verify-free`: a
# scan cut short with no collision reports the last length scanned in full
# and exits 10.
BUDGET_BOUNDARY = [
    # (search, depth or max_len, budget, expected)
    # scan: (scanned_max_len, words, truncated, verify-free exit code)
    ("scan", 3, 14, (3, 14, False, 0)),
    ("scan", 3, 13, (2, 13, True, 10)),
    ("scan", 4, 14, (3, 14, True, 10)),
    ("generic", 4, 42, (EXHAUSTED, 4, 42, False)),
    ("generic", 4, 41, (EXHAUSTED, 2, 41, True)),
    ("generic", 6, 42, (EXHAUSTED, 4, 42, True)),
    ("structured", 4, 12, (EXHAUSTED, 4, 12, False)),
    ("structured", 4, 11, (EXHAUSTED, 2, 11, True)),
    ("structured", 6, 12, (EXHAUSTED, 4, 12, True)),
    ("diff", 2, 42, (DISTINCT, 2, 42, False)),
    ("diff", 2, 41, (INDISTINGUISHABLE, 1, 41, True)),
    ("diff", 3, 56, (INDISTINGUISHABLE, 2, 56, True)),
    # explore: (stored states, edges = expansions, truncated)
    ("explore", 2, 36, (32, 36, False)),
    ("explore", 2, 35, (31, 35, True)),
    ("explore", 3, 36, (32, 36, True)),
    ("solve", 3, 9, (EXHAUSTED, 3, 9, False)),
    ("solve", 3, 8, (EXHAUSTED, 2, 8, True)),
    ("solve", 4, 9, (EXHAUSTED, 3, 9, True)),
    # 62 words fill lengths 1-5 and 126 fill lengths 1-6
    ("scan", 12, 100, (5, 100, True, 10)),
    ("scan", 12, 0, (0, 0, True, 10)),
    ("scan", 6, 126, (6, 126, False, 0)),
    ("scan", 6, 125, (5, 125, True, 10)),
]


@pytest.mark.parametrize("search,depth,budget,expected", BUDGET_BOUNDARY)
def test_budget_boundary_table(tmp_path, search, depth, budget, expected):
    gens = compiled("1|101\n10|00\n011|11")
    if search == "scan":
        r = freeness_scan(PAIR, depth, node_budget=budget)
        out = tmp_path / "r.json"
        argv = ["verify-free", "--max-len", str(depth), "--budget", str(budget)]
        code = cli.main(argv + ["--out", str(out)])
        want = {**r.to_json_dict(), "certificate": report_json(freeness_certificate(PAIR))}
        assert json.loads(out.read_text())["outcome"] == want
        assert (r.scanned_max_len, r.word_count, r.truncated, code) == expected
        return
    if search == "explore":
        seed = ExactDensityMatrix.basis_state(4, 0)
        g = explore(gens.channels(), [seed], depth, node_budget=budget)
        assert (len(g.nodes), len(g.edges), g.truncated) == expected
        return
    if search == "diff":
        psi = labeled(make_target(Fraction(1, 16)), "PSI")
        out = theory_diff(gens.channels(), (psi,), depth, node_budget=budget)
    elif search == "solve":
        out = solve_bounded(gens.instance, depth, node_budget=budget)
    else:
        out = membership_search(gens, depth, mode=search, node_budget=budget)
    assert (out.status, out.depth_reached, out.nodes_expanded, out.truncated) == expected


def test_membership_repeat_runs_agree():
    # the searches are single-threaded; repeat runs must agree exactly
    gens = compiled("01|0\n1|11")
    for mode in ("generic", "structured"):
        runs = [membership_search(gens, 4, mode=mode) for _ in range(3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]


def _bfs_scalar_word(gens, max_depth):
    """Oracle: the first scalar word in length-then-lexicographic order over
    the generator list, by plain BFS over ExactMatrix products."""
    letters = [(ch.word[0], quaternion_matrix(ch.unitary)) for ch in gens.channels()]
    level = [((), ExactMatrix.identity(4))]
    for _ in range(max_depth):
        level = [(w + (lab,), m @ u) for w, m in level for lab, u in letters]
        for word, m in level:
            if m.as_scalar() is not None:
                return word
    return None


def test_generic_witness_matches_bruteforce_bfs():
    depth = 5
    for entry in CORPUS:
        if entry.size > 3:
            continue
        gens = compile_generators(entry.instance, PAIR, HALF)
        expected = _bfs_scalar_word(gens, depth)
        out = membership_search(gens, depth, mode="generic")
        if expected is None:
            assert out.status == EXHAUSTED, entry.name
        else:
            assert out.status == FOUND, entry.name
            assert out.witness == expected, entry.name
            assert out.depth_reached == len(expected)


def test_channel_element_construction_check():
    good = compiled("0|100").g_gens[0].unitary
    ch = ChannelElement(good, HALF, ("G1",))
    assert quaternion_matrix(ch.unitary) == quaternion_matrix(good) and ch.dim == 4
    for bad in (
        q_identity(1),  # one block
        q_identity(3),  # three blocks
        (1, 1, 0, 0, 1, 0, 0, 0, 1),  # first block of norm 2
        (1, 0, 0, 0, 0, 0, 0, 0, 1),  # second block zero
        (3, 4, 0, 0, 5, 0, 0, 0, 1),  # norm 25 over denominator 1
        (2, 0, 0, 0, 2, 0, 0, 0, 2),  # unit, but not reduced
        (-1, 0, 0, 0, -1, 0, 0, 0, -1),  # unit, negative denominator
        (1,),  # no block
        (1, 0, 0, 0),  # length 4
        (1, 0, 0, 0, 1, 0),  # length 6
        (1, 0, 0, 0, 1, 0, 0, 0, 1, 1),  # length 10
    ):
        with pytest.raises(ValueError):
            ChannelElement(bad, HALF)
    for damping in (Fraction(0), Fraction(-1, 2), Fraction(3, 2), 1 + Fraction(1, 10**9)):
        with pytest.raises(ValueError):
            ChannelElement(good, damping)
    assert ChannelElement(good, Fraction(1)).damping == 1


def test_witness_channel_acts_like_target():
    rng = random.Random(2024)
    gens = compiled("01|0\n1|11")
    out = membership_search(gens, 4, mode="generic")
    assert out.status == FOUND
    by_label = {ch.word[0]: ch for ch in gens.channels()}
    channel = by_label[out.witness[0]]
    for lab in out.witness[1:]:
        channel = compose(channel, by_label[lab])
    target = make_target(channel.damping)
    for _ in range(20):
        rho = random_density(rng)
        assert channel.apply(rho) == target.apply(rho)
    j = choi(channel)
    assert j.is_psd()
    assert j.partial_trace_first(4, 4) == ExactMatrix.identity(4)


def test_mixed_cancellation_shortcut():
    # Tile 3's bottom word is a suffix of its top word, so H3*G3 collapses
    # to blockdiag(code("1"), I): the shape-agnostic search finds a scalar
    # word of length 6, below the canonical 2 x (solution length), and
    # extraction correctly declines to read a tile word out of it.
    from corpus import MIXED_CANCELLATION

    inst = MIXED_CANCELLATION.instance
    gens = compile_generators(inst, PAIR, HALF)
    h3 = quaternion_matrix(gens.h_gens[2].unitary)
    g3 = quaternion_matrix(gens.g_gens[2].unitary)
    assert h3 @ g3 == block_diag(quaternion_matrix(encode_word(PAIR, "1")), ExactMatrix.identity(2))
    out = membership_search(gens, 8, mode="generic")
    assert out.status == FOUND
    assert out.witness == ("H1", "H3", "G3", "H3", "G3", "G1")
    assert out.depth_reached == 6
    assert out.scalar_value == gr(1)
    assert out.extracted is None
    # confined to the canonical shape, the structured search still finds
    # the tile solution at its canonical depth
    structured = membership_search(gens, 8, mode="structured")
    assert structured.status == FOUND
    assert structured.depth_reached == 8
    assert structured.extracted == (2, 1, 1, 3)
    assert verify_solution(inst, structured.extracted)


def test_phase_canonical_identifies_phase_multiples():
    gens = compiled("0|100")
    u = quaternion_matrix(gens.h_gens[0].unitary)
    for phase in (gr(1), gr(-1), gr(0, 1), gr(0, -1)):
        assert phase_canonical(u.scale(phase)) == phase_canonical(u)
    assert phase_canonical(u) != phase_canonical(quaternion_matrix(gens.g_gens[0].unitary))


# --- theory diffing ---------------------------------------------------------------------


def test_diff_unsolvable_distinct_at_depth_one():
    gens = compiled("0|1")
    f1 = gens.channels()
    psi = labeled(make_target(Fraction(1, 4)), "PSI")
    for depth in (1, 2, 4, 6):
        out = theory_diff(f1, (psi,), depth)
        assert out.status == DISTINCT
        assert out.witness["label"] == "PSI"
        assert out.witness["side"] == 2
        assert not out.truncated


def test_diff_identical_sets():
    gens = compiled("0|1")
    for depth in (1, 3):
        out = theory_diff(gens.channels(), (), depth)
        assert out.status == INDISTINGUISHABLE
        assert out.witness is None


def test_diff_solvable_realizes_target():
    gens = compiled("0|0")
    f1 = gens.channels()
    psi = labeled(make_target(Fraction(1, 4)), "PSI")
    out = theory_diff(f1, (psi,), 2)
    assert out.status == INDISTINGUISHABLE
    realized = out.matches["f2:PSI"]
    assert realized["at_depth"] == 2
    by_label = {ch.word[0]: quaternion_matrix(ch.unitary) for ch in f1}
    product = ExactMatrix.identity(4)
    for lab in realized["realized_by"]:
        product = product @ by_label[lab]
    assert product.as_scalar() is not None


def test_diff_truncated_reports_completed_depth():
    gens = compiled("0|1")
    f1 = gens.channels()
    extra = (labeled(make_target(Fraction(1, 4)), "PSI"),)
    full = theory_diff(f1, extra, 4)
    assert not full.truncated and full.depth_reached == 4
    # f1's closure (2 letters) completes depth 2 within 7 expansions (2 + 4);
    # its third level is cut after one
    out = theory_diff(f1, extra, 4, node_budget=7)
    assert out.truncated
    assert out.depth_reached == 2
    assert out.nodes_expanded == 7
    assert out.status == INDISTINGUISHABLE and out.witness is None
    # a budget that cuts level 1 completes nothing
    assert theory_diff(f1, extra, 4, node_budget=1).depth_reached == 0


def _two_closure_diff(f1, extra, depth):
    """Oracle: the comparison with f2 = f1 + extra given its own closure,
    each side's generators looked up in the other side's closure."""
    f2 = tuple(f1) + tuple(extra)
    e1, _, t1, done1 = _closure(f1, depth, 500_000)
    e2, _, t2, done2 = _closure(f2, depth, 500_000)
    assert not (t1 or t2)
    matches, witness = {}, None
    for side, own, other in ((2, f2, e1), (1, f1, e2)):
        for ch in own:
            d = ch.damping
            hit = other.get((q_phase_key(ch.unitary), d.numerator, d.denominator))
            if hit is not None:
                matches.setdefault(
                    f"f{side}:{ch.label}",
                    {"realized_by": list(hit[0]), "at_depth": hit[1]},
                )
            elif witness is None:
                witness = {
                    "side": side,
                    "label": ch.label,
                    "damping": rat_to_str(ch.damping),
                    "unitary_digest": phase_canonical(quaternion_matrix(ch.unitary)).digest(),
                }
    status = DISTINCT if witness is not None else INDISTINGUISHABLE
    return status, witness, matches, min(done1, done2)


def test_closure_damping_keys_are_reduced_letter_products():
    """Every closure element's integer damping is the Fraction product of
    its word's letter dampings, in lowest terms, next to the phase key of
    its word's product.  The letters mix 1/2, 2/3 and 3/4 (given as 6/8),
    so that products such as 2/3 * 3/4 = 6/12 need reducing."""
    dampings = [HALF, Fraction(2, 3), Fraction(6, 8)]
    gens = compiled("1|101\n10|00\n011|11")
    letters = [
        dataclasses.replace(ch, damping=dampings[k % 3])
        for k, ch in enumerate(gens.channels())
    ]
    by_label = {ch.label: ch for ch in letters}
    elems, expanded, truncated, done = _closure(letters, 3, 500_000)
    assert (expanded, truncated, done) == (6 + 36 + 216, False, 3)
    unreduced = 0
    for (key, p, r), (word, depth) in elems.items():
        assert depth == len(word)
        unitary, damping = q_identity(2), Fraction(1)
        nums = dens = 1
        for label in word:
            ch = by_label[label]
            unitary = q_mul(unitary, ch.unitary)
            damping *= ch.damping
            nums *= ch.damping.numerator
            dens *= ch.damping.denominator
        assert (p, r) == (damping.numerator, damping.denominator)
        assert key == q_phase_key(unitary)
        unreduced += gcd(nums, dens) > 1
    assert unreduced > 0


def test_one_closure_diff_matches_two_closures():
    statuses = set()
    for entry in CORPUS:
        if entry.size > 3:
            continue
        f1 = compile_generators(entry.instance, PAIR, HALF).channels()
        for target in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 256)):
            extra = (labeled(make_target(target), "PSI"),)
            for depth in range(1, 5):
                out = theory_diff(f1, extra, depth)
                assert not out.truncated
                got = (out.status, out.witness, out.matches, out.depth_reached)
                assert got == _two_closure_diff(f1, extra, depth), (entry.name, target, depth)
                statuses.add(out.status)
    assert statuses == {DISTINCT, INDISTINGUISHABLE}


def test_diff_rejects_depth_below_one():
    gens = compiled("1|101\n10|00\n011|11")
    psi = labeled(make_target(Fraction(1, 16)), "PSI")
    for depth in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            theory_diff(gens.channels(), (psi,), depth)


def test_diff_statuses_never_claim_equality():
    gens = compiled("0|0")
    out = theory_diff(gens.channels(), (), 2)
    assert out.status in (DISTINCT, INDISTINGUISHABLE)
    assert "equal" not in out.status
