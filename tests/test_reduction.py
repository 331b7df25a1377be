"""Generator compilation, channel algebra, membership search, and diffing."""

import dataclasses
import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from corpus import CORPUS, DEFAULT_PAIR, MIXED_CANCELLATION, compose, random_density
from oracles import (
    KrausChannel,
    block,
    block_diag,
    column,
    coordinates,
    det,
    gr,
    is_unitary,
    mat_sub,
    matrix_from_json,
    mul,
    orthogonal_map,
    quaternion_matrix,
    reference_apply,
    reference_choi,
    trace,
    zeros,
)
from freeops import cli
from freeops.exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
)
from freeops.freerot import (
    Q_IDENTITY,
    FreePair,
    RotationParams,
    encode_word,
    freeness_certificate,
    freeness_scan,
    make_free_pair,
    q_sign_key,
    rotation_quaternion,
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
IDENTITY = ChannelElement((Q_IDENTITY, Q_IDENTITY), Fraction(1))
CLASSIC3 = "1|101\n10|00\n011|11"
E0 = column([1, 0, 0, 0])
Y_AXIS_PAIR = make_free_pair(
    RotationParams(Fraction(5, 13), Fraction(12, 13), (0, 1, 0), (0, 0, 1))
)


def compiled(text, damping=HALF):
    return compile_generators(parse_instance(text), PAIR, damping)


def code(bits, a=A, b=B):
    """The 2x2 rotation product of a binary word."""
    m = ExactMatrix.identity(2)
    for ch in bits:
        m = m @ (a if ch == "0" else b)
    return m


def reference_operators(inst, a, b):
    """Each generator's operator built from the 2x2 rotation matrices a and
    b: M_i of x -> code(top_i) x code(bottom_i)^dag for E_i, and the column
    of f_i = code(top_i) code(bottom_i)^dag for R_i."""
    out = {}
    for i, (top, bottom) in enumerate(inst.tiles, start=1):
        t, u = code(top, a, b), code(bottom, a, b)
        out[f"E{i}"] = orthogonal_map(t, u)
        out[f"R{i}"] = column(coordinates(t @ u.dagger()))
    return out


def is_target_column(g):
    """Whether |g><g| = |1><1|: g = +-1."""
    return g == E0 or g == E0.scale(-1)


# --- compilation ------------------------------------------------------------------


def test_compile_first_tile_blocks():
    gens = compiled("0|100")
    (e1,), (r1,) = gens.e_gens, gens.r_gens
    assert quaternion_matrix(e1.quaternions) == block_diag(A, B @ A @ A)
    assert not e1.reset and r1.reset
    assert r1.operator() == column(coordinates(A @ (B @ A @ A).dagger()))
    assert (e1.label, r1.label) == ("E1", "R1")


def test_compile_matches_matrix_construction():
    for pair in (PAIR, Y_AXIS_PAIR):
        a, b = quaternion_matrix(pair.a), quaternion_matrix(pair.b)
        for entry in CORPUS:
            gens = compile_generators(entry.instance, pair, HALF)
            expected = reference_operators(entry.instance, a, b)
            assert sorted(ch.word[0] for ch in gens.channels()) == sorted(expected)
            for ch in gens.channels():
                assert ch.operator() == expected[ch.word[0]], (entry.name, ch.word)


def test_compile_rejects_bad_damping():
    inst = parse_instance("0|0")
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            compile_generators(inst, PAIR, bad)


def test_all_generators_exactly_unitary():
    for entry in CORPUS[:8]:
        gens = compile_generators(entry.instance, PAIR, HALF)
        for ch in gens.e_gens:
            m = ch.operator()
            assert m @ m.dagger() == ExactMatrix.identity(4) and m.dagger() == _transpose(m)
        for ch in gens.r_gens:
            g = ch.operator()
            assert g.dagger() @ g == ExactMatrix.identity(1)


def _transpose(m):
    return ExactMatrix.from_rows([[m.entry(i, j) for i in range(m.rows)] for j in range(m.cols)])


def test_matching_tile_telescopes():
    gens = compiled("0|0")
    assert gens.r_gens[0].operator() == E0
    assert gens.e_gens[0].operator() @ E0 == E0


def test_generator_set_json_bundle():
    gens = compiled("0|100")
    data = gens.to_json_dict()
    assert data["instance"]["tiles"] == [["0", "100"]]
    assert data["damping"] == {"E1": "1/2", "R1": "1/2"}
    assert list(data["operators"]) == ["E1", "R1"]
    assert matrix_from_json(data["operators"]["E1"]) == gens.e_gens[0].operator()
    assert matrix_from_json(data["operators"]["R1"]) == gens.r_gens[0].operator()


# --- channel algebra ----------------------------------------------------------------


def test_compose_identity_neutral():
    gens = compiled("0|100")
    for x in gens.channels():
        assert compose(IDENTITY, x) == x
        assert compose(x, IDENTITY) == x


def test_compose_damping_and_words():
    x = make_target(Fraction(1, 2))
    y = make_target(Fraction(1, 3))
    assert compose(x, y).damping == Fraction(1, 2)  # a reset absorbs what acts first
    gens = compiled("01|0\n1|11", Fraction(1, 3))
    e1, e2 = gens.e_gens
    r1 = gens.r_gens[0]
    assert compose(e1, e2).damping == Fraction(1, 9) and not compose(e1, e2).reset
    w = compose(e1, r1)
    assert w.word == ("E1", "R1") and w.reset and w.damping == Fraction(1, 9)
    assert compose(r1, e2).damping == Fraction(1, 3) and compose(r1, e2).reset


def test_compose_matches_sequential_application():
    rng = random.Random(321)
    gens = compiled(CLASSIC3)
    channels = gens.channels()
    for _ in range(100):
        x = rng.choice(channels)
        y = rng.choice(channels)
        rho = random_density(rng)
        assert compose(x, y).apply(rho) == x.apply(y.apply(rho))


def test_compose_associative():
    gens = compiled("01|0\n1|11")
    channels = gens.channels()
    for a in channels:
        for b in channels:
            for c in channels:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_apply_fixes_maximally_mixed():
    gens = compiled("0|100")
    mixed = ExactDensityMatrix.maximally_mixed(4)
    for ch in gens.e_gens:
        assert ch.apply(mixed) == mixed


def test_reset_output_ignores_input():
    rng = random.Random(17)
    gens = compiled(CLASSIC3)
    for ch in gens.r_gens + (make_target(Fraction(1, 3)),):
        outputs = {ch.apply(random_density(rng)) for _ in range(5)}
        outputs.add(ch.apply(ExactDensityMatrix.maximally_mixed(4)))
        assert len(outputs) == 1


def test_apply_identity_channel():
    rng = random.Random(7)
    rho = random_density(rng)
    assert IDENTITY.apply(rho) == rho


def test_apply_to_matrix_matches_reference_formula():
    rng = random.Random(2105)
    gens = compiled(CLASSIC3)
    channels = list(gens.channels()) + [
        IDENTITY,
        make_target(Fraction(1, 3)),
        compose(gens.e_gens[0], gens.e_gens[2]),
        compose(gens.e_gens[1], gens.r_gens[2]),
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
    for ch in (make_target(HALF), compiled("0|1").e_gens[0]):
        with pytest.raises(ShapeError):
            ch.apply(ExactDensityMatrix.maximally_mixed(2))


def test_target_on_basis_state():
    rho = ExactDensityMatrix.basis_state(4, 0)
    out = make_target(HALF).apply(rho)
    assert out.mat == ExactMatrix.diagonal(
        [gr("5/8"), gr("1/8"), gr("1/8"), gr("1/8")]
    )
    assert make_target(HALF).apply(ExactDensityMatrix.basis_state(4, 3)) == out


def test_target_domain():
    for bad in (Fraction(0), Fraction(1), Fraction(5, 4)):
        with pytest.raises(ValueError):
            make_target(bad)
    assert make_target(HALF).word == ()
    assert make_target(HALF).label == "target(1/2)"


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
    assert trace(choi(compiled("0|1").e_gens[0])) == gr(4)


def test_compiled_generators_are_cptp():
    gens = compiled(CLASSIC3)
    for ch in gens.channels():
        j = choi(ch)
        assert j.is_psd()
        assert j.partial_trace_first(4, 4) == ExactMatrix.identity(4)


def test_composed_channels_stay_cptp():
    gens = compiled("01|0\n1|11")
    for word in (
        compose(compose(gens.e_gens[0], gens.e_gens[1]), gens.r_gens[1]),
        compose(gens.r_gens[0], gens.e_gens[1]),
    ):
        j = choi(word)
        assert j.is_psd()
        assert j.partial_trace_first(4, 4) == ExactMatrix.identity(4)


def _matrix_unit(a, b):
    return ExactMatrix(4, 4, [int(k == 4 * a + b) for k in range(16)])


def test_choi_matches_kraus_definition():
    """Each compiled channel of classic3 against a Kraus list written from
    the definitions at damping p = 9/25, where p = (3/5)^2 and
    (1 - p)/4 = (2/5)^2 give rational Kraus operators: (3/5) M for E_i,
    (3/5) |f_i><b| per basis vector b for R_i, and (2/5) |a><b| per matrix
    unit for the depolarising part."""
    gens = compiled(CLASSIC3, Fraction(9, 25))
    mixing = [_matrix_unit(a, b).scale(Fraction(2, 5)) for a in range(4) for b in range(4)]
    expected = reference_operators(gens.instance, A, B)
    for ch in gens.channels():
        op = expected[ch.word[0]]
        if ch.reset:
            main = [op @ column([int(k == b) for k in range(4)]).dagger() for b in range(4)]
        else:
            main = [op]
        kraus = KrausChannel([k.scale(Fraction(3, 5)) for k in main] + mixing, ch.label)
        assert choi(ch) == choi(kraus), ch.label


def action_channels():
    """Every E_i and R_i of classic3 under the default pair at damping 1/2
    and under the y-axis pair at 2/3, and the targets at 1/16 and 9/25."""
    default = compiled(CLASSIC3).channels()
    y_axis = compile_generators(parse_instance(CLASSIC3), Y_AXIS_PAIR, Fraction(2, 3)).channels()
    return {
        **{f"default-{ch.label}": ch for ch in default},
        **{f"y-axis-{ch.label}": ch for ch in y_axis},
        **{f"target-{p}": make_target(Fraction(p)) for p in ("1/16", "9/25")},
    }


ACTION_CHANNELS = action_channels()
# Entries with independent parts up to 2^64 over denominators up to 2^32:
# operators that are not Hermitian, with complex traces, on no common denominator.
RATIONAL_PARTS = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**32))
OPERATORS = st.lists(
    st.builds(GaussianRational, RATIONAL_PARTS, RATIONAL_PARTS), min_size=16, max_size=16
).map(lambda entries: ExactMatrix(4, 4, entries))


# No shrinking: shrinking re-runs the Fraction-based reference on 64-bit
# entries until Hypothesis's five-minute shrink cap, so a failure reports
# the operator as drawn.
@settings(phases=[p for p in Phase if p is not Phase.shrink])
@given(st.sampled_from(sorted(ACTION_CHANNELS)), OPERATORS)
def test_apply_to_matrix_equals_reference(name, m):
    ch = ACTION_CHANNELS[name]
    assert ch.apply_to_matrix(m) == reference_apply(ch, m)


@pytest.mark.parametrize("name", ACTION_CHANNELS)
def test_choi_equals_reference(name):
    """The numerator assembly against the entry-by-entry one, on the
    channel's own action and on the step-by-step reference action."""
    ch = ACTION_CHANNELS[name]
    by_reference = SimpleNamespace(dim=4, apply_to_matrix=lambda m: reference_apply(ch, m))
    assert choi(ch) == reference_choi(ch) == reference_choi(by_reference)


# --- pair products -----------------------------------------------------------------------


def test_products_keep_block_structure():
    rng = random.Random(99)
    gens = compiled(CLASSIC3)
    for _ in range(50):
        product = IDENTITY
        for _ in range(rng.randint(1, 6)):
            product = compose(product, rng.choice(gens.e_gens))
        m = quaternion_matrix(product.quaternions)
        assert block(m, 0, 2, 2, 2) == zeros(2, 2)
        assert block(m, 2, 0, 2, 2) == zeros(2, 2)
        for corner in (block(m, 0, 0, 2, 2), block(m, 2, 2, 2, 2)):
            assert is_unitary(corner)
            assert det(corner) == gr(1)


# --- membership search -------------------------------------------------------------------


def _check_trivial_instance(mode):
    out = membership_search(compiled("0|0"), 1, mode=mode)
    assert out.status == FOUND
    assert out.witness == ("R1",)
    assert out.extracted == (1,)
    assert out.witness_damping == HALF
    assert out.depth_reached == 1


def test_membership_trivial_instance_generic():
    _check_trivial_instance("generic")


def test_membership_trivial_instance_structured():
    _check_trivial_instance("structured")


def test_membership_unsolvable_instance():
    gens = compiled("0|1")
    for mode in ("generic", "structured"):
        out = membership_search(gens, 8, mode=mode)
        assert out.status == EXHAUSTED
        assert out.witness is None
        assert not out.truncated
        assert out.depth_reached == 8


def test_membership_classic_instance():
    inst = parse_instance(CLASSIC3)
    gens = compile_generators(inst, PAIR, HALF)
    oracle = solve_bounded(inst, 4)
    for mode in ("generic", "structured"):
        out = membership_search(gens, 8, mode=mode)
        assert out.status == FOUND
        assert out.depth_reached == 4 == len(oracle.witness)
        assert out.witness == ("E1", "E3", "E2", "R3")
        assert out.extracted == (1, 3, 2, 3)
        assert verify_solution(inst, out.extracted)
        assert out.witness_damping == HALF ** 4


def test_membership_rejects_bad_args():
    gens = compiled("0|0")
    with pytest.raises(ValueError):
        membership_search(gens, 0)
    with pytest.raises(ValueError):
        membership_search(gens, 2, mode="diagonal")


def test_membership_budget_truncation():
    gens = compiled(CLASSIC3)
    for mode in ("generic", "structured"):
        out = membership_search(gens, 8, mode=mode, node_budget=5)
        assert out.status == EXHAUSTED
        assert out.truncated


# Budgets at and one below a level boundary: a search is truncated exactly
# when one more expansion was due, and a level cut short never counts as
# completed.  The diff rows count the expansions of f1's closure alone,
# and the explore and solve rows count expansions, not stored states or
# visited configurations.  A scan row also runs `verify-free`: a scan cut
# short with no collision reports the last length scanned in full and
# exits 10.  The generic, structured, diff and explore rows up to the
# 62-word scan rows were taken at the level boundaries of the former
# index-block channels; on the current channels their budgets either
# exceed what the search needs (generic finds classic3's solution at
# length 4 after 12 expansions) or cut a level short.  The rows after them
# sit at the current boundaries: on classic3, generic level s expands
# 3^(s-1) words by 3 letters and checks witness lengths 2s - 1 and 2s;
# structured level n keeps all 3^n vectors; the closure expands only its
# unitary channels, 3^(d-1) at depth d, by 6 letters; and explore from
# basis:0 finds 3 states at depth 1 (E_i and R_i give the same one) and 9
# at depth 2.
BUDGET_BOUNDARY = [
    # (search, depth or max_len, budget, expected)
    # scan: (scanned_max_len, words, truncated, verify-free exit code)
    ("scan", 3, 14, (3, 14, False, 0)),
    ("scan", 3, 13, (2, 13, True, 10)),
    ("scan", 4, 14, (3, 14, True, 10)),
    ("generic", 4, 42, (FOUND, 4, 12, False)),
    ("generic", 4, 41, (FOUND, 4, 12, False)),
    ("generic", 6, 42, (FOUND, 4, 12, False)),
    ("structured", 4, 12, (EXHAUSTED, 2, 12, True)),
    ("structured", 4, 11, (EXHAUSTED, 1, 11, True)),
    ("structured", 6, 12, (EXHAUSTED, 2, 12, True)),
    ("diff", 2, 42, (DISTINCT, 2, 24, False)),
    ("diff", 2, 41, (DISTINCT, 2, 24, False)),
    ("diff", 3, 56, (INDISTINGUISHABLE, 2, 56, True)),
    # explore: (stored states, edges = expansions, truncated)
    ("explore", 2, 36, (13, 24, False)),
    ("explore", 2, 35, (13, 24, False)),
    ("explore", 3, 36, (19, 36, True)),
    ("solve", 3, 9, (EXHAUSTED, 3, 9, False)),
    ("solve", 3, 8, (EXHAUSTED, 2, 8, True)),
    ("solve", 4, 9, (EXHAUSTED, 3, 9, True)),
    # 62 words fill lengths 1-5 and 126 fill lengths 1-6
    ("scan", 12, 100, (5, 100, True, 10)),
    ("scan", 12, 0, (0, 0, True, 10)),
    ("scan", 6, 126, (6, 126, False, 0)),
    ("scan", 6, 125, (5, 125, True, 10)),
    ("generic", 3, 12, (EXHAUSTED, 3, 12, False)),
    ("generic", 3, 11, (EXHAUSTED, 2, 11, True)),
    ("generic", 3, 3, (EXHAUSTED, 2, 3, True)),
    ("structured", 3, 39, (EXHAUSTED, 3, 39, False)),
    ("structured", 3, 38, (EXHAUSTED, 2, 38, True)),
    ("structured", 4, 39, (EXHAUSTED, 3, 39, True)),
    ("diff", 2, 24, (DISTINCT, 2, 24, False)),
    ("diff", 2, 23, (INDISTINGUISHABLE, 1, 23, True)),
    ("diff", 3, 24, (INDISTINGUISHABLE, 2, 24, True)),
    ("explore", 2, 24, (13, 24, False)),
    ("explore", 2, 23, (13, 23, True)),
    ("explore", 3, 24, (13, 24, True)),
]


@pytest.mark.parametrize("search,depth,budget,expected", BUDGET_BOUNDARY)
def test_budget_boundary_table(tmp_path, search, depth, budget, expected):
    gens = compiled(CLASSIC3)
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


def _bfs_target_word(gens, max_depth):
    """Oracle: the first generator word, in length-then-lexicographic order
    over the generator list, whose channel is a target, by plain BFS over
    every word.  A word's channel is folded letter by letter from the
    oracle's own M and g: a unitary prefix with matrix P takes E (M) to
    P M and R (g) to the reset onto P g, and a reset absorbs every later
    letter; the channel is a target when it resets onto +-1."""
    expected = reference_operators(gens.instance, A, B)
    letters = [(ch.word[0], ch.reset, expected[ch.word[0]]) for ch in gens.channels()]
    level = [((), False, ExactMatrix.identity(4))]
    for _ in range(max_depth):
        nxt = []
        for word, is_reset, m in level:
            for lab, reset, op in letters:
                child = (word + (lab,), True, m) if is_reset else (word + (lab,), reset, m @ op)
                nxt.append(child)
        level = nxt
        for word, is_reset, m in level:
            if is_reset and is_target_column(m):
                return word
    return None


def test_generic_witness_matches_bruteforce_bfs():
    depth = 5
    for entry in CORPUS:
        if entry.size > 3:
            continue
        gens = compile_generators(entry.instance, PAIR, HALF)
        expected = _bfs_target_word(gens, depth)
        out = membership_search(gens, depth, mode="generic")
        if expected is None:
            assert out.status == EXHAUSTED, entry.name
        else:
            assert out.status == FOUND, entry.name
            assert out.witness == expected, entry.name
            assert out.depth_reached == len(expected)


def test_channel_element_construction_check():
    good = compiled("0|100").e_gens[0].quaternions
    ch = ChannelElement(good, HALF, ("E1",))
    assert ch.quaternions == good and ch.dim == 4 and not ch.reset
    one = Q_IDENTITY
    malformed = [
        (1, 1, 0, 0, 1),  # norm 2
        (0, 0, 0, 0, 1),  # zero
        (3, 4, 0, 0, 1),  # norm 25 over denominator 1
        (2, 0, 0, 0, 2),  # unit, but not reduced
        (-1, 0, 0, 0, -1),  # unit, negative denominator
        (3, 0, 4, 0),  # length 4
        (1, 0, 0, 0, 1, 0),  # length 6
        (*one[:4], *one),  # a flat pair, length 9
    ]
    for bad in (
        (),  # no quaternion
        (one, one, one),  # three quaternions
        (*one[:4], *one),  # the flat nine integers of a pair
        one,  # one quaternion, not in a tuple
        *((q,) for q in malformed),  # a reset onto a malformed quaternion
        *((q, one) for q in malformed),  # a pair with its first member malformed
        *((one, q) for q in malformed),  # a pair with its second member malformed
    ):
        with pytest.raises(ValueError):
            ChannelElement(bad, HALF)
    reset = ChannelElement(((3, 0, 4, 0, 5),), HALF)
    assert reset.reset and reset.quaternions == ((3, 0, 4, 0, 5),)
    assert "reset" not in {f.name for f in dataclasses.fields(ChannelElement)}
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
    target = make_target(out.witness_damping)
    for _ in range(20):
        rho = random_density(rng)
        assert channel.apply(rho) == target.apply(rho)
    assert choi(channel) == choi(target)


def test_found_witness_is_cross_checked(monkeypatch):
    """A witness whose channel is not the target fails the Choi check."""
    from freeops import reduction

    gens = compiled("0|0\n1|0")
    real = reduction._found_outcome
    monkeypatch.setattr(
        reduction, "_found_outcome", lambda g, mode, tiles, n: real(g, mode, (2,), n)
    )
    with pytest.raises(reduction.WitnessMismatchError, match="not the target"):
        membership_search(gens, 2)


def test_mixed_cancellation_shortcut():
    # Tile 3's bottom word is a suffix of its top word, which let the former
    # index-block encoding find a scalar word of length 6, below 2 x 4.  Both
    # modes find the tile solution itself.
    inst = MIXED_CANCELLATION.instance
    gens = compile_generators(inst, PAIR, HALF)
    for mode in ("generic", "structured"):
        out = membership_search(gens, 8, mode=mode)
        assert out.status == FOUND
        assert out.witness == ("E2", "E1", "E1", "R3")
        assert out.depth_reached == 4
        assert out.extracted == (2, 1, 1, 3)
        assert verify_solution(inst, out.extracted)


def test_phase_canonical_identifies_phase_multiples():
    gens = compiled("0|100")
    for ch in gens.channels():
        u = ch.operator()
        for phase in (gr(1), gr(-1), gr(0, 1), gr(0, -1)):
            assert phase_canonical(u.scale(phase)) == phase_canonical(u)
    assert phase_canonical(gens.e_gens[0].operator()) != phase_canonical(IDENTITY.operator())


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
        assert out.witness["digest"] == phase_canonical(E0).digest()
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
    assert realized == {"realized_by": ["E1", "R1"], "at_depth": 2}
    by_label = {ch.word[0]: ch for ch in f1}
    channel = compose(by_label["E1"], by_label["R1"])
    assert choi(channel) == choi(make_target(Fraction(1, 4)))


def test_diff_closure_without_children_reports_depth_bound():
    """E1 = (a, a), a = psi("0") = i for the forced cos 0 / sin 1 pair about
    z and x: E1 E1 is the identity channel again, so the closure runs out of
    children after two expansions.  It then holds every word, and diff
    reports the depth bound, unlike solve-pcp and structured membership,
    which report the level where they ran out."""
    z, x = (0, 0, 1), (1, 0, 0)
    params = RotationParams(Fraction(0), Fraction(1), z, x)
    pair = FreePair(*(rotation_quaternion(params.cos, params.sin, axis) for axis in (z, x)), params)
    a = encode_word(pair, "0")
    e1 = ChannelElement((a, a), Fraction(1), ("E1",))
    psi = labeled(make_target(Fraction(1, 4)), "PSI")
    for depth in (2, 3, 4, 6, 9):
        out = theory_diff((e1,), (psi,), depth)
        assert out.status == DISTINCT and out.witness["label"] == "PSI"
        assert out.nodes_expanded == 2
        assert out.depth_reached == depth
        assert not out.truncated


def test_diff_truncated_reports_completed_depth():
    gens = compiled("0|1")
    f1 = gens.channels()
    extra = (labeled(make_target(Fraction(1, 4)), "PSI"),)
    full = theory_diff(f1, extra, 4)
    assert not full.truncated and full.depth_reached == 4
    # f1's closure (2 letters) expands one unitary channel per level, so it
    # completes depth 3 within 6 expansions; its fourth level is cut after one
    out = theory_diff(f1, extra, 4, node_budget=7)
    assert out.truncated
    assert out.depth_reached == 3
    assert out.nodes_expanded == 7
    assert out.status == INDISTINGUISHABLE and out.witness is None
    # a budget that cuts level 1 completes nothing
    assert theory_diff(f1, extra, 4, node_budget=1).depth_reached == 0


def _key(ch):
    return (tuple(map(q_sign_key, ch.quaternions)), ch.damping.numerator, ch.damping.denominator)


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
            hit = other.get(_key(ch))
            if hit is not None:
                matches.setdefault(
                    f"f{side}:{ch.label}",
                    {"realized_by": list(hit[0]), "at_depth": hit[1]},
                )
            elif witness is None:
                witness = {
                    "side": side,
                    "label": ch.label,
                    "damping": str(ch.damping),
                    "digest": phase_canonical(ch.operator()).digest(),
                }
    status = DISTINCT if witness is not None else INDISTINGUISHABLE
    return status, witness, matches, min(done1, done2)


def test_closure_damping_keys_are_reduced_letter_products():
    """Every closure element's key is that of its word's composed channel
    (corpus.compose), its damping the Fraction product of the word's letter
    dampings in lowest terms.  The letters mix 1/2, 2/3 and 3/4 (given as
    6/8), so that products such as 2/3 * 3/4 = 6/12 need reducing.  A word
    ends at its first reset, and only unitary channels are expanded."""
    dampings = [HALF, Fraction(2, 3), Fraction(6, 8)]
    gens = compiled(CLASSIC3)
    letters = [
        dataclasses.replace(ch, damping=dampings[k % 3])
        for k, ch in enumerate(gens.channels())
    ]
    by_label = {ch.label: ch for ch in letters}
    elems, expanded, truncated, done = _closure(letters, 3, 500_000)
    assert (expanded, truncated, done) == (6 + 18 + 54, False, 3)
    unreduced = resets = 0
    for key, (word, depth) in elems.items():
        assert depth == len(word)
        channel = IDENTITY
        nums = dens = 1
        for k, label in enumerate(word):
            ch = by_label[label]
            assert not (ch.reset and k < len(word) - 1)
            channel = compose(channel, ch)
            nums *= ch.damping.numerator
            dens *= ch.damping.denominator
        assert key == _key(channel)
        unreduced += gcd(nums, dens) > 1
        resets += channel.reset
    assert unreduced > 0 and resets > 0


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
    gens = compiled(CLASSIC3)
    psi = labeled(make_target(Fraction(1, 16)), "PSI")
    for depth in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            theory_diff(gens.channels(), (psi,), depth)


def test_diff_statuses_never_claim_equality():
    gens = compiled("0|0")
    out = theory_diff(gens.channels(), (), 2)
    assert out.status in (DISTINCT, INDISTINGUISHABLE)
    assert "equal" not in out.status
