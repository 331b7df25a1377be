"""Generator compilation, channel algebra, membership search, and diffing."""

import dataclasses
import random
from fractions import Fraction

import pytest

from corpus import CORPUS, random_density
from freeops.exact import (
    ExactDensityMatrix,
    ExactMatrix,
    ShapeError,
    block_diag,
    gr,
)
from freeops.freerot import encode_word, make_free_pair, standard_params
from freeops.pcp import parse_instance, solve_bounded, verify_solution
from freeops.reduction import (
    DISTINCT,
    EXHAUSTED,
    FOUND,
    INDISTINGUISHABLE,
    ChannelElement,
    choi,
    compile_generators,
    compose,
    labeled,
    make_target,
    membership_search,
    phase_canonical,
    theory_diff,
)

PAIR = make_free_pair(standard_params())
HALF = Fraction(1, 2)


def compiled(text, damping=HALF):
    return compile_generators(parse_instance(text), PAIR, damping)


# --- compilation ------------------------------------------------------------------


def test_compile_first_tile_blocks():
    gens = compiled("0|100")
    a, b = PAIR.a, PAIR.b
    assert gens.h_gens[0].unitary == block_diag(a, a @ b)
    assert gens.g_gens[0].unitary == block_diag(
        (b @ a @ a).dagger(), (a @ b).dagger()
    )


def test_compile_index_blocks_track_tile_number():
    gens = compiled("0|0\n1|1\n01|10")
    a, b = PAIR.a, PAIR.b
    for i, h in enumerate(gens.h_gens, start=1):
        assert h.unitary.block(2, 2, 2, 2) == a.pow(i) @ b


def test_compile_rejects_bad_damping():
    inst = parse_instance("0|0")
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            compile_generators(inst, PAIR, bad)


def test_all_generators_exactly_unitary():
    for entry in CORPUS[:8]:
        gens = compile_generators(entry.instance, PAIR, HALF)
        for ch in gens.channels():
            assert ch.unitary.is_unitary()


def test_matching_tile_telescopes():
    gens = compiled("0|0")
    product = gens.g_gens[0].unitary @ gens.h_gens[0].unitary
    assert product == ExactMatrix.identity(4)


def test_generator_set_json_bundle():
    gens = compiled("0|100")
    data = gens.to_json_dict()
    assert data["instance"]["tiles"] == [["0", "100"]]
    assert data["damping"]["H1"] == "1/2"
    assert set(data["unitaries"]) == {"H1", "G1"}
    assert ExactMatrix.from_json_dict(data["unitaries"]["G1"]) == gens.g_gens[0].unitary


# --- channel algebra ----------------------------------------------------------------


def test_compose_identity_neutral():
    gens = compiled("0|100")
    ident = ChannelElement.identity_element(4)
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
    assert ChannelElement.identity_element(4).apply(rho) == rho


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
    j = choi(ChannelElement.identity_element(4))
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
    assert choi(make_target(HALF)).trace() == gr(4)


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
            product = product @ rng.choice(channels).unitary
        assert product.block(0, 2, 2, 2) == ExactMatrix.zeros(2, 2)
        assert product.block(2, 0, 2, 2) == ExactMatrix.zeros(2, 2)
        for corner in (product.block(0, 0, 2, 2), product.block(2, 2, 2, 2)):
            assert corner.is_unitary()
            assert corner.det() == gr(1)


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


def test_membership_worker_counts_agree():
    # the searches are single-threaded; repeat runs must agree exactly
    gens = compiled("01|0\n1|11")
    for mode in ("generic", "structured"):
        runs = [membership_search(gens, 4, mode=mode) for _ in range(3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]


def _bfs_scalar_word(gens, max_depth):
    """Oracle: the first scalar word in length-then-lexicographic order over
    the generator list, by plain BFS over ExactMatrix products."""
    letters = [(ch.word[0], ch.unitary) for ch in gens.channels()]
    level = [((), ExactMatrix.identity(4))]
    for _ in range(max_depth):
        level = [(w + (lab,), m @ u) for w, m in level for lab, u in letters]
        for word, m in level:
            if m.is_scalar():
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


def test_searches_reject_unitaries_outside_quaternion_form():
    swap = ExactMatrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    channel = ChannelElement(swap, HALF, ("S",))
    with pytest.raises(ValueError):
        theory_diff([channel], [channel], 2)
    gens = compiled("0|0")
    bad = dataclasses.replace(gens, h_gens=(channel,))
    for mode in ("generic", "structured"):
        with pytest.raises(ValueError):
            membership_search(bad, 2, mode=mode)


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
    h3 = gens.h_gens[2].unitary
    g3 = gens.g_gens[2].unitary
    assert h3 @ g3 == block_diag(encode_word(PAIR, "1"), ExactMatrix.identity(2))
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
    u = gens.h_gens[0].unitary
    for phase in (gr(1), gr(-1), gr(0, 1), gr(0, -1)):
        assert phase_canonical(u.scale(phase)) == phase_canonical(u)
    assert phase_canonical(u) != phase_canonical(gens.g_gens[0].unitary)


# --- theory diffing ---------------------------------------------------------------------


def test_diff_unsolvable_distinct_at_depth_one():
    gens = compiled("0|1")
    f1 = gens.channels()
    psi = labeled(make_target(Fraction(1, 4)), "PSI")
    for depth in (1, 2, 4, 6):
        out = theory_diff(f1, f1 + (psi,), depth)
        assert out.status == DISTINCT
        assert out.witness["label"] == "PSI"
        assert out.witness["side"] == 2
        assert not out.truncated


def test_diff_identical_sets():
    gens = compiled("0|1")
    for depth in (1, 3):
        out = theory_diff(gens.channels(), gens.channels(), depth)
        assert out.status == INDISTINGUISHABLE
        assert out.witness is None


def test_diff_solvable_realizes_target():
    gens = compiled("0|0")
    f1 = gens.channels()
    psi = labeled(make_target(Fraction(1, 4)), "PSI")
    out = theory_diff(f1, f1 + (psi,), 2)
    assert out.status == INDISTINGUISHABLE
    realized = out.matches["f2:PSI"]
    assert realized["at_depth"] == 2
    by_label = {ch.word[0]: ch.unitary for ch in f1}
    product = ExactMatrix.identity(4)
    for lab in realized["realized_by"]:
        product = product @ by_label[lab]
    assert product.is_scalar()


def test_diff_truncated_reports_completed_depth():
    gens = compiled("0|1")
    f1 = gens.channels()
    f2 = f1 + (labeled(make_target(Fraction(1, 4)), "PSI"),)
    full = theory_diff(f1, f2, 4)
    assert not full.truncated and full.depth_reached == 4
    # f1 (2 letters) completes depth 2 within 7 expansions (2 + 4) but f2
    # (3 letters) only depth 1 (3, then its second level is cut)
    out = theory_diff(f1, f2, 4, node_budget=7)
    assert out.truncated
    assert out.depth_reached == 1
    assert out.nodes_expanded == 14
    # a budget that only cuts level 1 of both closures completes nothing
    assert theory_diff(f1, f2, 4, node_budget=1).depth_reached == 0


def test_diff_statuses_never_claim_equality():
    gens = compiled("0|0")
    out = theory_diff(gens.channels(), gens.channels(), 2)
    assert out.status in (DISTINCT, INDISTINGUISHABLE)
    assert "equal" not in out.status
