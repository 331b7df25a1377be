"""Instance parsing, homomorphism application, and the bounded solver."""

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS, enumerate_solutions
from freeops.pcp import (
    EXHAUSTED,
    FOUND,
    DegenerateTileError,
    InstanceParseError,
    PCPInstance,
    apply_hom,
    parse_instance,
    solve_bounded,
    verify_solution,
)

CLASSIC = PCPInstance((("1", "101"), ("10", "00"), ("011", "11")))


# --- parsing -----------------------------------------------------------------


def test_parse_single_tile():
    inst = parse_instance("0|100")
    assert inst.tiles == (("0", "100"),)


def test_parse_classic():
    inst = parse_instance("1|101\n10|00\n011|11")
    assert inst == CLASSIC


def test_parse_comments_and_blanks():
    text = "# tiles below\n\n1|101   # first\n10|00\n  011|11\n"
    assert parse_instance(text) == CLASSIC


def test_parse_rejects_non_binary():
    with pytest.raises(InstanceParseError) as err:
        parse_instance("0|2")
    assert err.value.line == 1


def test_parse_error_line_number():
    with pytest.raises(InstanceParseError) as err:
        parse_instance("0|0\n1|1\nx|0")
    assert err.value.line == 3


def test_parse_rejects_empty_instance():
    with pytest.raises(InstanceParseError) as err:
        parse_instance("# nothing here\n")
    assert err.value.line is None
    assert str(err.value) == "no tiles in instance"


def test_parse_rejects_missing_separator():
    with pytest.raises(InstanceParseError):
        parse_instance("0100")


def test_parse_allows_empty_sides():
    inst = parse_instance("01|011\n1|")
    assert inst.tiles[1] == ("1", "")


def test_instance_text_round_trip():
    assert parse_instance(CLASSIC.to_text()) == CLASSIC


# --- homomorphism application ---------------------------------------------------


def test_apply_hom_classic_solution():
    word = (1, 3, 2, 3)
    assert apply_hom(CLASSIC, "top", word) == "101110011"
    assert apply_hom(CLASSIC, "bottom", word) == "101110011"


def test_apply_hom_single_tile():
    for idx, (top, bottom) in enumerate(CLASSIC.tiles, start=1):
        assert apply_hom(CLASSIC, "top", (idx,)) == top
        assert apply_hom(CLASSIC, "bottom", (idx,)) == bottom


def test_apply_hom_rejects_bad_index():
    with pytest.raises(ValueError):
        apply_hom(CLASSIC, "top", (4,))
    with pytest.raises(ValueError):
        apply_hom(CLASSIC, "middle", (1,))


@settings(max_examples=500)
@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=12),
    st.lists(st.integers(min_value=1, max_value=3), max_size=12),
)
def test_apply_hom_is_homomorphism(u, v):
    u, v = tuple(u), tuple(v)
    for side in ("top", "bottom"):
        assert apply_hom(CLASSIC, side, u + v) == apply_hom(
            CLASSIC, side, u
        ) + apply_hom(CLASSIC, side, v)


# --- verification ------------------------------------------------------------------


def test_verify_examples():
    assert verify_solution(PCPInstance((("0", "0"),)), (1,))
    assert verify_solution(CLASSIC, (1, 3, 2, 3))
    assert not verify_solution(CLASSIC, (1,))
    with pytest.raises(ValueError):
        verify_solution(CLASSIC, ())


# --- bounded solving -----------------------------------------------------------------


def test_solve_trivial_tile():
    out = solve_bounded(PCPInstance((("0", "0"),)), 3)
    assert out.status == FOUND
    assert out.witness == (1,)
    assert out.depth_reached == 1


def test_solve_impossible_tile():
    """The one tile mismatches at once, so level 1 leaves no configuration
    and the search reports that level, not the depth it was given."""
    for depth in (1, 5, 12):
        out = solve_bounded(PCPInstance((("0", "1"),)), depth)
        assert out.status == EXHAUSTED
        assert out.witness is None
        assert out.depth_reached == 1


def test_solve_classic():
    out = solve_bounded(CLASSIC, 6)
    assert out.status == FOUND
    assert out.witness == (1, 3, 2, 3)


def test_found_witnesses_verify_and_are_minimal():
    for entry in CORPUS:
        out = solve_bounded(entry.instance, 6)
        if entry.solvable:
            sols = enumerate_solutions(entry.tiles, 6)
            min_len = min(len(w) for w in sols)
            least = min(w for w in sols if len(w) == min_len)
            assert out.status == FOUND, entry.name
            assert verify_solution(entry.instance, out.witness)
            assert len(out.witness) == min_len == entry.min_len
            assert out.witness == least == entry.witness
        else:
            assert out.status == EXHAUSTED, entry.name
            assert not enumerate_solutions(entry.tiles, 6)


def test_solver_unsolvable_to_depth_ten():
    for entry in CORPUS:
        if not entry.solvable:
            out = solve_bounded(entry.instance, 10)
            assert out.status == EXHAUSTED
            assert not out.truncated


def test_solver_determinism_and_workers():
    # the solver is single-threaded; repeat runs must agree exactly
    runs = [solve_bounded(CLASSIC, 6) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_degenerate_tile_rejected():
    inst = PCPInstance((("0", "0"), ("", "")))
    with pytest.raises(DegenerateTileError):
        solve_bounded(inst, 3)


def test_budget_truncation_flagged():
    # instance with an ever-growing overhang: the drifting one
    inst = PCPInstance((("0", "011"), ("1", "0")))
    out = solve_bounded(inst, 50, node_budget=10)
    assert out.status == EXHAUSTED
    assert out.truncated


def test_search_outcome_json():
    out = solve_bounded(CLASSIC, 6)
    data = out.to_json_dict()
    assert data["status"] == "found"
    assert data["witness"] == [1, 3, 2, 3]
    assert data["truncated"] is False
