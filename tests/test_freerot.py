"""Rotation-pair construction, word encoding, and freeness scanning."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corpus import CORPUS
from freeops.exact import ExactMatrix, block_diag, gr
from freeops.freerot import (
    AxisError,
    FreenessError,
    FreePair,
    PythagoreanError,
    RotationParams,
    encode_word,
    freeness_scan,
    make_free_pair,
    q_adjoint,
    q_identity,
    q_is_scalar,
    q_mul,
    q_phase_key,
    quaternion_matrix,
    rotation_matrix,
    standard_params,
    to_quaternions,
)
from freeops.reduction import compile_generators, phase_canonical

PAIR = make_free_pair(standard_params())

words = st.text(alphabet="01", max_size=10)


def test_standard_pair_matrices():
    assert PAIR.a == ExactMatrix.diagonal([gr("3/5", "4/5"), gr("3/5", "-4/5")])
    assert PAIR.b == ExactMatrix.from_rows(
        [[gr("3/5"), gr(0, "4/5")], [gr(0, "4/5"), gr("3/5")]]
    )


def test_standard_pair_digests_differ():
    assert PAIR.a != PAIR.b
    assert PAIR.a.digest() != PAIR.b.digest()


def test_standard_pair_is_special_unitary():
    for m in (PAIR.a, PAIR.b):
        assert m.is_unitary()
        assert m.det() == gr(1)
        assert m.dagger() @ m == ExactMatrix.identity(2)


def test_excluded_cosine_rejected():
    params = RotationParams(
        cos_theta=Fraction(1, 2),
        sin_theta=Fraction(1, 2),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )
    with pytest.raises(FreenessError):
        make_free_pair(params)


def test_parallel_axes_rejected():
    params = RotationParams(
        cos_theta=Fraction(3, 5),
        sin_theta=Fraction(4, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(0), Fraction(0), Fraction(1)),
    )
    with pytest.raises(AxisError):
        make_free_pair(params)


def test_non_unit_axis_rejected():
    params = RotationParams(
        cos_theta=Fraction(3, 5),
        sin_theta=Fraction(4, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(2)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )
    with pytest.raises(AxisError):
        make_free_pair(params)


def test_non_pythagorean_rejected():
    params = RotationParams(
        cos_theta=Fraction(3, 5),
        sin_theta=Fraction(3, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )
    with pytest.raises(PythagoreanError):
        make_free_pair(params)


def test_other_pythagorean_triple_accepted():
    params = RotationParams(
        cos_theta=Fraction(5, 13),
        sin_theta=Fraction(12, 13),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    )
    pair = make_free_pair(params)
    assert pair.a.is_unitary() and pair.b.is_unitary()


# --- the word encoding -----------------------------------------------------------


def test_empty_word_is_identity():
    assert encode_word(PAIR, "") == ExactMatrix.identity(2)


def test_word_010_is_aba():
    assert encode_word(PAIR, "010") == PAIR.a @ PAIR.b @ PAIR.a


def test_word_rejects_other_letters():
    with pytest.raises(ValueError):
        encode_word(PAIR, "012")


@settings(max_examples=500)
@given(words, words)
def test_encoding_is_homomorphism(u, v):
    assert encode_word(PAIR, u + v) == encode_word(PAIR, u) @ encode_word(PAIR, v)


def test_homomorphism_instance():
    assert encode_word(PAIR, "01") @ encode_word(PAIR, "0") == encode_word(PAIR, "010")


# --- powers ------------------------------------------------------------------------


def test_power_basics():
    assert PAIR.a.pow(1) == PAIR.a
    assert PAIR.a.pow(2) == PAIR.a @ PAIR.a


def test_cube_trace():
    # cos(3t) = 4cos^3(t) - 3cos(t) = -117/125 at cos(t) = 3/5
    assert PAIR.a.pow(3).trace() == gr(Fraction(-234, 125))


def test_power_additive():
    for i in range(0, 5):
        for j in range(0, 5):
            assert PAIR.a.pow(i) @ PAIR.a.pow(j) == PAIR.a.pow(i + j)


# --- freeness scanning ---------------------------------------------------------------


def test_scan_standard_pair_len10():
    report = freeness_scan(PAIR, 10)
    assert report.is_empty
    assert report.word_count == 2046
    assert not report.truncated


def test_scan_len1():
    report = freeness_scan(PAIR, 1)
    assert report.is_empty
    assert report.word_count == 2


def test_scan_determinant_one_everywhere():
    # every nonempty word up to length 6 stays in SU(2)
    from itertools import product

    for n in range(1, 7):
        for bits in product("01", repeat=n):
            assert encode_word(PAIR, "".join(bits)).det() == gr(1)


def _inverse_pair() -> FreePair:
    params = standard_params()
    a = rotation_matrix(params.cos_theta, params.sin_theta, params.axis_a)
    b = rotation_matrix(
        params.cos_theta,
        params.sin_theta,
        (Fraction(0), Fraction(0), Fraction(-1)),
    )
    return FreePair(a=a, b=b, params=params)


def test_scan_flags_engineered_cancellation():
    pair = _inverse_pair()
    assert pair.a @ pair.b == ExactMatrix.identity(2)
    report = freeness_scan(pair, 2)
    assert "01" in report.scalar_words
    assert "10" in report.scalar_words
    assert ("01", "10") in report.collisions


def test_scan_budget_truncation():
    report = freeness_scan(PAIR, 12, node_budget=100)
    assert report.truncated
    assert report.word_count == 100


def test_scan_worker_counts_agree():
    # the scan is single-threaded; repeat runs must agree exactly
    runs = [freeness_scan(PAIR, 8) for _ in range(3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_report_json_shape():
    report = freeness_scan(_inverse_pair(), 2)
    data = report.to_json_dict()
    assert data["scanned_max_len"] == 2
    assert data["word_count"] == 6
    assert {"word_a": "01", "word_b": "10"} in data["collisions"]
    assert data["truncated"] is False


# --- quaternion kernel -------------------------------------------------------------


def _letter_sets():
    """Letter sets for random words: the free pair, and each corpus
    instance's compiled unitaries plus their adjoints and diag(I, -I), so
    that words can cancel and blocks can disagree in sign."""
    sets = [[PAIR.a, PAIR.b, PAIR.a.dagger(), PAIR.b.dagger()]]
    flip = block_diag(ExactMatrix.identity(2), ExactMatrix.identity(2).scale(-1))
    for entry in CORPUS:
        gens = compile_generators(entry.instance, PAIR, Fraction(1, 2))
        units = [ch.unitary for ch in gens.channels()]
        sets.append(units + [u.dagger() for u in units] + [flip])
    return sets


LETTER_SETS = _letter_sets()


def _word_product(letters, word):
    """(ExactMatrix product, quaternion product) of a word over letters."""
    m = ExactMatrix.identity(letters[0].rows)
    q = q_identity(letters[0].rows // 2)
    for i in word:
        m = m @ letters[i]
        q = q_mul(q, to_quaternions(letters[i]))
    return m, q


@given(st.data())
@settings(max_examples=150)
def test_quaternion_kernel_matches_matrix_oracle(data):
    letters = data.draw(st.sampled_from(LETTER_SETS))
    index = st.integers(0, len(letters) - 1)
    mu, qu = _word_product(letters, data.draw(st.lists(index, max_size=6)))
    mv, qv = _word_product(letters, data.draw(st.lists(index, max_size=6)))
    assert to_quaternions(mu) == qu
    assert quaternion_matrix(qu) == mu
    assert quaternion_matrix(q_mul(qu, qv)) == mu @ mv
    assert quaternion_matrix(q_adjoint(qu)) == mu.dagger()
    for q, m in ((qu, mu), (q_mul(qu, q_adjoint(qv)), mu @ mv.dagger())):
        assert q_is_scalar(q) == m.is_scalar()
    minus_one = tuple(-v for v in q_identity(len(qu) // 4)[:-1]) + (1,)
    neg = q_mul(qu, minus_one)
    assert quaternion_matrix(neg) == mu.scale(-1)
    for qa, ma, qb, mb in ((qu, mu, qv, mv), (qu, mu, neg, mu.scale(-1))):
        same_key = q_phase_key(qa) == q_phase_key(qb)
        assert same_key == (phase_canonical(ma) == phase_canonical(mb))


def test_quaternion_scalar_needs_equal_real_blocks():
    for q, scalar in (
        ((1, 0, 0, 0, 1, 0, 0, 0, 1), True),
        ((-3, 0, 0, 0, -3, 0, 0, 0, 5), True),
        ((1, 0, 0, 0, -1, 0, 0, 0, 1), False),
        ((0, 1, 0, 0, 0, 1, 0, 0, 1), False),
    ):
        assert q_is_scalar(q) is scalar
        assert quaternion_matrix(q).is_scalar() is scalar


def test_to_quaternions_rejects_other_forms():
    swap = ExactMatrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    for m in (
        ExactMatrix.diagonal([gr(0, 1), gr(1)]),  # unitary, not in SU(2)
        swap,  # unitary, not block-diagonal
        ExactMatrix.identity(3),
        ExactMatrix.zeros(2, 4),
    ):
        with pytest.raises(ValueError):
            to_quaternions(m)
