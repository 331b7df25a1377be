"""Rotation-pair construction, word encoding, and freeness scanning."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from corpus import CORPUS, DEFAULT_PAIR
from oracles import (
    as_scalar,
    block,
    block_diag,
    det,
    gr,
    is_unitary,
    mat_pow,
    q_is_scalar,
    quaternion_matrix,
    reference_scan,
    trace,
)
from freeops.exact import ExactMatrix, GaussianRational
from freeops.freerot import (
    Q_IDENTITY,
    AxisError,
    Collision,
    CollisionReport,
    FreenessError,
    FreePair,
    PythagoreanError,
    RotationParams,
    encode_word,
    freeness_certificate,
    freeness_scan,
    hamilton,
    make_free_pair,
    q_adjoint,
    q_mul,
    q_sign_key,
    rotation_quaternion,
)
from freeops.reduction import compile_generators, phase_canonical
from freeops.util import level_pairs

PAIR = DEFAULT_PAIR
A = quaternion_matrix(PAIR.a)
B = quaternion_matrix(PAIR.b)

words = st.text(alphabet="01", max_size=10)


def reference_rotation(cos_t, sin_t, axis) -> ExactMatrix:
    """The rotation cos*I + i*sin*(axis . sigma) spelled out as a 2x2
    matrix over Q(i)."""
    nx, ny, nz = axis
    return ExactMatrix.from_rows(
        [
            [GaussianRational(cos_t, sin_t * nz), GaussianRational(sin_t * ny, sin_t * nx)],
            [GaussianRational(-sin_t * ny, sin_t * nx), GaussianRational(cos_t, -sin_t * nz)],
        ]
    )


def reference_word(a: ExactMatrix, b: ExactMatrix, bits: str) -> ExactMatrix:
    """The matrix product that a binary word stands for."""
    m = ExactMatrix.identity(2)
    for ch in bits:
        m = m @ (a if ch == "0" else b)
    return m


def is_canonical(q) -> bool:
    """Positive denominator and no common factor, as every builder returns."""
    return q[-1] > 0 and gcd(*q) == 1


def test_standard_pair_matrices():
    assert A == ExactMatrix.diagonal([gr("3/5", "4/5"), gr("3/5", "-4/5")])
    assert B == ExactMatrix.from_rows(
        [[gr("3/5"), gr(0, "4/5")], [gr(0, "4/5"), gr("3/5")]]
    )


def test_standard_pair_digests_differ():
    assert PAIR.a != PAIR.b
    assert A.digest() != B.digest()


def test_standard_pair_is_special_unitary():
    for m in (A, B):
        assert is_unitary(m)
        assert det(m) == gr(1)
        assert m.dagger() @ m == ExactMatrix.identity(2)


def test_excluded_cosine_rejected():
    params = RotationParams(
        cos=Fraction(1, 2),
        sin=Fraction(1, 2),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )
    with pytest.raises(FreenessError):
        make_free_pair(params)


def test_parallel_axes_rejected():
    params = RotationParams(
        cos=Fraction(3, 5),
        sin=Fraction(4, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(0), Fraction(0), Fraction(1)),
    )
    with pytest.raises(AxisError):
        make_free_pair(params)


def test_non_unit_axis_rejected():
    params = RotationParams(
        cos=Fraction(3, 5),
        sin=Fraction(4, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(2)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )
    with pytest.raises(AxisError):
        make_free_pair(params)


def test_non_pythagorean_rejected():
    params = RotationParams(
        cos=Fraction(3, 5),
        sin=Fraction(3, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )
    with pytest.raises(PythagoreanError):
        make_free_pair(params)


def test_other_pythagorean_triple_accepted():
    params = RotationParams(
        cos=Fraction(5, 13),
        sin=Fraction(12, 13),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    )
    pair = make_free_pair(params)
    assert is_unitary(quaternion_matrix(pair.a)) and is_unitary(quaternion_matrix(pair.b))
    for q, axis in ((pair.a, params.axis_a), (pair.b, params.axis_b)):
        assert quaternion_matrix(q) == reference_rotation(params.cos, params.sin, axis)


ONE, ZERO = Fraction(1), Fraction(0)
SIGNED_AXES = [
    tuple(sign * ONE if k == j else ZERO for k in range(3)) for j in range(3) for sign in (1, -1)
] + [(Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))]


def test_rotation_quaternion_matches_matrix_formula():
    angles = [
        (Fraction(sc * a, c), Fraction(ss * b, c))
        for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17))
        for sc, ss in product((1, -1), repeat=2)
    ]
    # the formula holds without the validation make_free_pair adds
    angles += [(ZERO, ONE), (Fraction(1, 2), Fraction(1, 2))]
    for (cos_t, sin_t), axis in product(angles, SIGNED_AXES):
        q = rotation_quaternion(cos_t, sin_t, axis)
        assert len(q) == 5 and is_canonical(q)
        assert quaternion_matrix(q) == reference_rotation(cos_t, sin_t, axis), (cos_t, sin_t, axis)


# --- the word encoding -----------------------------------------------------------


def test_empty_word_is_identity():
    assert encode_word(PAIR, "") == Q_IDENTITY
    assert quaternion_matrix(encode_word(PAIR, "")) == ExactMatrix.identity(2)


def test_word_010_is_aba():
    assert quaternion_matrix(encode_word(PAIR, "010")) == A @ B @ A


def test_word_rejects_other_letters():
    with pytest.raises(ValueError):
        encode_word(PAIR, "012")


@settings(max_examples=500)
@given(words, words)
def test_encoding_is_homomorphism(u, v):
    assert encode_word(PAIR, u + v) == q_mul(encode_word(PAIR, u), encode_word(PAIR, v))
    assert quaternion_matrix(encode_word(PAIR, u + v)) == quaternion_matrix(
        encode_word(PAIR, u)
    ) @ quaternion_matrix(encode_word(PAIR, v))


Y_AXIS = make_free_pair(
    RotationParams(Fraction(5, 13), Fraction(12, 13), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
)


@settings(max_examples=300)
@given(words, st.sampled_from([PAIR, Y_AXIS]))
def test_encode_word_matches_matrix_product(bits, pair):
    p = pair.params
    a = reference_rotation(p.cos, p.sin, p.axis_a)
    b = reference_rotation(p.cos, p.sin, p.axis_b)
    q = encode_word(pair, bits)
    assert is_canonical(q)
    assert quaternion_matrix(q) == reference_word(a, b, bits)


def test_homomorphism_instance():
    assert quaternion_matrix(encode_word(PAIR, "01")) @ quaternion_matrix(
        encode_word(PAIR, "0")
    ) == quaternion_matrix(encode_word(PAIR, "010"))


# --- powers ------------------------------------------------------------------------


def test_power_basics():
    assert mat_pow(A, 1) == A
    assert mat_pow(A, 2) == A @ A


def test_cube_trace():
    # cos(3t) = 4cos^3(t) - 3cos(t) = -117/125 at cos(t) = 3/5
    assert trace(mat_pow(A, 3)) == gr(Fraction(-234, 125))


def test_power_additive():
    for i in range(0, 5):
        for j in range(0, 5):
            assert mat_pow(A, i) @ mat_pow(A, j) == mat_pow(A, i + j)


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
    for n in range(1, 7):
        for bits in product("01", repeat=n):
            assert det(quaternion_matrix(encode_word(PAIR, "".join(bits)))) == gr(1)


def _inverse_pair(params: RotationParams = PAIR.params) -> FreePair:
    """a about axis_a (z in every caller) and b the same angle about -z:
    ab = I."""
    a = rotation_quaternion(params.cos, params.sin, params.axis_a)
    b = rotation_quaternion(
        params.cos,
        params.sin,
        (Fraction(0), Fraction(0), Fraction(-1)),
    )
    return FreePair(a=a, b=b, params=params)


def test_scan_flags_engineered_cancellation():
    pair = _inverse_pair()
    assert quaternion_matrix(pair.a) @ quaternion_matrix(pair.b) == ExactMatrix.identity(2)
    report = freeness_scan(pair, 2)
    assert "01" in report.scalar_words
    assert "10" in report.scalar_words
    assert Collision("01", "10") in report.collisions


def test_scan_budget_truncation():
    report = freeness_scan(PAIR, 12, node_budget=100)
    assert report == reference_scan(PAIR, 12, 100)
    assert report.truncated
    assert report.word_count == 100
    # 62 words fill lengths 1-5; length 6 needs 64 more
    assert report.scanned_max_len == 5
    # the field width follows the levels a budget of 10 reaches, not max_len
    assert freeness_scan(PAIR, 100_000, node_budget=10) == reference_scan(PAIR, 100_000, 10)


def test_scan_odd_budget_splits_a_parents_children():
    # Level 2 of the inverse pair is 00, 01, 10, 11, and 01 = 10 = I.  A
    # budget of 5 keeps 00, 01 and 10: word 1's children are split, 10 still
    # collides with 01, and 11 is never computed.
    pair = _inverse_pair()
    expected = CollisionReport(1, 5, (Collision("01", "10"),), ("01", "10"), True)
    assert freeness_scan(pair, 3, node_budget=5) == expected
    assert freeness_scan(pair, 3, node_budget=3) == CollisionReport(1, 3, (), (), True)
    # 6 words fill lengths 1-2; 3 of length 3 are kept, the last a 0-child
    assert freeness_scan(PAIR, 4, node_budget=9) == CollisionReport(2, 9, (), (), True)


def test_level_pairs_cut_at_budget():
    frontier, letters = ["u", "v"], "xyz"
    everything = [(f, l) for f in frontier for l in letters]
    for budget in range(-1, 8):
        pairs, cut = level_pairs(frontier, letters, budget)
        assert list(pairs) == everything[: max(budget, 0)]
        assert cut == (budget < len(everything))
    pairs, cut = level_pairs([], letters, 0)
    assert list(pairs) == [] and not cut


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


MINUS_ONE = (-1, 0, 0, 0, 1)


def _mul(x, y):
    """Memberwise product of two tuples of quaternions, as a channel's pair
    composes."""
    return tuple(map(q_mul, x, y))


def _adjoint(x):
    return tuple(map(q_adjoint, x))


def _sign_key(x):
    return tuple(map(q_sign_key, x))


def _is_scalar(x):
    """Whether the block-diagonal matrix of a tuple of quaternions is c * I:
    every quaternion real, and all equal."""
    return all(map(q_is_scalar, x)) and len(set(x)) == 1


def _letter_sets():
    """Letter sets for random words, each letter a (tuple of quaternions,
    matrix) pair: the free pair as one-quaternion letters with the rotation
    formula's 2x2 matrices, and each corpus instance's unitary channels as
    quaternion pairs, all with their adjoints, the corpus sets also with a
    sign flip on one member, so that words can cancel and members can
    disagree in sign."""
    p = PAIR.params
    rotations = [
        ((PAIR.a,), reference_rotation(p.cos, p.sin, p.axis_a)),
        ((PAIR.b,), reference_rotation(p.cos, p.sin, p.axis_b)),
    ]
    sets = [rotations + [(_adjoint(q), m.dagger()) for q, m in rotations]]
    ident, minus = ExactMatrix.identity(2), ExactMatrix.identity(2).scale(-1)
    flip = ((Q_IDENTITY, MINUS_ONE), block_diag(ident, minus))
    for entry in CORPUS:
        gens = compile_generators(entry.instance, PAIR, Fraction(1, 2))
        units = [(ch.quaternions, quaternion_matrix(ch.quaternions)) for ch in gens.e_gens]
        sets.append(units + [(_adjoint(q), m.dagger()) for q, m in units] + [flip])
    return sets


LETTER_SETS = _letter_sets()


def _word_product(letters, word):
    """(ExactMatrix product, quaternion product) of a word over letters."""
    size = letters[0][1].rows
    m = ExactMatrix.identity(size)
    q = (Q_IDENTITY,) * (size // 2)
    for i in word:
        q = _mul(q, letters[i][0])
        m = m @ letters[i][1]
    return m, q


@given(st.data())
@settings(max_examples=150)
def test_quaternion_kernel_matches_matrix_oracle(data):
    letters = data.draw(st.sampled_from(LETTER_SETS))
    index = st.integers(0, len(letters) - 1)
    mu, qu = _word_product(letters, data.draw(st.lists(index, max_size=6)))
    mv, qv = _word_product(letters, data.draw(st.lists(index, max_size=6)))
    assert all(map(is_canonical, qu))
    assert quaternion_matrix(qu) == mu
    assert quaternion_matrix(_mul(qu, qv)) == mu @ mv
    assert quaternion_matrix(_adjoint(qu)) == mu.dagger()
    for q, m in ((qu, mu), (_mul(qu, _adjoint(qv)), mu @ mv.dagger())):
        assert _is_scalar(q) == (as_scalar(m) is not None)
    neg = _mul(qu, (MINUS_ONE,) * len(qu))
    assert quaternion_matrix(neg) == mu.scale(-1)
    for qa, ma, qb, mb in ((qu, mu, qv, mv), (qu, mu, neg, mu.scale(-1))):
        # equal keys exactly when each 2x2 block is equal up to a phase
        same_key = _sign_key(qa) == _sign_key(qb)
        blocks = [(block(ma, k, k, 2, 2), block(mb, k, k, 2, 2)) for k in range(0, ma.rows, 2)]
        assert same_key == all(phase_canonical(x) == phase_canonical(y) for x, y in blocks)


# Real part 0 and a negative imaginary lead at each index, so the sign key
# cannot stop at the real part, and the zero quaternion, which has no lead.
ZERO_REAL = [
    (0, -3, 4, 0, 5),
    (0, 0, 0, -1, 1),
    (0, 0, -4, 3, 5),
    (0, 0, -1, 0, 1),
    (0, 0, 0, 0, 1),
]


@pytest.mark.parametrize("q", ZERO_REAL)
def test_phase_key_and_adjoint_with_zero_real_part(q):
    neg = tuple(-v for v in q[:-1]) + q[-1:]
    key = q_sign_key(q)
    assert q_sign_key(neg) == key and key[-1] == q[-1]
    assert next(filter(None, key[:4]), 1) > 0  # the key leads positive, up to sign q
    assert key in (q, neg)
    assert quaternion_matrix(neg) == quaternion_matrix(q).scale(-1)
    for x in (q, neg):
        # The real part and the denominator keep their sign.
        conj = tuple(v if k % 4 == 0 else -v for k, v in enumerate(x))
        assert q_adjoint(x) == conj
        assert quaternion_matrix(conj) == quaternion_matrix(x).dagger()


def test_quaternion_scalar_needs_equal_real_blocks():
    """A quaternion is a scalar exactly when it is real; the matrix of a
    channel's pair is one exactly when both members are the same real."""
    for q, scalar in (
        ((1, 0, 0, 0, 1), True),
        ((-3, 0, 0, 0, 5), True),
        ((0, 1, 0, 0, 1), False),
        ((3, 0, 4, 0, 5), False),
        ((0, 0, 0, 1, 1), False),
    ):
        assert q_is_scalar(q) is scalar
        assert (as_scalar(quaternion_matrix(q)) is not None) is scalar
    for qs, scalar in (
        ((Q_IDENTITY, Q_IDENTITY), True),
        (((-3, 0, 0, 0, 5), (-3, 0, 0, 0, 5)), True),
        ((Q_IDENTITY, MINUS_ONE), False),
        (((0, 1, 0, 0, 1), (0, 1, 0, 0, 1)), False),
    ):
        assert _is_scalar(qs) is scalar
        assert (as_scalar(quaternion_matrix(qs)) is not None) is scalar


# --- the freeness certificate for group words ------------------------------------------------


def reduced_words(pair, max_len, prime):
    """(word, product, numerators mod prime) for every nonempty reduced word
    over a, A = a^dag, b, B = b^dag up to max_len, shortest first.  The
    residues are of the unreduced product of the letters' numerators."""
    letters = {"a": pair.a, "A": q_adjoint(pair.a), "b": pair.b, "B": q_adjoint(pair.b)}
    level = [("", Q_IDENTITY, (1, 0, 0, 0))]
    for _ in range(max_len):
        level = [
            (w + s, q_mul(q, x), tuple(v % prime for v in hamilton((*r, 1), x)[:4]))
            for w, q, r in level
            for s, x in letters.items()
            if not w or w[-1] != s.swapcase()
        ]
        yield from level


def test_default_pair_certified_and_brute_forced_to_length_10():
    cert = freeness_certificate(PAIR)
    assert cert.prime == 5
    assert len(cert.pairs) == 12 and all(map(any, cert.pairs.values()))
    assert set(cert.pairs) == {s + t for s in "aAbB" for t in "aAbB" if t != s.swapcase()}
    count = 0
    for word, q, residues in reduced_words(PAIR, 10, cert.prime):
        assert not q_is_scalar(q), word
        assert any(residues), word  # the lemma itself: nonzero mod p
        count += 1
    assert count == sum(4 * 3 ** (n - 1) for n in range(1, 11))


AXES = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1), "d": ("3/5", "4/5", 0)}


@pytest.mark.parametrize(
    "cos, sin, axes, prime",
    [
        ("3/5", "4/5", "zx", 5),
        ("7/25", "24/25", "zx", 5),
        ("-3/5", "4/5", "zx", 5),
        ("4/5", "3/5", "zx", 5),
        ("5/13", "12/13", "zx", 13),
        ("5/13", "12/13", "yz", 13),
        ("15/17", "8/17", "zx", 17),
        ("3/5", "4/5", "dz", None),
    ],
)
def test_freeness_certificate_table(cos, sin, axes, prime):
    axis_a, axis_b = (tuple(Fraction(v) for v in AXES[k]) for k in axes)
    params = RotationParams(Fraction(cos), Fraction(sin), axis_a, axis_b)
    cert = freeness_certificate(make_free_pair(params))
    assert (cert and cert.prime) == prime


@st.composite
def rotation_pairs(draw):
    """A Pythagorean angle about two orthogonal rational axes: the first two
    columns of the rotation matrix of a small integer quaternion."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, m - 1).filter(lambda n: gcd(m, n) == 1 and (m - n) % 2))
    c, s = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
    if draw(st.booleans()):
        c, s = s, c
    c *= draw(st.sampled_from((1, -1)))
    w, x, y, z = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(any))
    norm = w * w + x * x + y * y + z * z
    cols = (
        (w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
        (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
    )
    axis_a, axis_b = (tuple(Fraction(v, norm) for v in col) for col in cols)
    return make_free_pair(RotationParams(c, s, axis_a, axis_b))


@given(rotation_pairs())
@settings(max_examples=25, deadline=None)
def test_certified_pair_has_no_scalar_reduced_word(pair):
    cert = freeness_certificate(pair)
    assume(cert is not None)
    for word, q, residues in reduced_words(pair, 8, cert.prime):
        assert not q_is_scalar(q), word
        assert any(residues), word


# --- the columnar scan against the word-by-word reference ---------------------------------


def forced_pair(cos, sin, axes) -> FreePair:
    """The pair that `verify-free --force` builds: no freeness checks."""
    axis_a, axis_b = (tuple(Fraction(v) for v in AXES[k]) for k in axes)
    params = RotationParams(Fraction(cos), Fraction(sin), axis_a, axis_b)
    a, b = (rotation_quaternion(params.cos, params.sin, axis) for axis in (axis_a, axis_b))
    return FreePair(a, b, params)


def half_i_pair() -> FreePair:
    """The forced cos 1/2, sin 0 pair of the golden pins: a = b = I/2, so the
    letters are not unit and every word is scalar, with gcd 1 and den 2^L."""
    pair = forced_pair("1/2", 0, "zx")
    assert pair.a == pair.b == (1, 0, 0, 0, 2)
    return pair


SCAN_PAIRS = {
    "default": lambda: PAIR,
    "inverse": _inverse_pair,
    "cos0-sin1": lambda: forced_pair(0, 1, "zx"),
    "same-axis": lambda: forced_pair("3/5", "4/5", "zz"),
    "half-i": half_i_pair,
}


@pytest.mark.parametrize("name", sorted(SCAN_PAIRS))
def test_scan_matches_reference_at_every_budget(name):
    pair = SCAN_PAIRS[name]()
    for budget in range(32):
        assert freeness_scan(pair, 4, node_budget=budget) == reference_scan(pair, 4, budget)


@pytest.mark.parametrize(
    "cos, sin, axes",
    [
        ("3/5", "4/5", "zx"),
        ("5/13", "12/13", "yz"),
        ("15/17", "8/17", "zx"),
        # unit letters: keys bounded by 169^8 < 2^63, 64-bit fields
        ("119/169", "120/169", "zx"),
    ],
)
def test_scan_matches_reference_on_certified_pairs(cos, sin, axes):
    pair = make_free_pair(forced_pair(cos, sin, axes).params)
    assert freeness_certificate(pair) is not None
    report = freeness_scan(pair, 8)
    assert report == reference_scan(pair, 8, 1_000_000)
    assert report.is_empty and report.word_count == 510 and not report.truncated


def test_scan_matches_reference_on_128_bit_fields():
    # Keys bounded by 169^9 > 2^63 take 128-bit fields.  The certified pair
    # scans empty; in the inverse pair words cancel, so the two-limb keys
    # decide which words collide and which are scalar.
    certified = make_free_pair(forced_pair("119/169", "120/169", "zx").params)
    report = freeness_scan(certified, 9)
    assert report == reference_scan(certified, 9, 1_000_000)
    assert report.is_empty and report.word_count == 1022
    pair = _inverse_pair(certified.params)
    report = freeness_scan(pair, 9)
    assert report == reference_scan(pair, 9, 1_000_000)
    assert "01" in report.scalar_words and report.word_count == 1022


def test_scan_keys_reaching_the_width_bound():
    # a = b = 512 I: every word of length 7 has the key 512^7 = 2^63, the
    # bound itself and one past the largest signed 64-bit field.
    pair = forced_pair(512, 0, "zx")
    assert freeness_scan(pair, 7) == reference_scan(pair, 7, 1_000_000)


FORCED_SCANS = [
    pytest.param(name, 6, 1_000_000, id=name) for name in sorted(set(SCAN_PAIRS) - {"default"})
]
# Budgets that cut level 5, 6 or 8 in the middle, on pairs whose words
# collide from level 1 (a = b) or 2: the collisions are listed again over
# every kept level, the cut one included, each time a key repeats.
FORCED_SCANS += [
    pytest.param(name, 8, budget, id=f"{name}-len8-budget{budget}")
    for name in ("cos0-sin1", "same-axis")
    for budget in (40, 100, 300)
]


@pytest.mark.parametrize("name, max_len, budget", FORCED_SCANS)
def test_scan_matches_reference_on_forced_pairs(name, max_len, budget):
    pair = SCAN_PAIRS[name]()
    report = freeness_scan(pair, max_len, node_budget=budget)
    assert report == reference_scan(pair, max_len, budget)
    assert not report.is_empty and report.word_count == min(budget, 2 ** (max_len + 1) - 2)


@given(rotation_pairs(), st.integers(0, 70))
@settings(max_examples=25, deadline=None)
def test_scan_matches_reference_on_random_pairs(pair, budget):
    assert freeness_scan(pair, 5, node_budget=budget) == reference_scan(pair, 5, budget)


@st.composite
def integer_letters(draw, bits):
    """A reduced integer quaternion with numerators up to 2^bits in size over
    a denominator up to 2^20, real in some draws: not a unit, not a rotation."""
    num = st.integers(-(1 << bits), 1 << bits)
    a, b, c, d = draw(st.tuples(num, num, num, num))
    if draw(st.integers(0, 3)) == 0:
        b = c = d = 0
    den = draw(st.integers(1, 1 << 20))
    g = gcd(a, b, c, d, den)
    return (a // g, b // g, c // g, d // g, den // g)


@st.composite
def integer_pairs(draw):
    """Two integer letters of one size, b = a in some draws, so that words
    collide and are scalar at field widths from 64 to past 256 bits."""
    bits = draw(st.sampled_from((0, 1, 8, 20, 30, 40)))
    a = draw(integer_letters(bits))
    b = a if draw(st.integers(0, 3)) == 0 else draw(integer_letters(bits))
    return FreePair(a, b, PAIR.params)


@given(integer_pairs(), st.integers(1, 5), st.integers(0, 70))
@settings(max_examples=200, deadline=None)
def test_scan_matches_reference_on_integer_pairs(pair, max_len, budget):
    report = freeness_scan(pair, max_len, node_budget=budget)
    assert report == reference_scan(pair, max_len, budget)
