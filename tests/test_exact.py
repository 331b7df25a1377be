"""Kernel tests: exact arithmetic, predicates, digests, serialization."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from corpus import (
    CORPUS,
    DEFAULT_PAIR,
    charpoly_by_expansion,
    random_density,
    random_exact_unitary,
    random_hermitian_with_spectrum,
    sturm_is_psd,
)
from oracles import (
    KrausChannel,
    block,
    block_diag,
    as_scalar,
    char_poly,
    conj,
    gr,
    gr_from_str,
    kron,
    mat_add,
    mat_pow,
    mat_sub,
    matrix_from_json,
    mul,
    neg,
    reference_choi,
    reference_states,
    trace,
    zeros,
)
from freeops.exact import (
    ExactDensityMatrix,
    ExactMatrix,
    GaussianRational,
    ShapeError,
    gr_to_str,
    rat_from_str,
)
from freeops.freerot import Q_IDENTITY
from freeops.reduction import ChannelElement, compile_generators, make_target
from freeops.resourcegraph import certify_cptp, choi, explore, generic_seed

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=97)
gaussians = st.builds(GaussianRational, rationals, rationals)



def small_matrix_st(n):
    return st.builds(
        lambda entries: ExactMatrix(n, n, entries),
        st.lists(gaussians, min_size=n * n, max_size=n * n),
    )


# --- rationals and Gaussian rationals ---------------------------------------


@settings(max_examples=1000)
@given(rationals, rationals)
def test_rational_round_trip_addition(a, b):
    assert (a + b) - b == a


@given(rationals)
def test_rational_text_round_trip(q):
    assert rat_from_str(str(q)) == q


def test_rational_text_rejects_floats():
    with pytest.raises(ValueError):
        rat_from_str("0.5")


@given(gaussians)
def test_conjugation_is_involution(z):
    # the oracles' conjugate; the package has none
    assert conj(conj(z)) == z


@given(gaussians)
def test_abs2_matches_components(z):
    assert z.abs2() == z.re * z.re + z.im * z.im
    assert mul(z, conj(z)) == GaussianRational(z.abs2())


@given(gaussians)
def test_gaussian_text_round_trip(z):
    assert gr_from_str(gr_to_str(z)) == z


def test_gaussian_rejects_float():
    with pytest.raises(TypeError):
        GaussianRational(0.5)


# --- matrix product and dagger ----------------------------------------------


def test_identity_is_neutral():
    m = ExactMatrix.from_rows([[gr(1), gr(2, 1)], [gr("3/7"), gr(0, -2)]])
    assert ExactMatrix.identity(2) @ m == m
    assert m @ ExactMatrix.identity(2) == m


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)


@given(small_matrix_st(2), small_matrix_st(2), small_matrix_st(2))
def test_product_associativity(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


def test_dagger_of_identity():
    assert ExactMatrix.identity(3).dagger() == ExactMatrix.identity(3)


def test_dagger_of_diagonal():
    m = ExactMatrix.diagonal([gr("3/5", "4/5"), gr("3/5", "-4/5")])
    assert m.dagger() == ExactMatrix.diagonal([gr("3/5", "-4/5"), gr("3/5", "4/5")])


@given(small_matrix_st(2), small_matrix_st(2))
def test_dagger_antihomomorphism(a, b):
    assert (a @ b).dagger() == b.dagger() @ a.dagger()


@given(small_matrix_st(2))
def test_dagger_involution(a):
    assert a.dagger().dagger() == a


# --- scalar predicate (the oracles' as_scalar, which the freerot tests read) ---


def test_scalar_identity():
    assert as_scalar(ExactMatrix.identity(4)) == gr(1)


def test_scalar_negative_identity():
    m = ExactMatrix.identity(4).scale(-1)
    assert as_scalar(m) == gr(-1)


def test_scalar_rejects_mixed_block_signs():
    m = block_diag(ExactMatrix.identity(2), ExactMatrix.identity(2).scale(-1))
    assert as_scalar(m) is None


# --- positivity -----------------------------------------------------------------


def test_psd_maximally_mixed():
    assert ExactMatrix.identity(4).scale(Fraction(1, 4)).is_psd()


def test_psd_rejects_negative_eigenvalue():
    assert not ExactMatrix.diagonal([gr(1), gr("-1/2")]).is_psd()


def test_psd_half_mixture():
    mixture = ExactMatrix.diagonal([gr("5/8"), gr("1/8"), gr("1/8"), gr("1/8")])
    direct = mat_add(
        ExactDensityMatrix.basis_state(4, 0).mat.scale(Fraction(1, 2)),
        ExactMatrix.identity(4).scale(Fraction(1, 8)),
    )
    assert direct == mixture
    assert mixture.is_psd()


def test_psd_requires_hermitian():
    m = ExactMatrix.from_rows([[gr(0), gr(1)], [gr(2), gr(0)]])
    with pytest.raises(ValueError):
        m.is_psd()


def test_psd_agrees_with_sturm_oracle():
    rng = random.Random(20240)
    for trial in range(200):
        n = (2, 3, 4)[trial % 3]
        m, eigs = random_hermitian_with_spectrum(rng, n)
        expected = all(e >= 0 for e in eigs)
        assert m.is_psd() == expected
        assert sturm_is_psd(m) == expected


def small_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


def random_psd_candidate(rng, n, kind):
    """A Hermitian n x n matrix of one of five shapes: rank-deficient Gram
    matrices (rank 0..n), Gram matrices shifted by a small multiple of the
    identity, unitary conjugates of a spectrum with forced zeros, Gram
    matrices with one diagonal entry zeroed, and arbitrary Hermitian
    matrices (also used for the spectrum shape at n = 1, which has no
    plane rotations)."""
    if kind in ("gram", "shifted", "zero_diagonal"):
        rank = rng.randint(0, n)
        if rank == 0:
            m = zeros(n, n)
        else:
            x = ExactMatrix(n, rank, [small_gaussian(rng) for _ in range(n * rank)])
            m = x @ x.dagger()
        if kind == "shifted":
            m = mat_add(m, ExactMatrix.identity(n).scale(Fraction(rng.randint(-2, 2), 4)))
        if kind == "zero_diagonal":
            i = rng.randrange(n)
            m = mat_sub(m, ExactMatrix.diagonal([m.entry(i, i) if j == i else 0 for j in range(n)]))
        return m
    if kind == "spectrum" and n > 1:
        eigs = [Fraction(rng.randint(-1, 3), rng.randint(1, 3)) for _ in range(n)]
        eigs[rng.randrange(n)] = Fraction(0)
        u = random_exact_unitary(rng, n)
        return u @ ExactMatrix.diagonal(eigs) @ u.dagger()
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = GaussianRational(Fraction(rng.randint(-1, 3), rng.randint(1, 2)))
        for j in range(i + 1, n):
            z = small_gaussian(rng)
            entries[i][j] = z
            entries[j][i] = conj(z)
    return ExactMatrix.from_rows(entries)


def test_psd_agrees_with_sturm_oracle_on_singular_and_sparse_matrices():
    rng = random.Random(4128)
    seen = {True: 0, False: 0}
    kinds = ("gram", "shifted", "zero_diagonal", "spectrum", "hermitian")
    for trial in range(800):
        n = 1 + trial % 8
        kind = kinds[(trial // 8) % len(kinds)]
        m = random_psd_candidate(rng, n, kind)
        expected = sturm_is_psd(m)
        assert m.is_psd() == expected, (kind, m)
        seen[expected] += 1
    assert min(seen.values()) > 100, seen


def explored_states(seed):
    """Every state of the `reach --depth 4` graph over classic3 from the
    seed, in discovery order, as the child-by-child reference exploration
    finds them; explore gives the same graph.  explore trusts these to be
    PSD by the channels' Choi certificates and runs no PSD test on them."""
    classic3 = next(e for e in CORPUS if e.name == "classic3")
    channels = compile_generators(classic3.instance, DEFAULT_PAIR, Fraction(1, 2)).channels()
    g, states = reference_states(channels, [seed], 4)
    assert explore(channels, [seed], 4).named() == g
    assert [m.digest() for m in states] == list(g.nodes)
    return states


def test_psd_agrees_with_sturm_oracle_on_explored_states():
    # The seed and its 240 or 120 new states: from the full-rank seed, the
    # 3^d unitary and the 3^d reset-ended words of each depth d <= 4 give
    # distinct states, while from basis:0 = |1><1| a reset-ended word gives
    # the state of the unitary word with the same tile word.
    for seed, new in ((generic_seed(4), 240), (ExactDensityMatrix.basis_state(4, 0), 120)):
        states = explored_states(seed)
        assert len(states) == 1 + new
        for m in states:
            assert m.is_hermitian() and trace(m) == gr(1)
            assert m.is_psd() and sturm_is_psd(m)
        # Negated, and less one another: distinct unit-trace states differ by
        # a nonzero traceless, so indefinite, matrix, whose diagonal need not
        # give it away.  The oracle checks every 8th pair.
        for k, (a, b) in enumerate(zip(states, states[1:])):
            for bad in (a.scale(-1), mat_sub(a, b)):
                assert not bad.is_psd()
                assert k % 8 or not sturm_is_psd(bad)


@st.composite
def complex_hermitian_st(draw):
    """G G^dag for an n x r Gaussian-integer G, singular when r < n, plus
    shift * I: PSD for shift >= 0, and for a negative shift on a singular
    Gram matrix just below PSD.  Only matrices with a nonzero imaginary part."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(1, n))
    parts = st.integers(-3, 3)
    g = ExactMatrix(n, r, draw(st.lists(st.builds(GaussianRational, parts, parts),
                                        min_size=n * r, max_size=n * r)))
    just_below = st.integers(1, 10**6).map(lambda k: Fraction(-1, k))
    shift = draw(st.sampled_from([0, 0, 1, -1]) | just_below)
    m = mat_add(g @ g.dagger(), ExactMatrix.identity(n).scale(shift))
    assume(any(z.im for z in m.entries()))
    return m


@given(complex_hermitian_st())
def test_psd_agrees_with_sturm_oracle_on_complex_matrices(m):
    assert m.is_psd() == sturm_is_psd(m)


def test_psd_zero_pivot_cases():
    z, one, i = gr(0), gr(1), gr(0, 1)
    cases = [
        ([[z]], True),
        ([[z, one], [one, z]], False),  # zero diagonal, nonzero off-diagonal
        ([[z, i], [neg(i), z]], False),  # the same with an imaginary off-diagonal
        ([[one, z, z], [z, z, i], [z, neg(i), z]], False),
        ([[one, one], [one, z]], False),
        ([[z, z], [z, one]], True),
        ([[one, one], [one, one]], True),  # rank 1
        ([[one, i, z], [neg(i), one, z], [z, z, z]], True),  # rank 1 with a zero row
        ([[z, z, i], [z, one, z], [neg(i), z, one]], False),
        ([[gr(2), gr(1, 1), z], [gr(1, -1), one, z], [z, z, z]], True),  # singular
    ]
    for rows, expected in cases:
        m = ExactMatrix.from_rows(rows)
        assert m.is_psd() == expected, rows
        assert sturm_is_psd(m) == expected, rows


def test_psd_agrees_with_sturm_oracle_on_choi_operators():
    entries = [e for e in CORPUS if e.name in ("classic3", "classic_minus", "pad_left")]
    channels = [ChannelElement((Q_IDENTITY, Q_IDENTITY), Fraction(1)), make_target(Fraction(1, 3))]
    for entry in entries:
        channels.extend(compile_generators(entry.instance, DEFAULT_PAIR, Fraction(1, 2)).channels())
    for ch in channels:
        j = choi(ch)
        assert j.rows == 16
        assert j.is_psd()
        assert sturm_is_psd(j)

    class Transpose:
        """The transpose map: positive and trace preserving, not CP."""

        dim = 4

        def apply_to_matrix(self, m):
            return ExactMatrix(4, 4, [m.entry(c, r) for r in range(4) for c in range(4)])

        choi_operator = reference_choi

    j = choi(Transpose())
    assert j.is_hermitian()
    assert not j.is_psd()
    assert not sturm_is_psd(j)


def test_charpoly_matches_expansion_oracle():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.choice((2, 3))
        entries = [
            GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
            for _ in range(n * n)
        ]
        m = ExactMatrix(n, n, entries)
        assert char_poly(m) == charpoly_by_expansion(m)


# --- digest ----------------------------------------------------------------------


def test_digest_is_stable_across_runs():
    # Frozen regression value; a change here breaks report reproducibility.
    assert ExactMatrix.identity(2).digest() == "820955ea632626be7f63db63ec1bf878"


def test_digest_equal_for_equal_matrices():
    a = ExactMatrix.diagonal([gr("1/2"), gr("1/2")])
    b = ExactMatrix.identity(2).scale(Fraction(1, 2))
    assert a == b
    assert a.digest() == b.digest()


def test_digest_distinguishes_on_sample():
    rng = random.Random(5)
    mats = [random_density(rng).mat for _ in range(40)]
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if a.digest() == b.digest():
                assert a == b


# --- structure helpers ------------------------------------------------------------


def test_block_diag_blocks_recoverable():
    a = ExactMatrix.from_rows([[gr(1), gr(2)], [gr(3), gr(4)]])
    b = ExactMatrix.diagonal([gr("1/3"), gr("1/5")])
    m = block_diag(a, b)
    assert block(m, 0, 0, 2, 2) == a
    assert block(m, 2, 2, 2, 2) == b
    assert block(m, 0, 2, 2, 2) == zeros(2, 2)


def test_kron_and_partial_trace():
    a = ExactMatrix.diagonal([gr(1), gr(2)])
    b = ExactMatrix.from_rows([[gr("1/2"), gr(0, 1)], [gr(0, -1), gr("1/2")]])
    k = kron(a, b)
    assert k.rows == 4
    # tracing out the first factor leaves tr(a) * b
    assert k.partial_trace_first(2, 2) == b.scale(trace(a))


def test_pow_zero_gives_identity():
    m = ExactMatrix.diagonal([gr(2), gr(3)])
    assert mat_pow(m, 0) == ExactMatrix.identity(2)
    assert mat_pow(m, 3) == m @ m @ m


def test_matrix_json_round_trip():
    rng = random.Random(11)
    m = random_density(rng).mat
    again = matrix_from_json(m.to_json_dict())
    assert again == m
    assert again.digest() == m.digest()


# --- traces ----------------------------------------------------------------------------


def big_operator_st(n):
    """Any n x n operator, Hermitian or not, with entries up to 2^100 over a
    random denominator, the size of explored states and beyond."""
    def build(nums, den):
        return ExactMatrix(n, n, [gr(Fraction(a, den), Fraction(b, den)) for a, b in nums])

    big = st.integers(-(2**100), 2**100)
    return st.builds(
        build, st.lists(st.tuples(big, big), min_size=n * n, max_size=n * n), st.integers(1, 2**64)
    )


@given(st.sampled_from([1, 2, 4]).flatmap(big_operator_st))
def test_unit_trace_matches_oracle(a):
    assert a.has_unit_trace() == (trace(a) == gr(1))
    if trace(a):
        assert a.scale(trace(a).inverse()).has_unit_trace()


def test_partial_trace_and_choi_assembly_shape_checked():
    with pytest.raises(ShapeError, match="factor dimensions"):
        zeros(4, 2).partial_trace_first(2, 2)
    with pytest.raises(ShapeError, match="matrix units"):
        ExactMatrix.choi_from_images([zeros(2, 2)] * 3)
    with pytest.raises(ShapeError, match="matrix units"):
        ExactMatrix.choi_from_images([zeros(2, 2)] * 3 + [zeros(2, 1)])


# --- Hermitian keys and the Choi key map ------------------------------------------------


def hermitian_st(n, small=False):
    """A + A^dag for an n x n operator A: any Hermitian operator, any trace.
    Small draws a few numerators over denominators 1 and 2, so that equal
    matrices come up; otherwise numerators up to 2^100 over a random
    denominator."""
    nums = st.integers(-2, 2) if small else st.integers(-(2**100), 2**100)
    dens = st.integers(1, 2) if small else st.integers(1, 2**64)

    def build(pairs, den):
        a = ExactMatrix(n, n, [gr(Fraction(x, den), Fraction(y, den)) for x, y in pairs])
        return mat_add(a, a.dagger())

    return st.builds(build, st.lists(st.tuples(nums, nums), min_size=n * n, max_size=n * n), dens)


def apply_key_map(rows, key):
    """Each row's dot product with the key: the image's key, not reduced."""
    return tuple(sum(c * v for c, v in zip(row, key)) for row in rows)


@given(st.integers(1, 5).flatmap(hermitian_st))
def test_hermitian_key_round_trip(m):
    key = m.hermitian_key()
    d = m.rows
    assert len(key) == d * d + 1 and key[-1] > 0 and gcd(*key) == 1
    assert ExactMatrix.from_hermitian_key(key) == m
    # An unreduced key spells the same matrix.
    assert ExactMatrix.from_hermitian_key(tuple(3 * v for v in key)) == m


@pytest.mark.parametrize("length", [0, 1, 3, 4, 6, 9, 11])
def test_from_hermitian_key_rejects_a_length_no_dimension_fits(length):
    # A d x d key has d*d + 1 entries: 2, 5, 10, ... for d = 1, 2, 3.
    with pytest.raises(ShapeError):
        ExactMatrix.from_hermitian_key((1,) * length)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(hermitian_st(n, True), hermitian_st(n, True))))
def test_hermitian_keys_equal_exactly_when_matrices_are(pair):
    a, b = pair
    assert (a.hermitian_key() == b.hermitian_key()) == (a == b)
    assert a.hermitian_key() == a.scale(Fraction(7, 7)).hermitian_key()


def test_hermitian_key_layout():
    m = ExactMatrix.from_rows([
        [gr(1), gr(2, 3), gr(4, -5)],
        [gr(2, -3), gr(6), gr(7, 8)],
        [gr(4, 5), gr(7, -8), gr(-9)],
    ]).scale(Fraction(1, 10))
    assert m.hermitian_key() == (1, 6, -9, 2, 4, 7, 3, -5, 8, 10)


def key_map_channels():
    """Every channel classic3 compiles to, a target, a y-axis pair and a
    reset onto a y-axis vector at damping 2/7, and a 2x2 Kraus channel with
    imaginary Kraus entries."""
    classic3 = next(e for e in CORPUS if e.name == "classic3")
    channels = compile_generators(classic3.instance, DEFAULT_PAIR, Fraction(1, 2)).channels()
    y_axis = ((5, 0, 12, 0, 13), (12, 0, 0, 5, 13))
    rotation = ExactMatrix.from_rows([[gr("3/5"), gr(0, "4/5")], [gr(0, "4/5"), gr("3/5")]])
    return [*channels, make_target(Fraction(1, 3)), ChannelElement(y_axis, Fraction(2, 7)),
            ChannelElement(((5, 0, 12, 0, 13),), Fraction(2, 7)),
            KrausChannel((rotation,), "R")]


KEY_MAP_CHANNELS = key_map_channels()


# No shrinking, as in test_apply_to_matrix_equals_reference: shrinking runs
# through apply_to_matrix for minutes before a failure is reported.
@settings(phases=[p for p in Phase if p is not Phase.shrink])
@given(
    st.sampled_from(KEY_MAP_CHANNELS).flatmap(
        lambda ch: st.tuples(st.just(ch), hermitian_st(ch.dim))
    )
)
def test_choi_key_map_matches_apply_to_matrix(ch_and_m):
    ch, m = ch_and_m
    rows = certify_cptp(ch).choi_key_map(ch.dim)
    image = ExactMatrix.from_hermitian_key(apply_key_map(rows, m.hermitian_key()))
    assert image == ch.apply_to_matrix(m)


def test_choi_key_map_rejects_a_non_hermitian_operator():
    for ch in KEY_MAP_CHANNELS:
        j = choi(ch)
        unit = ExactMatrix(j.rows, j.cols, [int(k == 1) for k in range(j.rows * j.cols)])
        with pytest.raises(ValueError, match="not Hermitian"):
            mat_add(j, unit).choi_key_map(ch.dim)
    with pytest.raises(ShapeError):
        choi(KEY_MAP_CHANNELS[0]).choi_key_map(2)


# --- canonical form ------------------------------------------------------------------

# Entries that cancel: zeros, small values and 100-bit numerators.
canonical_entries = st.one_of(
    st.just(gr(0)),
    gaussians,
    st.builds(
        lambda a, b, den: gr(Fraction(a, den), Fraction(b, den)),
        st.integers(-(2**100), 2**100),
        st.integers(-(2**100), 2**100),
        st.integers(1, 2**40),
    ),
)


@given(
    st.sampled_from([2, 4]).flatmap(
        lambda n: st.tuples(
            *(st.lists(canonical_entries, min_size=n * n, max_size=n * n) for _ in range(2))
        )
    ),
    canonical_entries,
)
def test_every_operation_returns_canonical_form(operands, z):
    """den >= 1 and gcd(den, numerators) = 1, which equality and digests rely on."""
    a_entries, b_entries = operands
    n = int(len(a_entries) ** 0.5)
    a, b = ExactMatrix(n, n, a_entries), ExactMatrix(n, n, b_entries)
    outputs = [
        a @ b, a.scale(z), a.scale(0), a.dagger(),
        a.partial_trace_first(2, n // 2), a.partial_trace_first(n // 2, 2),
        a.depolarised(Fraction(1, 3), b), a.depolarised(Fraction(1), b),
        ExactMatrix.choi_from_images([a, b] * (n * n // 2)),
    ]
    for m in outputs:
        assert m._den >= 1 and gcd(m._den, *m._num) == 1, m


# --- density matrices ---------------------------------------------------------------


def test_density_validation():
    with pytest.raises(ValueError):
        ExactDensityMatrix(ExactMatrix.identity(2))  # trace 2
    with pytest.raises(ValueError):
        ExactDensityMatrix(ExactMatrix.diagonal([gr("3/2"), gr("-1/2")]))  # not PSD
    not_hermitian = ExactMatrix.from_rows([[gr("1/2"), gr(1)], [gr(0), gr("1/2")]])
    with pytest.raises(ValueError):
        ExactDensityMatrix(not_hermitian)


def test_density_rejects_each_failure_once_checked():
    # The Hermitian check lives in is_psd alone.
    half = gr("1/2")
    with pytest.raises(ShapeError, match="square"):
        ExactDensityMatrix(ExactMatrix(2, 3, [half, 0, 0, 0, half, 0]))
    with pytest.raises(ValueError, match="Hermitian"):
        ExactDensityMatrix(ExactMatrix.from_rows([[half, gr("1/3")], [0, half]]))
    with pytest.raises(ValueError, match="unit trace"):
        ExactDensityMatrix(ExactMatrix.diagonal([half, gr("1/4")]))
    with pytest.raises(ValueError, match="unit trace"):  # trace 1 + i/4
        ExactDensityMatrix(ExactMatrix.diagonal([half, gr("1/2", "1/4")]))
    # Trace 1 over the denominator 7.
    rho = ExactDensityMatrix(ExactMatrix.diagonal([gr("3/7"), gr("4/7")]))
    assert trace(rho.mat) == gr(1)
    with pytest.raises(ValueError, match="positive semidefinite"):
        ExactDensityMatrix(ExactMatrix.from_rows([[half, gr(1)], [gr(1), half]]))


def test_density_constructors():
    rho = ExactDensityMatrix.basis_state(4, 1)
    assert rho.mat.entry(1, 1) == gr(1)
    mixed = ExactDensityMatrix.maximally_mixed(4)
    assert mixed.mat == ExactMatrix.identity(4).scale(Fraction(1, 4))
