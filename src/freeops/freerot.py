"""Exact SU(2) rotation pairs, binary-word encodings, freeness scanning,
and the quaternion kernel that every compiled-semigroup search runs on.

A pair of rotations by a rational-cosine angle about orthogonal axes
generates a free semigroup; this module constructs such pairs with all
entries in Q(i), maps binary words to products, and stress-tests the
freeness claim by exhaustive collision scanning up to a word-length bound.

The kernel stores [[alpha, beta], [-conj(beta), conj(alpha)]] as the
integer quaternion (Re alpha, Im alpha, Re beta, Im beta), a block-diagonal
matrix of such blocks as its quaternions side by side over one denominator.
The only scalars in SU(2) x SU(2) are +-I, so equality up to a global phase
reduces to equality up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple

from .exact import ExactMatrix, GaussianRational, block_diag, rat_to_str

Axis = Tuple[Fraction, Fraction, Fraction]
# Integer numerators, four per 2x2 block, then one positive denominator.
Quaternions = Tuple[int, ...]

# Angles whose rational cosine is known not to yield a free semigroup.
EXCLUDED_COSINES = frozenset(
    {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)}
)


class FreenessError(ValueError):
    """The cosine lies in the excluded set, so freeness is not guaranteed."""


class AxisError(ValueError):
    """Rotation axes are not exact unit vectors or not orthogonal."""


class PythagoreanError(ValueError):
    """cos^2 + sin^2 != 1, so the rotation cannot stay inside Q(i)."""


@dataclass(frozen=True, slots=True)
class RotationParams:
    """Angle (as an exact cosine/sine pair) and the two rotation axes."""

    cos_theta: Fraction
    sin_theta: Fraction
    axis_a: Axis
    axis_b: Axis

    def to_json_dict(self) -> dict:
        return {
            "cos": rat_to_str(self.cos_theta),
            "sin": rat_to_str(self.sin_theta),
            "axis_a": [rat_to_str(c) for c in self.axis_a],
            "axis_b": [rat_to_str(c) for c in self.axis_b],
        }


def standard_params() -> RotationParams:
    """The 3-4-5 pair: cos = 3/5 about +z, the partner about +x."""
    return RotationParams(
        cos_theta=Fraction(3, 5),
        sin_theta=Fraction(4, 5),
        axis_a=(Fraction(0), Fraction(0), Fraction(1)),
        axis_b=(Fraction(1), Fraction(0), Fraction(0)),
    )


@dataclass(frozen=True, slots=True)
class FreePair:
    """Two exact SU(2) matrices; letter 0 maps to `a`, letter 1 to `b`."""

    a: ExactMatrix
    b: ExactMatrix
    params: RotationParams


def rotation_matrix(cos_t: Fraction, sin_t: Fraction, axis: Axis) -> ExactMatrix:
    """cos*I + i*sin*(axis . sigma) as a 2x2 matrix over Q(i).

    Performs no freeness or orthogonality checks; use make_free_pair for a
    validated pair.
    """
    nx, ny, nz = axis
    return ExactMatrix.from_rows(
        [
            [
                GaussianRational(cos_t, sin_t * nz),
                GaussianRational(sin_t * ny, sin_t * nx),
            ],
            [
                GaussianRational(-sin_t * ny, sin_t * nx),
                GaussianRational(cos_t, -sin_t * nz),
            ],
        ]
    )


def _dot(u: Axis, v: Axis) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def make_free_pair(params: RotationParams) -> FreePair:
    """Validate the freeness conditions and build the exact pair."""
    c, s = params.cos_theta, params.sin_theta
    if c in EXCLUDED_COSINES:
        raise FreenessError(f"cos = {c} is in the excluded set {{0, +-1, +-1/2}}")
    if c * c + s * s != 1:
        raise PythagoreanError(f"cos^2 + sin^2 = {c * c + s * s} != 1")
    for name, axis in (("axis_a", params.axis_a), ("axis_b", params.axis_b)):
        if _dot(axis, axis) != 1:
            raise AxisError(f"{name} is not an exact unit vector")
    if _dot(params.axis_a, params.axis_b) != 0:
        raise AxisError("rotation axes must be exactly orthogonal")
    a = rotation_matrix(c, s, params.axis_a)
    b = rotation_matrix(c, s, params.axis_b)
    return FreePair(a=a, b=b, params=params)


def encode_word(pair: FreePair, bits: str) -> ExactMatrix:
    """Homomorphism from binary words to rotation products.

    The empty word maps to the identity, 0 to `a`, 1 to `b`, and
    concatenation to matrix multiplication.
    """
    result = ExactMatrix.identity(2)
    for ch in bits:
        if ch == "0":
            result = result @ pair.a
        elif ch == "1":
            result = result @ pair.b
        else:
            raise ValueError(f"binary words may only contain 0 and 1, got {ch!r}")
    return result


def _reduced(nums: list, den: int) -> Quaternions:
    """Divide out the common gcd, like ExactMatrix's canonical form."""
    g = gcd(den, *nums)
    if g > 1:
        nums = [v // g for v in nums]
        den //= g
    return (*nums, den)


def quaternion_matrix(q: Quaternions) -> ExactMatrix:
    """The block-diagonal matrix that a quaternion tuple stands for."""
    den = q[-1]
    blocks = []
    for k in range(0, len(q) - 1, 4):
        alpha = GaussianRational(Fraction(q[k], den), Fraction(q[k + 1], den))
        beta = GaussianRational(Fraction(q[k + 2], den), Fraction(q[k + 3], den))
        rows = [[alpha, beta], [-beta.conjugate(), alpha.conjugate()]]
        blocks.append(ExactMatrix.from_rows(rows))
    return block_diag(*blocks)


def to_quaternions(m: ExactMatrix) -> Quaternions:
    """Quaternion tuple of a block-diagonal matrix of 2x2 quaternion blocks.

    Raises ValueError for a matrix of any other form.
    """
    if m.rows != m.cols or m.rows % 2:
        raise ValueError("quaternion form needs a square matrix of even size")
    parts = []
    for k in range(0, m.rows, 2):
        alpha, beta = m.entry(k, k), m.entry(k, k + 1)
        parts += (alpha.re, alpha.im, beta.re, beta.im)
    den = lcm(*(p.denominator for p in parts))
    q = _reduced([p.numerator * (den // p.denominator) for p in parts], den)
    if quaternion_matrix(q) != m:
        raise ValueError("matrix is not block-diagonal in quaternion form")
    return q


def q_identity(blocks: int) -> Quaternions:
    """The identity on the given number of 2x2 blocks."""
    return (1, 0, 0, 0) * blocks + (1,)


def q_mul(x: Quaternions, y: Quaternions) -> Quaternions:
    """Blockwise product: 16 integer multiplies per quaternion.

    (alpha1, beta1)(alpha2, beta2) =
    (alpha1 alpha2 - beta1 conj(beta2), alpha1 beta2 + beta1 conj(alpha2)).
    """
    nums = []
    for k in range(0, len(x) - 1, 4):
        a1, b1, c1, d1 = x[k : k + 4]
        a2, b2, c2, d2 = y[k : k + 4]
        nums += (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )
    return _reduced(nums, x[-1] * y[-1])


def q_adjoint(x: Quaternions) -> Quaternions:
    """Conjugate transpose: conjugate every quaternion."""
    return tuple(-v if k % 4 else v for k, v in enumerate(x[:-1])) + x[-1:]


def q_is_scalar(x: Quaternions) -> bool:
    """Whether the matrix is c * I: every quaternion real and all equal."""
    return x[:-1] == (x[0], 0, 0, 0) * ((len(x) - 1) // 4)


def q_phase_key(x: Quaternions) -> Quaternions:
    """Sign-normalised form: the first nonzero numerator made positive.

    For unitaries in SU(2) x SU(2), equal keys mean equal up to a global
    phase, exactly as equal phase-canonical forms do.
    """
    lead = next(v for v in x if v)  # at worst the positive denominator
    return x if lead > 0 else tuple(-v for v in x[:-1]) + x[-1:]


@dataclass(frozen=True, slots=True)
class CollisionReport:
    """Outcome of an exhaustive word scan up to a length bound."""

    scanned_max_len: int
    word_count: int
    collisions: Tuple[Tuple[str, str], ...]
    scalar_words: Tuple[str, ...]
    truncated: bool

    @property
    def is_empty(self) -> bool:
        return not self.collisions and not self.scalar_words

    def to_json_dict(self) -> dict:
        return {
            "scanned_max_len": self.scanned_max_len,
            "word_count": self.word_count,
            "collisions": [
                {"word_a": a, "word_b": b} for a, b in self.collisions
            ],
            "scalar_words": list(self.scalar_words),
            "truncated": self.truncated,
        }


def freeness_scan(
    pair: FreePair,
    max_len: int,
    node_budget: int = 1_000_000,
) -> CollisionReport:
    """Evaluate every nonempty binary word of length <= max_len.

    Reports (a) pairs of distinct words with exactly equal matrices and
    (b) words whose matrix is a scalar multiple of the identity.  An empty
    report certifies that no collision exists up to the scanned bound; it
    never claims anything beyond it.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    gens = (("0", to_quaternions(pair.a)), ("1", to_quaternions(pair.b)))
    seen = {}
    collisions = []
    scalar_words = []
    count = 0
    truncated = False
    level = [("", q_identity(1))]
    for _ in range(max_len):
        next_level = []
        for word, q in level:
            for bit, g in gens:
                if count >= node_budget:
                    truncated = True
                    break
                count += 1
                child = q_mul(q, g)
                child_word = word + bit
                if q_is_scalar(child):
                    scalar_words.append(child_word)
                prev = seen.get(child)
                if prev is None:
                    seen[child] = child_word
                else:
                    collisions.append((prev, child_word))
                next_level.append((child_word, child))
            if truncated:
                break
        if truncated:
            break
        level = next_level
    return CollisionReport(
        scanned_max_len=max_len,
        word_count=count,
        collisions=tuple(collisions),
        scalar_words=tuple(scalar_words),
        truncated=truncated,
    )
