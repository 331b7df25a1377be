"""Exact SU(2) rotation pairs, binary-word encodings, freeness scanning,
and the quaternion kernel that the compiled semigroup is stored in.

A pair of rotations by a rational-cosine angle about orthogonal axes
generates a free semigroup; this module constructs such pairs exactly,
maps binary words to products, and stress-tests the freeness claim by
exhaustive collision scanning up to a word-length bound.

The kernel stores [[alpha, beta], [-conj(beta), conj(alpha)]] as the
integer quaternion (Re alpha, Im alpha, Re beta, Im beta, den), reduced
over its own positive denominator, and multiplies quaternions by
Hamilton's formula.  The rotations, their words, and every quaternion of a
compiled channel are kept in this form, and this module alone reads it.
The only scalars in SU(2) are +-I, so equality up to a global phase
reduces to equality up to sign.  The freeness scan multiplies each level
on the left, as four packed big-integer columns of fixed-width fields
sized from the norm bound, over one common denominator, and keys each word
by one bytes object: its four fields' two's complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count
from math import gcd, isqrt, lcm
from operator import ne
from struct import Struct
from typing import Dict, Optional, Tuple

from .util import Report, level_cut

Axis = Tuple[Fraction, Fraction, Fraction]
# Four integer numerators, then one positive denominator.
Quaternion = Tuple[int, int, int, int, int]

# The quaternions 1, i, j, k: the identity and the basis of R^4.
UNIT_QUATERNIONS = ((1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1))
Q_IDENTITY = UNIT_QUATERNIONS[0]

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
class RotationParams(Report):
    """Angle (as an exact cosine/sine pair) and the two rotation axes."""

    cos: Fraction
    sin: Fraction
    axis_a: Axis
    axis_b: Axis


@dataclass(frozen=True, slots=True)
class FreePair:
    """Two exact SU(2) rotations as quaternions; letter 0 maps to `a`,
    letter 1 to `b`."""

    a: Quaternion
    b: Quaternion
    params: RotationParams


def rotation_quaternion(cos_t: Fraction, sin_t: Fraction, axis: Axis) -> Quaternion:
    """cos*I + i*sin*(axis . sigma): alpha = cos + i*sin*n_z and
    beta = sin*n_y + i*sin*n_x over one denominator, already reduced.

    Performs no freeness or orthogonality checks; use make_free_pair for a
    validated pair.
    """
    nx, ny, nz = axis
    parts = (cos_t, sin_t * nz, sin_t * ny, sin_t * nx)
    den = lcm(*(p.denominator for p in parts))
    return (*(p.numerator * (den // p.denominator) for p in parts), den)


def _dot(u: Axis, v: Axis) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def make_free_pair(params: RotationParams) -> FreePair:
    """Validate the freeness conditions and build the exact pair."""
    c, s = params.cos, params.sin
    if c in EXCLUDED_COSINES:
        raise FreenessError(f"cos = {c} is in the excluded set {{0, +-1, +-1/2}}")
    if c * c + s * s != 1:
        raise PythagoreanError(f"cos^2 + sin^2 = {c * c + s * s} != 1")
    for name, axis in (("axis_a", params.axis_a), ("axis_b", params.axis_b)):
        if _dot(axis, axis) != 1:
            raise AxisError(f"{name} is not an exact unit vector")
    if _dot(params.axis_a, params.axis_b) != 0:
        raise AxisError("rotation axes must be exactly orthogonal")
    a = rotation_quaternion(c, s, params.axis_a)
    b = rotation_quaternion(c, s, params.axis_b)
    return FreePair(a=a, b=b, params=params)


def encode_word(pair: FreePair, bits: str) -> Quaternion:
    """Homomorphism from binary words to rotation products.

    The empty word maps to the identity, 0 to `a`, 1 to `b`, and
    concatenation to multiplication.
    """
    if any(ch not in "01" for ch in bits):
        raise ValueError(f"binary words may only contain 0 and 1, got {bits!r}")
    return reduce(q_mul, (pair.b if ch == "1" else pair.a for ch in bits), Q_IDENTITY)


def hamilton(x: Quaternion, y: Quaternion) -> Quaternion:
    """Product of integer quaternions in the basis (1, i sigma_z, i sigma_y,
    i sigma_x), which multiply as Hamilton's (1, i, j, k): 16 integer
    multiplies, over the product of the denominators, not reduced."""
    a1, b1, c1, d1, n1 = x
    a2, b2, c2, d2, n2 = y
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        n1 * n2,
    )


def q_mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """The product (alpha1, beta1)(alpha2, beta2) =
    (alpha1 alpha2 - beta1 conj(beta2), alpha1 beta2 + beta1 conj(alpha2)),
    hamilton's formula followed by one gcd over the numerators and the
    denominator."""
    r = hamilton(x, y)
    g = gcd(*r)
    return r if g == 1 else tuple(v // g for v in r)


def q_adjoint(x: Quaternion) -> Quaternion:
    """Conjugate transpose: the conjugate quaternion."""
    a, b, c, d, den = x
    return (a, -b, -c, -d, den)


def q_sign_key(x: Quaternion) -> Quaternion:
    """x or -x, whichever has a positive first nonzero numerator: a unit
    quaternion g and -g share a key."""
    if (x[0] or x[1] or x[2] or x[3]) < 0:
        return (-x[0], -x[1], -x[2], -x[3], x[4])
    return x


@dataclass(frozen=True, slots=True)
class Collision(Report):
    """Two distinct words with exactly equal products, the earlier first."""

    word_a: str
    word_b: str


@dataclass(frozen=True, slots=True)
class CollisionReport(Report):
    """Outcome of an exhaustive word scan up to a length bound."""

    scanned_max_len: int
    word_count: int
    collisions: Tuple[Collision, ...]
    scalar_words: Tuple[str, ...]
    truncated: bool

    @property
    def is_empty(self) -> bool:
        return not self.collisions and not self.scalar_words


def freeness_scan(
    pair: FreePair,
    max_len: int,
    node_budget: int = 1_000_000,
) -> CollisionReport:
    """Evaluate every nonempty binary word of length <= max_len.

    Reports (a) pairs of distinct words with exactly equal matrices and
    (b) words whose matrix is a scalar multiple of the identity.  An empty
    report certifies that no collision exists up to the scanned bound,
    scanned_max_len, which is the last length scanned in full when the
    budget cuts the scan; it never claims anything beyond it.

    Level L is four packed columns, one int per numerator, word k in signed
    field k.  Word i's child by letter bit is letter times word, at index
    bit * 2^(L-1) + i: word k spells k in L binary digits, kept as the code
    2^L + k.  Quaternion norms multiply, so no key exceeds growth^top,
    growth = max(D, ceil(sqrt(N))) for D the lcm of the letters'
    denominators and N the larger sum of a letter's squared numerators over
    D, top the last level that max_len and the budget allow (so a small
    budget sizes fields, not a huge max_len); scaled by D^(top-L), all
    levels lie over D^top.  Adding 2^(width-1) to each field and flipping
    that bit back leaves each field's two's complement in its own bytes, and
    word k's key is the bytes of its four fields side by side: equal keys
    are equal quaternions.  Each level's keys go into one set, and only when
    the set holds fewer keys than words scanned has a key repeated; then one
    pass over the kept levels' keys, whose codes run on from 2, finds each
    word's first code and lists the collisions: as levels double, at most
    twice the words scanned over the scan.  A word is scalar when its field
    of col1 | col2 | col3 is zero, which one carry through the low bits of
    every field finds for the whole level."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    den = lcm(pair.a[4], pair.b[4])
    # the rows of x -> g x for each letter g over den, read off hamilton
    letters = [(*(v * (den // q[4]) for v in q[:4]), 1) for q in (pair.a, pair.b)]
    maps = [list(zip(*(hamilton(g, e)[:4] for e in UNIT_QUATERNIONS))) for g in letters]
    top = min(max_len, max(node_budget, 0).bit_length() + 1)
    norm2 = max(sum(v * v for v in g[:4]) for g in letters)
    growth = max(den, isqrt(norm2) + (isqrt(norm2) ** 2 < norm2))
    width = 64 * ((growth**top).bit_length() // 64 + 1)  # a sign bit to spare
    step, limbs = width // 8, width // 64
    cols = [1, 0, 0, 0]  # the empty word: the identity
    seen, levels, collisions, scalar_words = set(), [], [], []
    for length in range(1, max_len + 1):
        n = 1 << length - 1  # words in the last level; 2n - 2 in levels 1 to L-1, all kept
        kept, truncated = level_cut(n, len(maps), node_budget - (2 * n - 2))
        used = maps[: 1 + (kept > n)]  # letter 1 only when it has a child kept
        halves = [[sum(c * x for c, x in zip(row, cols) if c) for row in m] for m in used]
        cols = halves[0] if kept <= n else [c0 + (c1 << width * n) for c0, c1 in zip(*halves)]
        total, scale = n * len(halves), den ** (top - length)
        offset = int.from_bytes((1 << width - 1).to_bytes(step, "little") * total, "little")
        fields = [(col * scale + offset) ^ offset for col in cols]
        keys = bytearray(4 * step * kept)
        into = memoryview(keys).cast("Q")  # limbs are moved, never read, so any byte order
        for j, f in enumerate(fields):
            limb = memoryview(f.to_bytes(step * total, "little")).cast("Q")
            for t in range(limbs):
                into[j * limbs + t :: 4 * limbs] = limb[t : kept * limbs : limbs]
        signs = offset & (1 << width * kept) - 1  # the top bit of each kept field
        low = signs - (signs >> width - 1)
        x = fields[1] | fields[2] | fields[3]
        zero = signs ^ ((x & low) + low | x) & signs  # the top bit of each zero field
        codes = range(1 << length, (1 << length) + kept)
        if zero:
            marks = zero.to_bytes(step * kept, "little")[step - 1 :: step]
            scalar_words += (bin(code)[3:] for code in compress(codes, marks))
        levels.append(Struct(f"{4 * step}s" * kept).unpack(keys))
        seen.update(levels[-1])
        if len(seen) < 2 * n - 2 + kept:  # some key was seen before: list every collision
            first = {}
            firsts = list(map(first.setdefault, chain.from_iterable(levels), count(2)))
            pairs = compress(zip(firsts, count(2)), map(ne, firsts, count(2)))
            collisions = [Collision(bin(a)[3:], bin(b)[3:]) for a, b in pairs]
        if truncated:
            break
    return CollisionReport(
        scanned_max_len=length - 1 if truncated else length,
        word_count=2 * n - 2 + kept,
        collisions=tuple(collisions),
        scalar_words=tuple(scalar_words),
        truncated=truncated,
    )


@dataclass(frozen=True, slots=True)
class FreenessCertificate(Report):
    """A prime p and, per two-letter reduced word over a, A = a^dag, b and
    B = b^dag, the product of the letters' numerators mod p."""

    prime: int
    pairs: Dict[str, Tuple[int, ...]]


def _small_odd_primes(n: int):
    """The odd primes up to 2^16 that divide n > 0, ascending."""
    for p in range(3, min(n, 1 << 16) + 1, 2):
        if n % p == 0:  # p is prime: its prime factors are divided out
            yield p
            while n % p == 0:
                n //= p


def freeness_certificate(pair: FreePair) -> Optional[FreenessCertificate]:
    """A proof that no nonempty reduced word over a, a^dag, b, b^dag is a
    scalar, or None when no prime gives one.

    Take an odd prime p that divides each letter's norm numerator (the sum
    of its squared numerators).  Mod p the quaternions are the 2x2 matrices
    over F_p, and a letter is 0 or of rank 1: u v^T.  A word's numerator
    u_1 (v_1 . u_2) ... (v_(n-1) . u_n) v_n^T is nonzero mod p when each
    adjacent pair's product is, so when all 12 products of letters s, t with
    t != s^dag are, every reduced word is.  A scalar word's numerator
    (m, 0, 0, 0) has m^2 equal to the product of the letters' norms, so it
    vanishes mod p: no reduced word is scalar (the argument of
    Lubotzky-Phillips-Sarnak, Combinatorica 1988).  Odd primes up to 2^16
    that divide both denominators too are tried in ascending order; for
    unit letters, whose norm is the denominator squared, none is lost.
    """
    a, b = pair.a, pair.b
    letters = {"a": a, "A": q_adjoint(a), "b": b, "B": q_adjoint(b)}
    norms = (sum(v * v for v in q[:4]) for q in (a, b))
    for p in _small_odd_primes(gcd(a[4], b[4], *norms)):
        pairs = {
            s + t: tuple(v % p for v in hamilton(x, y)[:4])
            for s, x in letters.items()
            for t, y in letters.items()
            if t != s.swapcase()
        }
        if all(map(any, pairs.values())):
            return FreenessCertificate(p, pairs)
    return None
