"""Exact arithmetic kernel: rationals, Gaussian rationals, dense matrices.

Everything is integer-backed and canonical on construction, so equality,
hashing and digests are bit-stable across runs.  No floating point is used
anywhere in this package.

A matrix keeps its entries as Gaussian-integer numerators over a single
positive denominator with gcd(numerators, denominator) = 1.  That canonical
form makes structural equality exact and lets the hot operations run on
plain integers: the positive-semidefinite test is one fraction-free
(Bareiss) symmetric-pivot elimination of the numerators' real symmetric
form, upper triangle only, O(n^3) with exact divisions, and unit trace
compares the diagonal numerators with the denominator.  A depolarising
channel's action (`depolarised`) and the assembly of a Choi operator from
the images of the matrix units (`choi_from_images`) each take one common
denominator.  A Hermitian matrix is also a reduced integer key
(`hermitian_key`), and a Choi operator gives its channel's integer map on
keys (`choi_key_map`, read through an index table cached per d), which the
state exploration applies, checking unit trace on the key.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm
from operator import add, itemgetter, neg
from typing import Iterator, Sequence, Union

EntryLike = Union["GaussianRational", Fraction, int]


class ShapeError(ValueError):
    """Operand dimensions do not fit the requested operation."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")


def rat_from_str(text: str) -> Fraction:
    """Parse the canonical rational form "p/q" (q omitted when 1, never 0)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact number, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    def abs2(self) -> Fraction:
        """Squared modulus; always a plain rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        a2 = self.abs2()
        if a2 == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / a2, -self.im / a2)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def as_gaussian(value: EntryLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(_as_fraction(value))


GR_ZERO = GaussianRational(Fraction(0))


def gr_to_str(z: GaussianRational) -> str:
    """Canonical text form: "re", "im*i" or "re+im*i" / "re-im*i"."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return f"{z.im}*i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}*i"


def _matmul_int(n: int, m: int, p: int, a: Sequence[int], b: Sequence[int]) -> list:
    """Product of an n*m and an m*p Gaussian-integer matrix (flat re/im pairs)."""
    out = [0] * (2 * n * p)
    for i in range(n):
        arow = 2 * i * m
        orow = 2 * i * p
        for k in range(p):
            sr = 0
            si = 0
            bidx = 2 * k
            aidx = arow
            for _ in range(m):
                ar = a[aidx]
                ai = a[aidx + 1]
                br = b[bidx]
                bi = b[bidx + 1]
                sr += ar * br - ai * bi
                si += ar * bi + ai * br
                aidx += 2
                bidx += 2 * p
            out[orow + 2 * k] = sr
            out[orow + 2 * k + 1] = si
    return out


@lru_cache(maxsize=8)
def _key_slots(d: int) -> tuple:
    """Where a d x d Hermitian key's numerators sit in _num, and the getter
    of _num from the key followed by its negated imaginary parts and a zero."""
    upper = [(i, j) for i in range(d) for j in range(i + 1, d)]
    slots = [2 * (i * d + i) for i in range(d)]
    slots += [2 * (i * d + j) + part for part in (0, 1) for i, j in upper]
    spread = [d * d + len(upper) + 1] * (2 * d * d)  # the zero
    for k, slot in enumerate(slots):
        spread[slot] = k
    for t, (i, j) in enumerate(upper):  # the lower triangle
        spread[2 * (j * d + i)], spread[2 * (j * d + i) + 1] = d + t, d * d + 1 + t
    return tuple(slots), itemgetter(*spread)


@lru_cache(maxsize=8)
def _key_map_slots(d: int) -> tuple:
    """Two getters of ExactMatrix.choi_key_map's rows, row-major, from a
    d^2 x d^2 Choi operator's _num followed by its negation, a zero and the
    denominator: each entry is the sum of its two picks."""
    n = d * d
    size = 2 * n * n  # the length of _num; a pick past it is negated
    zero = 2 * size

    def at(i, j, s, flip=0):  # Phi(E_ij) at key slot s, or at its other part
        e, part = divmod(s, 2)
        return 2 * ((e // d * d + i) * n + e % d * d + j) + (part ^ flip)

    slots = _key_slots(d)[0]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    cols = [[(at(i, i, s), zero) for s in slots] for i in range(d)]
    cols += [[(at(i, j, s), at(j, i, s)) for s in slots] for i, j in pairs]
    # Im z_ij enters as i E_ij - i E_ji; times i, a real part is -Im and an imaginary Re
    cols += [[(at(i, j, s, 1) + size * (1 - s % 2), at(j, i, s, 1) + size * (s % 2))
              for s in slots] for i, j in pairs]
    picks = [p for row in zip(*cols) for p in (*row, (zero, zero))]
    picks += [(zero, zero)] * n + [(zero + 1, zero)]  # the denominator's row
    return itemgetter(*(p for p, _ in picks)), itemgetter(*(q for _, q in picks))


def key_has_unit_trace(d: int, key: Sequence[int]) -> bool:
    """Whether the d x d Hermitian matrix a key spells has trace exactly 1."""
    return sum(key[:d]) == key[-1]


class ExactMatrix:
    """Immutable dense matrix over Gaussian rationals.

    Stored canonically as Gaussian-integer numerators over one positive
    denominator; construction always normalizes, never lazily.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries: Sequence[EntryLike]):
        entries = [as_gaussian(e) for e in entries]
        if rows <= 0 or cols <= 0:
            raise ShapeError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        den = 1
        for z in entries:
            den = lcm(den, z.re.denominator, z.im.denominator)
        nums = []
        for z in entries:
            nums.append(z.re.numerator * (den // z.re.denominator))
            nums.append(z.im.numerator * (den // z.im.denominator))
        self._init_raw(rows, cols, nums, den)

    # -- construction helpers -------------------------------------------------

    def _init_raw(self, rows: int, cols: int, nums: list, den: int) -> None:
        g = gcd(den, *nums)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        self.rows = rows
        self.cols = cols
        self._num = tuple(nums)
        self._den = den

    @classmethod
    def _raw(cls, rows: int, cols: int, nums: list, den: int) -> "ExactMatrix":
        obj = object.__new__(cls)
        obj._init_raw(rows, cols, nums, den)
        return obj

    @classmethod
    def from_rows(cls, rows_seq: Sequence[Sequence[EntryLike]]) -> "ExactMatrix":
        rows = len(rows_seq)
        if rows == 0:
            raise ShapeError("no rows")
        cols = len(rows_seq[0])
        flat = []
        for r in rows_seq:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    @classmethod
    def from_integers(cls, rows: int, cols: int, values: Sequence[int], den=1) -> "ExactMatrix":
        """The real matrix of the integer numerators `values`, row-major, over
        the positive denominator den."""
        if den < 1:
            raise ValueError("a denominator must be positive")
        nums = [0] * (2 * rows * cols)
        nums[::2] = values
        return cls._raw(rows, cols, nums, den)

    @classmethod
    def choi_from_images(cls, images: Sequence["ExactMatrix"]) -> "ExactMatrix":
        """The Choi operator sum_ij Phi(E_ij) (x) E_ij of the map with
        Phi(E_ij) = images[i*d + j] (matrix_units order), so J[a*d + i,
        b*d + j] = Phi(E_ij)[a, b]: the images' numerators over one denominator."""
        d = images[0].rows
        if len(images) != d * d or any((m.rows, m.cols) != (d, d) for m in images):
            raise ShapeError("a Choi operator needs the images of all d^2 matrix units")
        den = lcm(*(m._den for m in images))
        num = [[den // m._den * v for v in m._num] for m in images]
        nums = []
        for a, i, b, j in product(range(d), repeat=4):  # row a*d + i, column b*d + j
            nums += num[i * d + j][2 * (a * d + b) : 2 * (a * d + b) + 2]
        return cls._raw(d * d, d * d, nums, den)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_integers(n, n, [int(k % (n + 1) == 0) for k in range(n * n)])

    @classmethod
    def diagonal(cls, values: Sequence[EntryLike]) -> "ExactMatrix":
        n = len(values)
        entries = [GR_ZERO] * (n * n)
        for i, v in enumerate(values):
            entries[i * n + i] = as_gaussian(v)
        return cls(n, n, entries)

    @classmethod
    def from_hermitian_key(cls, key: Sequence[int]) -> "ExactMatrix":
        """The d x d Hermitian matrix a key of d*d + 1 entries spells (see
        hermitian_key); a key need not be reduced."""
        d = isqrt(max(len(key) - 1, 0))
        n = d * d
        if d < 1 or len(key) != n + 1:
            raise ShapeError(f"a Hermitian key has d*d + 1 entries, got {len(key)}")
        ext = (*key, *map(neg, key[(n + d) // 2 : n]), 0)
        return cls._raw(d, d, _key_slots(d)[1](ext), key[-1])

    # -- element access -------------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        k = 2 * (i * self.cols + j)
        return GaussianRational(
            Fraction(self._num[k], self._den), Fraction(self._num[k + 1], self._den)
        )

    def entries(self) -> Iterator[GaussianRational]:
        den = self._den
        num = self._num
        for k in range(self.rows * self.cols):
            yield GaussianRational(Fraction(num[2 * k], den), Fraction(num[2 * k + 1], den))

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        nums = _matmul_int(self.rows, self.cols, other.cols, self._num, other._num)
        return ExactMatrix._raw(self.rows, other.cols, nums, self._den * other._den)

    def scale(self, value: EntryLike) -> "ExactMatrix":
        z = as_gaussian(value)
        den = lcm(z.re.denominator, z.im.denominator)
        zr = z.re.numerator * (den // z.re.denominator)
        zi = z.im.numerator * (den // z.im.denominator)
        re, im = self._num[::2], self._num[1::2]
        nums = [0] * len(self._num)
        nums[::2] = [x * zr - y * zi for x, y in zip(re, im)]
        nums[1::2] = [x * zi + y * zr for x, y in zip(re, im)]
        return ExactMatrix._raw(self.rows, self.cols, nums, self._den * den)

    def depolarised(self, p: Fraction, image: "ExactMatrix") -> "ExactMatrix":
        """p K + (1 - p) tr(m) I/n for this n x n operator m and K = image,
        over one denominator."""
        n = self.rows
        step = 2 * n + 2  # the diagonal's real parts sit this far apart in _num
        tr, ti = sum(self._num[::step]), sum(self._num[1::step])
        pn, pd = p.numerator, p.denominator
        den = lcm(image._den, self._den)
        fk, fi = n * pn * (den // image._den), (pd - pn) * (den // self._den)
        nums = [fk * v for v in image._num]
        nums[::step] = [v + fi * tr for v in nums[::step]]
        nums[1::step] = [v + fi * ti for v in nums[1::step]]
        return ExactMatrix._raw(n, n, nums, n * pd * den)

    def dagger(self) -> "ExactMatrix":
        """Conjugate transpose."""
        num = self._num
        cols = self.cols
        nums = [0] * len(num)
        for i in range(self.rows):
            for j in range(cols):
                src = 2 * (i * cols + j)
                dst = 2 * (j * self.rows + i)
                nums[dst] = num[src]
                nums[dst + 1] = -num[src + 1]
        return ExactMatrix._raw(self.cols, self.rows, nums, self._den)

    def hermitian_key(self) -> tuple:
        """A Hermitian matrix's reduced integer coordinates: the diagonal's
        numerators, the real and then the imaginary parts of the upper
        triangle (row-major), the denominator.  Equal keys mean equal
        matrices, and a key spells only Hermitian ones."""
        return (*(self._num[k] for k in _key_slots(self.rows)[0]), self._den)

    def choi_key_map(self, d: int) -> tuple:
        """The map on Hermitian keys of the channel with this Choi operator J,
        Phi(E_ij)[a, b] = J[a*d + i, b*d + j], as integer rows over J's
        denominator (the last row scales the key's).  A Hermitian J keeps
        images Hermitian, so their upper triangle is all; others raise ValueError."""
        n = d * d
        if (self.rows, self.cols) != (n, n):
            raise ShapeError("a Choi operator of a d-dimensional channel is d^2 x d^2")
        if not self.is_hermitian():
            raise ValueError("Choi operator is not Hermitian")
        first, second = _key_map_slots(d)
        ext = (*self._num, *map(neg, self._num), 0, self._den)
        return tuple(zip(*[iter(map(add, first(ext), second(ext)))] * (n + 1)))

    def partial_trace_first(self, dim_first: int, dim_second: int) -> "ExactMatrix":
        """Trace out the first tensor factor of a (d1*d2)-dimensional operator."""
        d = dim_first * dim_second
        if self.rows != d or self.cols != d:
            raise ShapeError("operator does not match the factor dimensions")
        nums = [0] * (2 * dim_second * dim_second)
        for i in range(dim_second):
            for j in range(dim_second):
                sr = 0
                si = 0
                for a in range(dim_first):
                    src = 2 * ((a * dim_second + i) * d + (a * dim_second + j))
                    sr += self._num[src]
                    si += self._num[src + 1]
                nums[2 * (i * dim_second + j)] = sr
                nums[2 * (i * dim_second + j) + 1] = si
        return ExactMatrix._raw(dim_second, dim_second, nums, self._den)

    # -- predicates -----------------------------------------------------------

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        num = self._num
        for i in range(n):
            if num[2 * (i * n + i) + 1] != 0:
                return False
            for j in range(i + 1, n):
                a = 2 * (i * n + j)
                b = 2 * (j * n + i)
                if num[a] != num[b] or num[a + 1] != -num[b + 1]:
                    return False
        return True

    def has_unit_trace(self) -> bool:
        """Whether a square matrix has trace exactly 1, on its numerators."""
        step = 2 * self.rows + 2
        return sum(self._num[::step]) == self._den and not sum(self._num[1::step])

    def is_psd(self) -> bool:
        """Exact positive-semidefiniteness for Hermitian matrices.

        Fraction-free symmetric-pivot elimination (Bareiss 1968) on a real
        symmetric integer matrix; the positive common denominator only
        rescales the spectrum.  With numerators A + iB, that matrix is A when
        B = 0, and otherwise [[A, -B], [B, A]], which is PSD exactly when
        A + iB is: it is the real form of A + iB, and each eigenvalue of
        A + iB appears in it twice.  Each step takes the first positive
        remaining diagonal entry p as pivot and updates the remainder by
        x <- (p*x - a*b) / prev, where prev is the previous pivot (1 at the
        start).  Every entry then stays an integer minor, and the
        remainder is prev times the Schur complement of the pivots taken so
        far, whose leading block is positive definite.  So a negative
        remaining diagonal entry means the matrix is not PSD, and when every
        remaining diagonal entry is zero the matrix is PSD exactly when the
        whole remainder is zero.  The Schur complement of a symmetric
        matrix is symmetric, so each step computes only the entries (i, j)
        with j >= i and mirrors them to (j, i).  O(n^3) integer operations.
        """
        if self.rows != self.cols:
            raise ShapeError("is_psd requires a square matrix")
        if not self.is_hermitian():
            raise ValueError("is_psd requires a Hermitian matrix")
        n = self.rows
        num = self._num
        rows = [list(num[2 * i * n : 2 * (i + 1) * n : 2]) for i in range(n)]
        if any(num[1::2]):  # the real form [[A, -B], [B, A]]
            im = [list(num[2 * i * n + 1 : 2 * (i + 1) * n : 2]) for i in range(n)]
            rows = [a + [*map(neg, b)] for a, b in zip(rows, im)] + list(map(add, im, rows))
        rest = list(range(len(rows)))
        prev = 1
        while rest:
            k = -1
            for i in rest:
                d = rows[i][i]
                if d < 0:
                    return False
                if d > 0 and k < 0:
                    k = i
            if k < 0:
                return not any(rows[i][j] for i in rest for j in rest)
            rest.remove(k)
            p = rows[k][k]
            krow = rows[k]
            for t, i in enumerate(rest):
                irow = rows[i]
                a = irow[k]
                for j in rest[t:]:
                    x, r = divmod(p * irow[j] - a * krow[j], prev)
                    if r:
                        raise ArithmeticError("inexact division in Bareiss elimination")
                    irow[j] = rows[j][i] = x
            prev = p
        return True

    # -- identity, hashing, serialization --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._den, self._num))

    def digest(self) -> str:
        """Run-stable fingerprint of the canonical form (truncated SHA-256)."""
        h = hashlib.sha256()
        h.update(f"{self.rows},{self.cols},{self._den}:".encode())
        h.update(",".join(map(str, self._num)).encode())
        return h.hexdigest()[:32]

    def to_json_dict(self) -> dict:
        entries = [gr_to_str(z) for z in self.entries()]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    def __repr__(self) -> str:
        if self.rows * self.cols <= 16:
            body = "; ".join(
                ", ".join(gr_to_str(self.entry(i, j)) for j in range(self.cols))
                for i in range(self.rows)
            )
            return f"ExactMatrix({self.rows}x{self.cols}: {body})"
        return f"ExactMatrix({self.rows}x{self.cols}, digest={self.digest()[:8]})"


@lru_cache(maxsize=8)
def matrix_units(d: int) -> tuple:
    """The d x d matrix units E_ij, row-major in (i, j)."""
    return tuple(ExactMatrix.from_integers(d, d, [int(k == e) for k in range(d * d)])
                 for e in range(d * d))


@dataclass(frozen=True, slots=True)
class ExactDensityMatrix:
    """Density operator: Hermitian, unit trace, positive semidefinite, exact.

    is_psd rejects a non-Hermitian matrix (ValueError), so that is not
    checked twice here.
    """

    mat: ExactMatrix

    def __post_init__(self):
        m = self.mat
        if m.cols != m.rows:
            raise ShapeError("density matrix must be square")
        if not m.has_unit_trace():
            raise ValueError("density matrix must have unit trace")
        if not m.is_psd():
            raise ValueError("density matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mat.rows

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "ExactDensityMatrix":
        return cls(ExactMatrix.diagonal([int(i == k) for i in range(dim)]))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "ExactDensityMatrix":
        return cls(ExactMatrix.identity(dim).scale(Fraction(1, dim)))
