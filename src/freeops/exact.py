"""Exact arithmetic kernel: rationals, Gaussian rationals, dense matrices.

Everything is integer-backed and canonical on construction, so equality,
hashing and digests are bit-stable across runs.  No floating point is used
anywhere in this package.

A matrix keeps its entries as Gaussian-integer numerators over a single
positive denominator with gcd(numerators, denominator) = 1.  That canonical
form makes structural equality exact and lets the positive-semidefinite test
run entirely over plain integers.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence, Union

EntryLike = Union["GaussianRational", Fraction, int]


class ShapeError(ValueError):
    """Operand dimensions do not fit the requested operation."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rat_from_str(text: str) -> Fraction:
    """Parse the canonical rational form "p/q" (q omitted when 1)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def rat_to_str(value: Fraction) -> str:
    return str(value)


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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * as_gaussian(other).inverse()

    def __str__(self) -> str:
        return gr_to_str(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def as_gaussian(value: EntryLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(_as_fraction(value))


def gr(re, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions or "p/q" strings."""
    if isinstance(re, str):
        re = rat_from_str(re)
    if isinstance(im, str):
        im = rat_from_str(im)
    return GaussianRational(_as_fraction(re), _as_fraction(im))


GR_ZERO = GaussianRational(Fraction(0))
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def gr_to_str(z: GaussianRational) -> str:
    """Canonical text form: "re", "im*i" or "re+im*i" / "re-im*i"."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return f"{z.im}*i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}*i"


def gr_from_str(text: str) -> GaussianRational:
    text = text.strip()
    if not text.endswith("*i"):
        return GaussianRational(rat_from_str(text))
    body = text[:-2]
    # Split at the sign separating the real part from the imaginary
    # coefficient; a leading sign belongs to the real part.
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-":
            return GaussianRational(
                rat_from_str(body[:idx]),
                rat_from_str(body[idx] + body[idx + 1 :]),
            )
    return GaussianRational(Fraction(0), rat_from_str(body))


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


class ExactMatrix:
    """Immutable dense matrix over Gaussian rationals.

    Stored canonically as Gaussian-integer numerators over one positive
    denominator; construction always normalizes, never lazily.
    """

    __slots__ = ("rows", "cols", "_num", "_den", "_hash", "_dig")

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
        g = den
        for v in nums:
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        self.rows = rows
        self.cols = cols
        self._num = tuple(nums)
        self._den = den
        self._hash = None
        self._dig = None

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
    def identity(cls, n: int) -> "ExactMatrix":
        nums = [0] * (2 * n * n)
        for i in range(n):
            nums[2 * (i * n + i)] = 1
        return cls._raw(n, n, nums, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._raw(rows, cols, [0] * (2 * rows * cols), 1)

    @classmethod
    def diagonal(cls, values: Sequence[EntryLike]) -> "ExactMatrix":
        n = len(values)
        entries = [GR_ZERO] * (n * n)
        for i, v in enumerate(values):
            entries[i * n + i] = as_gaussian(v)
        return cls(n, n, entries)

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

    def block(self, row0: int, col0: int, rows: int, cols: int) -> "ExactMatrix":
        if row0 + rows > self.rows or col0 + cols > self.cols:
            raise ShapeError("block exceeds matrix bounds")
        nums = []
        for i in range(row0, row0 + rows):
            base = 2 * i * self.cols
            for j in range(col0, col0 + cols):
                nums.append(self._num[base + 2 * j])
                nums.append(self._num[base + 2 * j + 1])
        return ExactMatrix._raw(rows, cols, nums, self._den)

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

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        den = lcm(self._den, other._den)
        fa = den // self._den
        fb = den // other._den
        nums = [fa * x + fb * y for x, y in zip(self._num, other._num)]
        return ExactMatrix._raw(self.rows, self.cols, nums, den)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def scale(self, value: EntryLike) -> "ExactMatrix":
        z = as_gaussian(value)
        den = lcm(z.re.denominator, z.im.denominator)
        zr = z.re.numerator * (den // z.re.denominator)
        zi = z.im.numerator * (den // z.im.denominator)
        return self._scaled(zr, zi, 1, den)

    def _scaled(self, zr: int, zi: int, num_scale: int, den_scale: int) -> "ExactMatrix":
        """self * (zr + zi*i) * num_scale / den_scale, all integers."""
        num = self._num
        nums = [0] * len(num)
        for k in range(0, len(num), 2):
            ar = num[k]
            ai = num[k + 1]
            nums[k] = (ar * zr - ai * zi) * num_scale
            nums[k + 1] = (ar * zi + ai * zr) * num_scale
        return ExactMatrix._raw(self.rows, self.cols, nums, self._den * den_scale)

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

    def pow(self, exponent: int) -> "ExactMatrix":
        """Exact matrix power; exponent 0 gives the identity."""
        if self.rows != self.cols:
            raise ShapeError("matrix power requires a square matrix")
        if exponent < 0:
            raise ValueError("negative exponents are not defined here")
        result = ExactMatrix.identity(self.rows)
        for _ in range(exponent):
            result = result @ self
        return result

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ShapeError("trace requires a square matrix")
        tr = 0
        ti = 0
        n = self.cols
        for i in range(n):
            tr += self._num[2 * (i * n + i)]
            ti += self._num[2 * (i * n + i) + 1]
        return GaussianRational(Fraction(tr, self._den), Fraction(ti, self._den))

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        rows = self.rows * other.rows
        cols = self.cols * other.cols
        nums = [0] * (2 * rows * cols)
        for i1 in range(self.rows):
            for j1 in range(self.cols):
                a = 2 * (i1 * self.cols + j1)
                ar = self._num[a]
                ai = self._num[a + 1]
                if ar == 0 and ai == 0:
                    continue
                for i2 in range(other.rows):
                    for j2 in range(other.cols):
                        b = 2 * (i2 * other.cols + j2)
                        br = other._num[b]
                        bi = other._num[b + 1]
                        dst = 2 * ((i1 * other.rows + i2) * cols + (j1 * other.cols + j2))
                        nums[dst] = ar * br - ai * bi
                        nums[dst + 1] = ar * bi + ai * br
        return ExactMatrix._raw(rows, cols, nums, self._den * other._den)

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

    def is_unitary(self) -> bool:
        if self.rows != self.cols:
            return False
        return (self @ self.dagger()) == ExactMatrix.identity(self.rows)

    def as_scalar(self):
        """Return c when the matrix equals c * identity, else None."""
        if self.rows != self.cols:
            raise ShapeError("scalar test requires a square matrix")
        n = self.rows
        num = self._num
        dr = num[0]
        di = num[1]
        for i in range(n):
            for j in range(n):
                k = 2 * (i * n + j)
                if i == j:
                    if num[k] != dr or num[k + 1] != di:
                        return None
                elif num[k] != 0 or num[k + 1] != 0:
                    return None
        return GaussianRational(Fraction(dr, self._den), Fraction(di, self._den))

    def is_scalar(self) -> bool:
        return self.as_scalar() is not None

    def _int_char_poly(self) -> list:
        """Characteristic polynomial of the numerator matrix, over the Gaussian
        integers, by the Faddeev-LeVerrier recurrence (all divisions exact).

        Returns ascending coefficients of det(x*I - N) as (re, im) pairs.
        """
        n = self.rows
        a = self._num
        coeffs = [(0, 0)] * (n + 1)
        coeffs[n] = (1, 0)
        m = list(ExactMatrix.identity(n)._num)
        for k in range(1, n + 1):
            am = _matmul_int(n, n, n, a, m)
            tr = sum(am[2 * (i * n + i)] for i in range(n))
            ti = sum(am[2 * (i * n + i) + 1] for i in range(n))
            if tr % k or ti % k:
                raise ArithmeticError("inexact division in char-poly recurrence")
            cr = -(tr // k)
            ci = -(ti // k)
            coeffs[n - k] = (cr, ci)
            m = am
            for i in range(n):
                m[2 * (i * n + i)] += cr
                m[2 * (i * n + i) + 1] += ci
        return coeffs

    def char_poly(self) -> tuple:
        """Ascending coefficients of det(x*I - M) as GaussianRationals."""
        if self.rows != self.cols:
            raise ShapeError("characteristic polynomial requires a square matrix")
        n = self.rows
        den = self._den
        out = []
        for k, (cr, ci) in enumerate(self._int_char_poly()):
            d = den ** (n - k)
            out.append(GaussianRational(Fraction(cr, d), Fraction(ci, d)))
        return tuple(out)

    def det(self) -> GaussianRational:
        c0 = self.char_poly()[0]
        return c0 if self.rows % 2 == 0 else -c0

    def is_psd(self) -> bool:
        """Exact positive-semidefiniteness for Hermitian matrices.

        Uses the weak sign-alternation of the characteristic polynomial:
        with all eigenvalues real, det(x*I - M) has coefficient of x^k of
        sign (-1)^(n-k) (or zero) exactly when no eigenvalue is negative.
        The test runs on the integer numerator matrix; the positive common
        denominator only rescales the spectrum.
        """
        if self.rows != self.cols:
            raise ShapeError("is_psd requires a square matrix")
        if not self.is_hermitian():
            raise ValueError("is_psd requires a Hermitian matrix")
        n = self.rows
        for k, (cr, ci) in enumerate(self._int_char_poly()):
            if ci != 0:
                raise ArithmeticError("Hermitian matrix with complex char poly")
            if cr != 0 and (cr > 0) != ((n - k) % 2 == 0):
                return False
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
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self._den, self._num))
        return self._hash

    def digest(self) -> str:
        """Run-stable fingerprint of the canonical form (truncated SHA-256)."""
        if self._dig is None:
            h = hashlib.sha256()
            h.update(f"{self.rows},{self.cols},{self._den}:".encode())
            h.update(",".join(map(str, self._num)).encode())
            self._dig = h.hexdigest()[:32]
        return self._dig

    def entry_strings(self) -> list:
        return [gr_to_str(z) for z in self.entries()]

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self.entry_strings()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactMatrix":
        return cls(
            int(data["rows"]),
            int(data["cols"]),
            [gr_from_str(s) for s in data["entries"]],
        )

    def __repr__(self) -> str:
        if self.rows * self.cols <= 16:
            body = "; ".join(
                ", ".join(gr_to_str(self.entry(i, j)) for j in range(self.cols))
                for i in range(self.rows)
            )
            return f"ExactMatrix({self.rows}x{self.cols}: {body})"
        return f"ExactMatrix({self.rows}x{self.cols}, digest={self.digest()[:8]})"


def block_diag(*blocks: ExactMatrix) -> ExactMatrix:
    if not blocks:
        raise ShapeError("block_diag needs at least one block")
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    den = 1
    for b in blocks:
        den = lcm(den, b._den)
    nums = [0] * (2 * rows * cols)
    r0 = 0
    c0 = 0
    for b in blocks:
        f = den // b._den
        for i in range(b.rows):
            for j in range(b.cols):
                src = 2 * (i * b.cols + j)
                dst = 2 * ((r0 + i) * cols + (c0 + j))
                nums[dst] = b._num[src] * f
                nums[dst + 1] = b._num[src + 1] * f
        r0 += b.rows
        c0 += b.cols
    return ExactMatrix._raw(rows, cols, nums, den)


@dataclass(frozen=True, slots=True)
class ExactDensityMatrix:
    """Density operator: Hermitian, unit trace, positive semidefinite, exact."""

    mat: ExactMatrix

    def __post_init__(self):
        m = self.mat
        if m.rows != m.cols:
            raise ShapeError("density matrix must be square")
        if not m.is_hermitian():
            raise ValueError("density matrix must be Hermitian")
        if m.trace() != GR_ONE:
            raise ValueError("density matrix must have unit trace")
        if not m.is_psd():
            raise ValueError("density matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mat.rows

    def digest(self) -> str:
        return self.mat.digest()

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "ExactDensityMatrix":
        m = [0] * (dim * dim)
        m[k * dim + k] = 1
        return cls(ExactMatrix(dim, dim, [as_gaussian(v) for v in m]))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "ExactDensityMatrix":
        return cls(ExactMatrix.identity(dim).scale(Fraction(1, dim)))

    def to_json_dict(self) -> dict:
        return self.mat.to_json_dict()

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactDensityMatrix":
        return cls(ExactMatrix.from_json_dict(data))
