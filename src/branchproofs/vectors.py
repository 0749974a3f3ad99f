"""Exact rational scalars, vectors and the bit-size measure.

Every numeric quantity in this package is a ``fractions.Fraction`` (kept in
lowest terms with a positive denominator by the stdlib), so all arithmetic,
comparisons and floors are exact.

A :class:`Vector` is an immutable fixed-dimension tuple of Fractions with the
usual linear operations, the l1 / l-infinity norms, and nearest-integer
rounding (ties away from zero).  ``bit_size`` implements the encoding-length
measure used throughout: a rational p/q costs ``1 + ceil(log2(|p|+1)) +
ceil(log2(q+1))`` bits, a vector costs its dimension plus the entry costs, and
an m x n matrix costs ``m*n`` plus the entry costs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


_ZERO = Fraction(0)  # shared by every parsed zero; a Fraction is immutable


def parse_integer(text: str) -> int:
    """Parse an integer literal: ASCII digits after an optional sign ``-``,
    ``+`` or the unicode minus.  ``int`` alone would also read ``_`` digit
    separators and non-ASCII digits."""
    if text == "0":  # the commonest token by far
        return 0
    cleaned = text.strip().replace("−", "-")
    if "_" in cleaned or not cleaned.isascii():
        raise ValueError(f"invalid integer literal {cleaned!r}")
    return int(cleaned)


def parse_rational(text: str) -> Fraction:
    """Parse the text form "p/q" or "p" (optional leading sign)."""
    if text == "0":  # the commonest token by far
        return _ZERO
    if not text.strip():
        raise ValueError("empty rational literal")
    num, slash, den = text.partition("/")
    if not slash:
        value = parse_integer(num)
        return Fraction(value) if value else _ZERO
    numerator, denominator = parse_integer(num), parse_integer(den)
    if denominator == 0:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Scalar) -> str:
    """Render a rational in the "p/q" / "p" text form (ASCII minus)."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def round_half_away(value: Scalar) -> int:
    """Nearest integer, with exact halves rounded away from zero.

    This is the coordinate-wise rounding used for Diophantine approximation;
    any nearest integer works there, and the away-from-zero rule is
    sign-symmetric: round(-x) == -round(x).
    """
    frac = Fraction(value)
    if frac >= 0:
        return (2 * frac.numerator + frac.denominator) // (2 * frac.denominator)
    return -round_half_away(-frac)


class Vector:
    """Immutable vector of Fractions of fixed dimension."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Scalar]):
        # dimension 0 is allowed: multiplier vectors of row-less systems;
        # an entry that is already a Fraction is kept, not copied
        self.entries: tuple[Fraction, ...] = tuple(
            e if type(e) is Fraction else Fraction(e) for e in entries
        )

    @staticmethod
    def zero(dim: int) -> "Vector":
        vec = object.__new__(Vector)
        vec.entries = (_ZERO,) * dim
        return vec

    @staticmethod
    def unit(dim: int, index: int) -> "Vector":
        entries = [Fraction(0)] * dim
        entries[index] = Fraction(1)
        return Vector(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __mul__(self, scalar: Scalar) -> "Vector":
        s = Fraction(scalar)
        return Vector(a * s for a in self.entries)

    __rmul__ = __mul__

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def dot(self, other: "Vector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def norm_linf(self) -> Fraction:
        if not self.entries:
            return Fraction(0)
        return max(abs(a) for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    def round_nearest(self) -> "Vector":
        """Coordinate-wise nearest integer, halves away from zero."""
        return Vector(round_half_away(a) for a in self.entries)

    def as_ints(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError(f"vector {self} is not integral")
        return tuple(a.numerator for a in self.entries)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError(
                f"dimension mismatch: {len(self.entries)} vs {len(other.entries)}"
            )

    def __repr__(self) -> str:
        return "Vector((%s))" % ", ".join(format_rational(a) for a in self.entries)

    def text(self) -> str:
        return " ".join(format_rational(a) for a in self.entries)


def bit_size(obj) -> int:
    """Number of bits to express a rational, a vector, or a matrix.

    Rational p/q (q > 0, lowest terms): 1 + ceil(log2(|p|+1)) + ceil(log2(q+1)).
    Vector of dimension n: n + sum of entry sizes.
    Matrix given as a sequence of m rows: m*n + sum of entry sizes.

    Labeled trees are handled by the proof objects themselves (node count plus
    edge count plus label sizes); absent labels cost 0 bits.
    """
    # v.bit_length() is ceil(log2(|v| + 1)); an int is its own numerator over 1
    if isinstance(obj, Vector):
        return len(obj.entries) + sum(
            [1 + e.numerator.bit_length() + e.denominator.bit_length() for e in obj.entries]
        )
    if isinstance(obj, (int, Fraction)):
        return 1 + obj.numerator.bit_length() + obj.denominator.bit_length()
    if isinstance(obj, Sequence):
        rows = [list(row) for row in obj]
        return sum(len(row) + sum(map(bit_size, row)) for row in rows)
    raise TypeError(f"bit_size not defined for {type(obj).__name__}")


def sparse_bit_size(dim: int, nonzeros) -> int:
    """``bit_size`` of the dimension-``dim`` vector whose nonzero entries are
    the ``(index, value)`` pairs: each zero entry costs 2 bits."""
    return 3 * dim - 2 * len(nonzeros) + sum(
        [1 + v.numerator.bit_length() + v.denominator.bit_length() for _, v in nonzeros]
    )
