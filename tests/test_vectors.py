"""Exact vector arithmetic, rounding, and the bit-size measure."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from branchproofs.vectors import (
    Vector,
    bit_size,
    format_rational,
    parse_rational,
    round_half_away,
)


def test_norm_examples():
    v = Vector([1, -2, 3])
    assert v.norm_linf() == 3


def test_round_nearest_examples():
    assert Vector([Fraction(7, 3), Fraction(-1, 4)]).round_nearest() == Vector([2, 0])
    # exact halves go away from zero
    assert Vector([Fraction(1, 2), Fraction(-1, 2)]).round_nearest() == Vector([1, -1])
    assert Vector([5, -2]).round_nearest() == Vector([5, -2])


def test_round_nearest_minimizes_distance():
    rng = Random(7)
    for _ in range(300):
        value = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        r = round_half_away(value)
        assert all(abs(value - r) <= abs(value - k) for k in range(-60, 61))


def test_bit_size_examples():
    assert bit_size(Fraction(0)) == 2
    assert bit_size(Fraction(3, 2)) == 5  # 1 + ceil(log2 4) + ceil(log2 3)
    assert bit_size(Vector([1, 1])) == 8  # 2 + 2 * (1 + 1 + 1)


def test_bit_size_matrix_counts_cells():
    matrix = [Vector([1, 1]), Vector([1, 1])]
    assert bit_size(matrix) == 4 + 4 * bit_size(1)


def ceil_log2(value: int) -> int:
    """The least k with 2^k >= value, for value >= 1, by doubling."""
    k = 0
    while 2**k < value:
        k += 1
    return k


def bits_by_definition(obj) -> int:
    """bit_size as its docstring defines it, with no bit_length."""
    if isinstance(obj, (int, Fraction)):
        frac = Fraction(obj)
        return 1 + ceil_log2(abs(frac.numerator) + 1) + ceil_log2(frac.denominator + 1)
    if isinstance(obj, Vector):
        return len(obj) + sum(map(bits_by_definition, obj))
    return sum(len(row) + sum(map(bits_by_definition, row)) for row in obj)


INTEGERS = st.integers(-(2**70), 2**70)
FRACTIONS = st.builds(Fraction, INTEGERS, st.integers(1, 2**40))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(obj=st.one_of(
    INTEGERS,
    FRACTIONS,
    st.lists(FRACTIONS, max_size=6).map(Vector),
    st.lists(st.lists(st.one_of(INTEGERS, FRACTIONS), min_size=3, max_size=3), max_size=4),
    st.lists(st.lists(FRACTIONS, min_size=2, max_size=2).map(Vector), max_size=4),
))
def test_bit_size_equals_its_definition(obj):
    assert bit_size(obj) == bits_by_definition(obj)


def test_bit_size_monotone_under_append():
    rng = Random(13)
    for _ in range(100):
        entries = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)
        ]
        for cut in range(1, 4):
            assert bit_size(Vector(entries[: cut + 1])) > bit_size(
                Vector(entries[:cut])
            )


def test_arithmetic_is_exact():
    rng = Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_vector_operations():
    u = Vector([1, 2])
    v = Vector([Fraction(1, 2), -1])
    assert u + v == Vector([Fraction(3, 2), 1])
    assert u - v == Vector([Fraction(1, 2), 3])
    assert 2 * v == Vector([1, -2])
    assert -v == Vector([Fraction(-1, 2), 1])
    assert u.dot(v) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        u + Vector([1])


def test_rational_text_form():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == -7
    assert parse_rational("−5/3") == Fraction(-5, 3)  # unicode minus
    assert format_rational(Fraction(-5, 3)) == "-5/3"
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rational("")


def reference_parse_rational(text: str) -> Fraction:
    """The text form parsed without the integer fast path.  ``int`` also
    reads ``_`` separators and non-ASCII digits, which the format does not
    allow."""
    def integer(part):
        if "_" in part or not part.isascii():
            raise ValueError(f"invalid integer literal {part!r}")
        return int(part)

    cleaned = text.strip().replace("−", "-")
    if not cleaned:
        raise ValueError("empty rational literal")
    if "/" in cleaned:
        num, _, den = cleaned.partition("/")
        numerator, denominator = integer(num), integer(den)
        if denominator == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(numerator, denominator)
    return Fraction(integer(cleaned))


@pytest.mark.parametrize("text", [
    "0", "-0", "+0", "00", " 0 ", "−0", "0/7", "7", "-12", " 3 ", "1_000", "3/2", "−5/3",
    "", " ", "1/0", "0/0", "a", "1.5", "1/", "/2", "--1", "1/2/3", "0x10", "1e3",
    "3/1_0", "١٢", "−١", "1/٢",
])
def test_parse_rational_matches_reference(text):
    """Same value, or the same ValueError, as parsing without the fast path;
    every integer zero is the one shared Fraction."""
    try:
        expected = reference_parse_rational(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == str(exc)
        return
    value = parse_rational(text)
    assert type(value) is Fraction and value == expected
    if value == 0 and "/" not in text:
        assert value is parse_rational("0")


def test_as_ints_requires_integrality():
    assert Vector([2, -3]).as_ints() == (2, -3)
    with pytest.raises(ValueError):
        Vector([Fraction(1, 2)]).as_ints()
