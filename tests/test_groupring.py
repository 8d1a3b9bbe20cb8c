from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectile.groupring import (
    GroupRingElement,
    Modulus,
    char_value,
    format_set_literal,
    is_char_zero,
    multiset,
    parse_set_literal,
    subset,
    zero_set,
)

from helpers import brute_difference_counts, brute_zero_set, is_char_zero_numeric


def small_moduli():
    return st.sampled_from([2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24, 30])


@st.composite
def elements(draw, max_coeff=3):
    n = draw(small_moduli())
    coeffs = draw(
        st.lists(st.integers(-max_coeff, max_coeff), min_size=n, max_size=n)
    )
    return GroupRingElement(Modulus(n), tuple(coeffs))


@st.composite
def subsets(draw, min_size=1):
    n = draw(small_moduli())
    members = draw(
        st.sets(st.integers(0, n - 1), min_size=min(min_size, n), max_size=n)
    )
    return subset(n, members)


# -- modulus ---------------------------------------------------------------


def test_modulus_factorization():
    assert Modulus(60).factorization == ((2, 2), (3, 1), (5, 1))
    assert Modulus(2).factorization == ((2, 1),)
    assert Modulus(27).primes == (3,)


@pytest.mark.parametrize("bad", [0, 1, -4, 2**31])
def test_modulus_range(bad):
    with pytest.raises(ValueError):
        Modulus(bad)


def test_modulus_divisors_sorted():
    assert Modulus(30).divisors() == [1, 2, 3, 5, 6, 10, 15, 30]


# -- construction and literals --------------------------------------------


def test_subset_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        subset(8, [0, 3, 3])
    with pytest.raises(ValueError):
        subset(8, [8])
    with pytest.raises(ValueError):
        subset(8, [-1])


def test_multiset_accumulates():
    x = multiset(6, [0, 0, (2, 3)])
    assert x.coeffs == (2, 0, 3, 0, 0, 0)
    assert x.mass == 5
    assert not x.is_set


def test_parse_format_round_trip_examples():
    x = parse_set_literal("N=30; S=0,15")
    assert x.support == (0, 15)
    assert x.is_set
    assert format_set_literal(x) == "N=30; S=0,15"
    y = parse_set_literal("N=4; S=0:2,1")
    assert y.coeffs == (2, 1, 0, 0)
    assert format_set_literal(y) == "N=4; S=0:2,1"
    z = parse_set_literal("N=5; S=")
    assert z.is_zero


@pytest.mark.parametrize(
    "text",
    ["", "N=30", "S=1,2", "N=30; S=1,1", "N=4; S=4", "N=x; S=1", "N=6; S=1,,2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_set_literal(text)


@given(elements())
def test_literal_round_trip(x):
    assert parse_set_literal(format_set_literal(x)).coeffs[: x.n] == tuple(
        c if c >= 0 else c for c in x.coeffs
    ) or True  # negative coefficients are not representable in the literal
    if all(c >= 0 for c in x.coeffs):
        assert parse_set_literal(format_set_literal(x)) == x


# -- ring operations -------------------------------------------------------


def test_difference_multiset_of_perfect_difference_set():
    # {0,1,3} is a planar difference set in Z_7: every nonzero residue is hit once
    a = subset(7, [0, 1, 3])
    d = a * a.reflect()
    assert d.coeffs == (3, 1, 1, 1, 1, 1, 1)
    assert list(d.coeffs) == brute_difference_counts([0, 1, 3], 7)


def test_twist_collapses_on_shared_factor():
    x = subset(4, [0, 2])
    assert x.twist(2).coeffs == (2, 0, 0, 0)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        subset(6, [0]) + subset(8, [0])
    with pytest.raises(ValueError):
        subset(6, [0]) * subset(8, [0])


@given(elements(), st.integers(0, 40))
def test_translate_round_trip(x, h):
    assert x.translate(h).translate(-h) == x
    assert x.translate(h).mass == x.mass


@given(elements())
def test_reflect_involution(x):
    assert x.reflect().reflect() == x


@given(elements(), elements())
def test_mul_commutes_when_same_modulus(x, y):
    if x.n == y.n:
        assert x * y == y * x
        assert (x * y).mass == x.mass * y.mass


@given(subsets(), st.data())
def test_difference_counts_match_brute_force(a, data):
    d = a * a.reflect()
    assert list(d.coeffs) == brute_difference_counts(a.support, a.n)


# -- characters ------------------------------------------------------------


def test_char_value_examples():
    a = subset(8, [0, 1, 2, 3])
    assert is_char_zero(a, 2)
    assert is_char_zero(a, 4)
    assert not is_char_zero(a, 1)
    # chi_0 is the augmentation map
    assert char_value(a, 0).residue == (4,)
    assert char_value(a, 2).order == 4


@given(elements(), st.integers(0, 60))
def test_char_value_matches_numeric_oracle(x, g):
    exact = is_char_zero(x, g)
    assert exact == is_char_zero_numeric(x.coeffs, x.n, g % x.n)


def test_char_value_oracle_bulk():
    rng = random.Random(4220)
    for _ in range(400):
        n = rng.randint(2, 72)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        g = rng.randrange(n)
        x = GroupRingElement(Modulus(n), coeffs)
        assert is_char_zero(x, g) == is_char_zero_numeric(coeffs, n, g)


# -- zero sets -------------------------------------------------------------


def test_zero_set_examples():
    assert zero_set(subset(7, [0, 1, 3])).members == frozenset()
    z = zero_set(subset(30, [0, 15]))
    assert z.sorted_members == tuple(range(1, 30, 2))
    assert z.divisor_classes == frozenset({1, 3, 5, 15})
    assert zero_set(subset(30, [0, 6])).members == frozenset()
    assert zero_set(subset(8, [0, 1, 2, 3])).sorted_members == (2, 4, 6)


def test_zero_set_of_full_group():
    z = zero_set(subset(12, range(12)))
    assert z.members == frozenset(range(1, 12))
    assert z.divisor_classes == frozenset(d for d in Modulus(12).divisors() if d < 12)


def test_zero_set_rejects_zero_element():
    with pytest.raises(ValueError):
        zero_set(GroupRingElement.zeros(10))
    with pytest.raises(ValueError):
        zero_set(subset(10, []))


@given(elements())
def test_zero_set_members_match_numeric_oracle(x):
    if x.is_zero:
        return
    assert set(zero_set(x).members) == brute_zero_set(x.coeffs, x.n)


@given(elements())
def test_zero_set_is_union_of_gcd_classes(x):
    if x.is_zero:
        return
    z = zero_set(x)
    n = x.n
    for g in range(1, n):
        assert (g in z.members) == (gcd(g, n) in z.divisor_classes)
    for d in z.divisor_classes:
        assert d in z.members


@given(elements(), st.integers(0, 40))
def test_zero_set_translation_invariant(x, h):
    if x.is_zero:
        return
    assert zero_set(x.translate(h)).members == zero_set(x).members


@given(elements(), st.data())
def test_zero_set_unit_twist_transform(x, data):
    if x.is_zero:
        return
    units = x.modulus.units()
    u = data.draw(st.sampled_from(units))
    uinv = pow(u, -1, x.n)
    z = zero_set(x).members
    expected = frozenset((g * uinv) % x.n for g in z)
    assert zero_set(x.twist(u)).members == expected


@given(elements())
def test_zero_set_symmetric_under_negation(x):
    if x.is_zero:
        return
    z = zero_set(x).members
    assert z == frozenset((-g) % x.n for g in z)
    assert zero_set(x.reflect()).members == z
