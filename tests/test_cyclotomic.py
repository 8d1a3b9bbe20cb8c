from __future__ import annotations

import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from spectile.cyclotomic import (
    CyclotomicInteger,
    cyclotomic,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    prime_power_vanishing,
    reduce_mod_cyclotomic,
)

from helpers import is_char_zero_numeric


# -- integer helpers -------------------------------------------------------


@pytest.mark.parametrize(
    "numbers", [range(1, 5001), [2**31 - 1, 2**31 - 2, 46337**2]], ids=["small", "large"]
)
def test_integer_helpers_match_sympy(numbers):
    for n in numbers:
        assert factorize(n) == sympy.factorint(n)
        assert list(factorize(n)) == sorted(factorize(n))
        assert divisors(n) == sympy.divisors(n)
        assert is_prime(n) == sympy.isprime(n)
        assert euler_phi(n) == sympy.totient(n)
    assert not any(is_prime(n) for n in (-7, 0, 1))


def test_integer_helpers_reject_out_of_range():
    for n in (0, -5, 2**31):
        with pytest.raises(ValueError, match="2\\^31"):
            factorize(n)


def test_import_leaves_sympy_out():
    code = "import sys, spectile, spectile.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- polynomials -----------------------------------------------------------


@pytest.mark.parametrize(
    "order, coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (8, (1, 0, 0, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_small_cyclotomics(order, coeffs):
    assert cyclotomic(order).coeffs == coeffs


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_prime_power_shape(p, n):
    # Phi_{p^n}(x) = sum_{j=0}^{p-1} x^{j p^(n-1)}
    poly = cyclotomic(p**n)
    expected = [0] * (poly.degree + 1)
    for j in range(p):
        expected[j * p ** (n - 1)] = 1
    assert list(poly.coeffs) == expected
    assert poly(1) == p


def test_phi_105_has_minus_two():
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic(105).coeffs) == -2


@pytest.mark.parametrize("order", [1, 2, 12, 30, 60, 105, 120, 210])
def test_matches_sympy(order):
    x = sympy.Symbol("x")
    ref = sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()[::-1]
    assert list(cyclotomic(order).coeffs) == [int(c) for c in ref]


def test_degree_is_totient():
    for order in range(1, 80):
        assert cyclotomic(order).degree == euler_phi(order)


def test_product_over_divisors_is_x_n_minus_1():
    # Phi factors multiply back to x^N - 1 for every N up to 210
    for n in range(1, 211):
        prod = [1]
        for d in sympy.divisors(n):
            phi = cyclotomic(d).coeffs
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                if a:
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
            prod = out
        expected = [0] * (n + 1)
        expected[0] = -1
        expected[n] = 1
        assert prod == expected


def test_values_at_zero_and_one():
    assert cyclotomic(1)(0) == -1
    assert cyclotomic(1)(1) == 0
    for order in range(2, 130):
        assert cyclotomic(order)(0) == 1
        fac = sympy.factorint(order)
        # Phi_{p^k}(1) = p and Phi_d(1) = 1 for d with several prime factors
        assert cyclotomic(order)(1) == (next(iter(fac)) if len(fac) == 1 else 1)


def test_bad_order():
    with pytest.raises(ValueError):
        cyclotomic(0)
    with pytest.raises(ValueError):
        cyclotomic(-3)


# -- reduction and cyclotomic integers ------------------------------------


def test_reduce_examples():
    # x^2 = -1 mod Phi_4
    assert reduce_mod_cyclotomic([0, 0, 1], 4) == (-1, 0)
    # 1 + x + x^2 = 0 mod Phi_3
    assert reduce_mod_cyclotomic([1, 1, 1], 3) == (0, 0)
    # x^3 = 1 mod Phi_3
    assert reduce_mod_cyclotomic([0, 0, 0, 1], 3) == (1, 0)


@given(
    st.sampled_from([3, 4, 5, 8, 9, 12, 15, 16, 30]),
    st.lists(st.integers(-9, 9), min_size=0, max_size=40),
)
def test_reduction_agrees_with_numeric_vanishing(order, coeffs):
    residue = reduce_mod_cyclotomic(coeffs, order)
    exact_zero = not any(residue)
    padded = list(coeffs) + [0] * max(0, order - len(coeffs))
    folded = [0] * order
    for i, c in enumerate(padded):
        folded[i % order] += c
    assert exact_zero == is_char_zero_numeric(folded, order, 1)


def test_cyclotomic_integer_bad_length():
    with pytest.raises(ValueError):
        CyclotomicInteger(4, (1,))


# -- prime power vanishing -------------------------------------------------


def test_vanishing_examples():
    assert prime_power_vanishing([1, 1], 2, 1)
    assert not prime_power_vanishing([2, 1], 2, 1)
    # 1 + zeta_4^2 = 0
    assert prime_power_vanishing([1, 0, 1, 0], 2, 2)
    assert not prime_power_vanishing([1, 0, 0, 1], 2, 2)
    # constant on residue classes mod 3 within Z_9
    assert prime_power_vanishing([1, 0, 2, 1, 0, 2, 1, 0, 2], 3, 2)
    assert not prime_power_vanishing([1, 0, 2, 1, 0, 2, 1, 0, 3], 3, 2)
    assert prime_power_vanishing([0] * 25, 5, 2)


def test_vanishing_validation():
    with pytest.raises(ValueError):
        prime_power_vanishing([1, 1, 1], 2, 1)
    with pytest.raises(ValueError):
        prime_power_vanishing([1] * 4, 4, 1)
    with pytest.raises(ValueError):
        prime_power_vanishing([1, 1], 2, 0)


def _generic_route(values, order):
    return not any(reduce_mod_cyclotomic(values, order))


@given(st.data())
def test_vanishing_agrees_with_generic_division(data):
    p, n = data.draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2), (5, 1), (3, 3)]))
    size = p**n
    if data.draw(st.booleans()):
        values = data.draw(
            st.lists(st.integers(-6, 6), min_size=size, max_size=size)
        )
    else:
        # seed with a guaranteed-vanishing vector, then optionally perturb
        base = data.draw(
            st.lists(st.integers(-6, 6), min_size=p ** (n - 1), max_size=p ** (n - 1))
        )
        values = base * p
        if data.draw(st.booleans()):
            idx = data.draw(st.integers(0, size - 1))
            values = list(values)
            values[idx] += data.draw(st.integers(1, 3))
    assert prime_power_vanishing(values, p, n) == _generic_route(values, p**n)


def test_vanishing_agreement_bulk():
    rng = random.Random(20817)
    for _ in range(800):
        p, n = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
        size = p**n
        if rng.random() < 0.5:
            values = [rng.randint(-4, 4) for _ in range(size)]
        else:
            values = [rng.randint(-4, 4) for _ in range(p ** (n - 1))] * p
            if rng.random() < 0.4:
                values[rng.randrange(size)] += rng.randint(1, 2)
        assert prime_power_vanishing(values, p, n) == _generic_route(values, size)
