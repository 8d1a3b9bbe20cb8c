"""Exact cyclotomic polynomial arithmetic over the integers.

The d-th cyclotomic polynomial Phi_d is the minimal polynomial of a primitive
d-th root of unity.  It is computed here by exact division: Phi_d equals
(x^d - 1) divided by the product of Phi_e over proper divisors e of d.  All
coefficients are plain Python integers, so nothing ever rounds or overflows
and equality tests are exact.

Two consumers drive the design.  Character values of group ring elements are
residues modulo Phi_d, represented by :class:`CyclotomicInteger`.  Vanishing
sums of p^n-th roots of unity admit a combinatorial test
(:func:`prime_power_vanishing`): the coefficient vector must be constant on
residue classes mod p^(n-1).  Both routes are kept, and the test suite pits
them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

__all__ = [
    "CyclotomicPoly",
    "CyclotomicInteger",
    "cyclotomic",
    "reduce_mod_cyclotomic",
    "prime_power_vanishing",
    "euler_phi",
    "factorize",
    "divisors",
    "is_prime",
]


# -- integer helpers -------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of 1 <= n < 2^31, primes ascending.

    Trial division: below 2^31 no divisor past 46,340 is ever tried.
    """
    if not 1 <= n < 2**31:
        raise ValueError(f"factorize needs 1 <= n < 2^31, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of 1 <= n < 2^31, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_prime(n: int) -> bool:
    """Primality of n < 2^31 (anything below 2 is not prime)."""
    return n >= 2 and factorize(n) == {n: 1}


def euler_phi(n: int) -> int:
    """Euler's totient of 1 <= n < 2^31."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


@dataclass(frozen=True)
class CyclotomicPoly:
    """Phi_order, ascending integer coefficients, monic of degree phi(order)."""

    order: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _exact_div(num: list[int], den: Sequence[int]) -> list[int]:
    # Long division by a monic divisor; remainder must vanish.
    assert den[-1] == 1
    out = [0] * (len(num) - len(den) + 1)
    work = list(num)
    for i in range(len(work) - 1, len(den) - 2, -1):
        c = work[i]
        if c:
            out[i - len(den) + 1] = c
            for j, dj in enumerate(den):
                work[i - len(den) + 1 + j] -= c * dj
    if any(work):
        raise ArithmeticError("division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic(order: int) -> CyclotomicPoly:
    """Compute Phi_order exactly.

    Starts from x^order - 1 and divides out Phi_e for every proper divisor e,
    recursing through the cache.  Integer arithmetic throughout.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    f = [0] * (order + 1)
    f[0] = -1
    f[order] = 1
    for e in divisors(order):
        if e < order:
            f = _exact_div(f, cyclotomic(e).coeffs)
    return CyclotomicPoly(order, tuple(f))


def reduce_mod_cyclotomic(coeffs: Sequence[int], order: int) -> tuple[int, ...]:
    """Reduce an integer polynomial modulo Phi_order.

    Returns the residue as a coefficient tuple of length phi(order), exact
    because Phi_order is monic.
    """
    phi = cyclotomic(order).coeffs
    k = len(phi) - 1
    work = list(coeffs)
    if len(work) < k:
        work.extend([0] * (k - len(work)))
    for i in range(len(work) - 1, k - 1, -1):
        c = work[i]
        if c:
            base = i - k
            for j in range(k):
                work[base + j] -= c * phi[j]
            work[i] = 0
    return tuple(work[:k])


@dataclass(frozen=True)
class CyclotomicInteger:
    """An element of Z[x]/Phi_order, i.e. an algebraic integer in Q(zeta_order).

    The residue tuple has length phi(order); it is zero exactly when the
    reduced polynomial vanishes at a primitive order-th root of unity.
    """

    order: int
    residue: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residue) != euler_phi(self.order):
            raise ValueError(
                f"residue length {len(self.residue)} != phi({self.order})"
            )

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Sequence[int]) -> CyclotomicInteger:
        return cls(order, reduce_mod_cyclotomic(coeffs, order))

    @property
    def is_zero(self) -> bool:
        return not any(self.residue)


def prime_power_vanishing(values: Sequence[int], p: int, n: int) -> bool:
    """Decide whether sum_i values[i] * zeta^i vanishes, zeta primitive p^n-th.

    A rational integer combination of p^n-th roots of unity vanishes exactly
    when the coefficient vector is constant on residue classes mod p^(n-1):
    the sum collapses to blocks of the form zeta^j * (1 + eta + ... + eta^(p-1))
    with eta of order p.  This is the fast route; the generic route reduces the
    polynomial modulo Phi_{p^n}.  Both must agree.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    size = p**n
    if len(values) != size:
        raise ValueError(f"expected {size} coefficients, got {len(values)}")
    block = p ** (n - 1)
    for base in range(block):
        first = values[base]
        for t in range(1, p):
            if values[base + t * block] != first:
                return False
    return True
