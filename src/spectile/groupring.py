"""Integer group ring of a finite cyclic group, with exact character calculus.

An element of Z[Z_N] is a coefficient vector indexed by residues; subsets of
Z_N are the 0/1 elements.  The mask polynomial of A is A(x) = sum x^a, and
the character chi_g sends A to A(zeta_N^g).  Writing d = N / gcd(g, N), that
value lives in Z[zeta_d]: fold the exponents g*a down to Z_d and reduce the
folded polynomial modulo Phi_d.  The reduction is exact, so "chi_g(A) = 0"
is a decidable statement about integers, never a numerical judgement call.

The zero set Z_A collects the nonzero g with chi_g(A) = 0.  Galois conjugacy
makes Z_A a union of gcd classes {g : gcd(g, N) = d}, so it is computed one
divisor at a time and stored both as a member set and as the set of vanishing
divisor classes.

Elements are immutable and hashable.  There is no floating point anywhere in
this module; the numeric cross-check lives in the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Sequence

from .cyclotomic import CyclotomicInteger, divisors, factorize

__all__ = [
    "Modulus",
    "GroupRingElement",
    "ZeroSet",
    "as_modulus",
    "subset",
    "multiset",
    "char_value",
    "is_char_zero",
    "zero_set",
    "parse_set_literal",
    "format_set_literal",
]

_MAX_N = 2**31 - 1


@dataclass(frozen=True)
class Modulus:
    """Order N >= 2 of the ambient cyclic group, with its factorization."""

    n: int
    factorization: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 2 <= self.n <= _MAX_N:
            raise ValueError(f"modulus must be an integer in [2, 2^31), got {self.n}")
        fac = tuple(factorize(self.n).items())
        object.__setattr__(self, "factorization", fac)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    def divisors(self) -> list[int]:
        return divisors(self.n)

    def units(self) -> list[int]:
        return _units(self.n)

    def __repr__(self) -> str:
        return f"Modulus({self.n})"


@lru_cache(maxsize=None)
def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def as_modulus(m: Modulus | int) -> Modulus:
    return m if isinstance(m, Modulus) else Modulus(m)


@dataclass(frozen=True)
class GroupRingElement:
    """Element of Z[Z_N] as a dense integer coefficient tuple."""

    modulus: Modulus
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.modulus.n:
            raise ValueError(
                f"need {self.modulus.n} coefficients, got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, m: Modulus | int) -> GroupRingElement:
        m = as_modulus(m)
        return cls(m, (0,) * m.n)

    @classmethod
    def from_set(cls, m: Modulus | int, residues: Iterable[int]) -> GroupRingElement:
        m = as_modulus(m)
        coeffs = [0] * m.n
        for g in residues:
            if not 0 <= g < m.n:
                raise ValueError(f"residue {g} out of range for Z_{m.n}")
            if coeffs[g]:
                raise ValueError(f"duplicate residue {g} in subset")
            coeffs[g] = 1
        return cls(m, tuple(coeffs))

    @classmethod
    def from_multiset(
        cls, m: Modulus | int, items: Iterable[int | tuple[int, int]]
    ) -> GroupRingElement:
        """Build from residues or (residue, multiplicity) pairs, accumulating."""
        m = as_modulus(m)
        coeffs = [0] * m.n
        for item in items:
            g, mult = item if isinstance(item, tuple) else (item, 1)
            if not 0 <= g < m.n:
                raise ValueError(f"residue {g} out of range for Z_{m.n}")
            coeffs[g] += mult
        return cls(m, tuple(coeffs))

    # -- views -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.modulus.n

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(g for g, c in enumerate(self.coeffs) if c)

    @property
    def mass(self) -> int:
        """Value of the mask polynomial at 1; the cardinality for sets."""
        return sum(self.coeffs)

    @property
    def is_set(self) -> bool:
        return all(c in (0, 1) for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def mask(self) -> int:
        bits = 0
        for g, c in enumerate(self.coeffs):
            if c:
                bits |= 1 << g
        return bits

    def __contains__(self, g: int) -> bool:
        return self.coeffs[g % self.n] != 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.support)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: GroupRingElement) -> None:
        if self.modulus.n != other.modulus.n:
            raise ValueError(
                f"modulus mismatch: {self.modulus.n} != {other.modulus.n}"
            )

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        return GroupRingElement(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        return GroupRingElement(
            self.modulus, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> GroupRingElement:
        return GroupRingElement(self.modulus, tuple(-a for a in self.coeffs))

    def __mul__(self, other: GroupRingElement) -> GroupRingElement:
        """Convolution: the product of mask polynomials mod x^N - 1."""
        self._check(other)
        n = self.n
        out = [0] * n
        for g, a in enumerate(self.coeffs):
            if a:
                for h, b in enumerate(other.coeffs):
                    if b:
                        out[(g + h) % n] += a * b
        return GroupRingElement(self.modulus, tuple(out))

    def twist(self, t: int) -> GroupRingElement:
        """Image under g -> t*g.  Multiplicities merge when gcd(t, N) > 1."""
        n = self.n
        out = [0] * n
        for g, c in enumerate(self.coeffs):
            if c:
                out[(g * t) % n] += c
        return GroupRingElement(self.modulus, tuple(out))

    def translate(self, h: int) -> GroupRingElement:
        n = self.n
        h %= n
        return GroupRingElement(self.modulus, self.coeffs[-h:] + self.coeffs[:-h])

    def reflect(self) -> GroupRingElement:
        """Image under negation, i.e. the multiset A^(-1)."""
        return self.twist(self.n - 1)

    def __repr__(self) -> str:
        return f"GroupRingElement({self.n}, {format_set_literal(self)!r})"


def subset(m: Modulus | int, residues: Iterable[int]) -> GroupRingElement:
    return GroupRingElement.from_set(m, residues)


def multiset(
    m: Modulus | int, items: Iterable[int | tuple[int, int]]
) -> GroupRingElement:
    return GroupRingElement.from_multiset(m, items)


# -- characters and zero sets ---------------------------------------------


def char_value(x: GroupRingElement, g: int) -> CyclotomicInteger:
    """chi_g(X) as an element of Z[zeta_d], d = N / gcd(g, N).

    The exponent g*a mod N is always a multiple of gcd(g, N), so folding by
    that step lands on integral indices in Z_d.
    """
    n = x.n
    g %= n
    step = gcd(g, n)
    if step == 0:
        step = n
    d = n // step
    folded = [0] * d
    for a, c in enumerate(x.coeffs):
        if c:
            folded[((g * a) % n) // step] += c
    return CyclotomicInteger.from_coeffs(d, folded)


def is_char_zero(x: GroupRingElement, g: int) -> bool:
    """Exact test of chi_g(X) = 0, equivalently Phi_d | folded mask polynomial."""
    return char_value(x, g).is_zero


@dataclass(frozen=True)
class ZeroSet:
    """Zero set of a group ring element: {g != 0 : chi_g(X) = 0}.

    Stored both as the member set and as the set of vanishing divisor classes
    {d | N, d < N : the whole class gcd(g, N) = d vanishes}.  The two agree
    because characters with the same gcd are Galois conjugate.
    """

    modulus: Modulus
    members: frozenset[int]
    divisor_classes: frozenset[int]

    def __contains__(self, g: int) -> bool:
        return g % self.modulus.n in self.members

    def __len__(self) -> int:
        return len(self.members)

    @property
    def mask(self) -> int:
        bits = 0
        for g in self.members:
            bits |= 1 << g
        return bits

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self) -> str:
        return f"ZeroSet({self.modulus.n}, {{{', '.join(map(str, self.sorted_members))}}})"


def zero_set(x: GroupRingElement) -> ZeroSet:
    """Compute Z_X one divisor class at a time.

    Tests the representative g = d for each divisor d < N and replicates the
    verdict across the class; conjugation under (Z/N)^* makes that sound.  The
    zero element (in particular the empty set) has every character vanishing
    and is rejected.
    """
    if x.is_zero:
        raise ValueError("the zero element has no zero set")
    n = x.n
    members: set[int] = set()
    classes: set[int] = set()
    for d in x.modulus.divisors():
        if d == n:
            continue
        if is_char_zero(x, d):
            classes.add(d)
            members.update(g for g in range(d, n, d) if gcd(g, n) == d)
    return ZeroSet(x.modulus, frozenset(members), frozenset(classes))


# -- text format -----------------------------------------------------------

_LITERAL_RE = re.compile(r"^\s*N\s*=\s*(\d+)\s*;\s*S\s*=\s*(.*?)\s*$")


def parse_set_literal(text: str) -> GroupRingElement:
    """Parse ``N=<int>; S=<comma-separated residues>``.

    Plain entries make a subset and duplicates are rejected; any entry of the
    form ``g:mult`` switches to multiset semantics where repeats accumulate.
    """
    m = _LITERAL_RE.match(text)
    if not m:
        raise ValueError(f"malformed set literal: {text!r}")
    mod = Modulus(int(m.group(1)))
    body = m.group(2)
    if not body:
        return GroupRingElement.zeros(mod)
    entries = [e.strip() for e in body.split(",")]
    if any(":" in e for e in entries):
        items: list[tuple[int, int]] = []
        for e in entries:
            if ":" in e:
                g_s, mult_s = e.split(":", 1)
                items.append((int(g_s), int(mult_s)))
            else:
                items.append((int(e), 1))
        return GroupRingElement.from_multiset(mod, items)
    return GroupRingElement.from_set(mod, (int(e) for e in entries))


def format_set_literal(x: GroupRingElement) -> str:
    parts = []
    for g in x.support:
        c = x.coeffs[g]
        parts.append(str(g) if c == 1 else f"{g}:{c}")
    return f"N={x.n}; S={','.join(parts)}"
