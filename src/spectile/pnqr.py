"""Coordinate structure of Z_N for N = p^n * q * r and its zero-set calculus.

By the Chinese remainder theorem Z_N splits as Z_{p^n} x Z_q x Z_r.  Fixing
idempotent generators a, b, c of those components, every element X of the
group ring decomposes into a q x r grid of cells: cell (j, k) collects the
Z_{p^n} part of the residues congruent to j mod q and k mod r.

The payoff is that membership of p^i, p^i*q, p^i*r or p^i*q*r in the zero set
of X transfers to character conditions on small signed combinations of cells,
all evaluated inside Z_{p^n} where vanishing is the "constant on residue
classes mod p^(n-1)" criterion.  The four transfer patterns and the seven
conditional identities they imply are data: one table maps each shape and
each conclusion to its weighted cell combinations, and one vanishing route
checks them all.  The transfer patterns are checked against the direct
character computation on Z_N in the tests and the property suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Iterable

from .cyclotomic import is_prime, prime_power_vanishing
from .groupring import GroupRingElement, Modulus, ZeroSet, as_modulus, format_set_literal, zero_set

__all__ = [
    "PnqrModulus",
    "GridDecomposition",
    "DivisorClass",
    "DivisorProfile",
    "HypothesisNotSatisfied",
    "decompose",
    "class_zero_predicate",
    "grid_implications",
    "ImplicationReport",
    "ConclusionCheck",
    "divisor_profile",
    "DigitSetVerdict",
    "digit_set_check",
    "GeneratingPairResult",
    "is_generating",
    "generating_pair",
]

SHAPES = ("p", "pq", "pr", "pqr")


class HypothesisNotSatisfied(ValueError):
    """A claimed zero-set membership failed its predicate check."""


@dataclass(frozen=True)
class PnqrModulus:
    """N = p^n * q * r with p, q, r distinct primes and n >= 1.

    gen_p, gen_q, gen_r are the CRT idempotents: gen_p = 1 mod p^n and
    0 mod q*r, and so on.  They generate the three direct factors, and
    x = (x mod p^n) gen_p + (x mod q) gen_q + (x mod r) gen_r for all x.
    """

    p: int
    n: int
    q: int
    r: int
    modulus: Modulus = field(init=False, compare=False)
    gen_p: int = field(init=False, compare=False)
    gen_q: int = field(init=False, compare=False)
    gen_r: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for v in (self.p, self.q, self.r):
            if not is_prime(v):
                raise ValueError(f"{v} is not prime")
        if len({self.p, self.q, self.r}) != 3:
            raise ValueError("p, q, r must be distinct")
        pn = self.p**self.n
        big_n = pn * self.q * self.r
        object.__setattr__(self, "modulus", Modulus(big_n))
        qr = self.q * self.r
        object.__setattr__(self, "gen_p", qr * pow(qr, -1, pn) % big_n)
        mr = pn * self.r
        object.__setattr__(self, "gen_q", mr * pow(mr, -1, self.q) % big_n)
        mq = pn * self.q
        object.__setattr__(self, "gen_r", mq * pow(mq, -1, self.r) % big_n)

    @property
    def big_n(self) -> int:
        return self.modulus.n

    @property
    def pn(self) -> int:
        return self.p**self.n

    @classmethod
    def from_int(cls, n: int) -> PnqrModulus:
        """Read off (p, n, q, r) from N.

        The repeated prime is p; for squarefree N the smallest prime plays
        that role.  The remaining two primes become q < r.
        """
        fac = Modulus(n).factorization
        if len(fac) != 3:
            raise ValueError(f"{n} does not have exactly three prime factors")
        heavy = [(p, e) for p, e in fac if e > 1]
        if len(heavy) > 1:
            raise ValueError(f"{n} is not of the form p^n * q * r")
        if heavy:
            p, e = heavy[0]
        else:
            p, e = fac[0]
        q, r = sorted(pp for pp, _ in fac if pp != p)
        return cls(p, e, q, r)

    def crt(self, xa: int, j: int, k: int) -> int:
        return (xa * self.gen_p + j * self.gen_q + k * self.gen_r) % self.big_n


@dataclass(frozen=True)
class GridDecomposition:
    """q x r grid of Z_{p^n} group ring elements; cell (j,k) holds the
    residues congruent to j mod q and k mod r."""

    pm: PnqrModulus
    cells: tuple[tuple[GroupRingElement, ...], ...]

    def cell(self, j: int, k: int) -> GroupRingElement:
        return self.cells[j][k]

    def recompose(self) -> GroupRingElement:
        pm = self.pm
        coeffs = [0] * pm.big_n
        for j in range(pm.q):
            for k in range(pm.r):
                for xa, c in enumerate(self.cells[j][k].coeffs):
                    if c:
                        coeffs[pm.crt(xa, j, k)] += c
        return GroupRingElement(pm.modulus, tuple(coeffs))

    def dump(self) -> str:
        """One ``(j,k): residues`` line per nonempty cell, indices ascending."""
        lines = []
        for j in range(self.pm.q):
            for k in range(self.pm.r):
                cell = self.cells[j][k]
                if not cell.is_zero:
                    entries = format_set_literal(cell).partition("S=")[2]
                    lines.append(f"({j},{k}): {entries}")
        return "\n".join(lines)


def decompose(x: GroupRingElement, pm: PnqrModulus) -> GridDecomposition:
    if x.n != pm.big_n:
        raise ValueError(f"element lives in Z_{x.n}, modulus is Z_{pm.big_n}")
    pn = pm.pn
    acc = [[[0] * pn for _ in range(pm.r)] for _ in range(pm.q)]
    for g, c in enumerate(x.coeffs):
        if c:
            acc[g % pm.q][g % pm.r][g % pn] += c
    cell_mod = Modulus(pn)
    cells = tuple(
        tuple(GroupRingElement(cell_mod, tuple(acc[j][k])) for k in range(pm.r))
        for j in range(pm.q)
    )
    return GridDecomposition(pm, cells)


# -- transfer of zero-set membership to the grid ---------------------------


@dataclass(frozen=True)
class DivisorClass:
    """Divisor class p^i, p^i*q, p^i*r or p^i*q*r of N = p^n*q*r.

    shape names which of q, r divide the class divisor; exponent is i.  The
    class p^n*q*r would be the class of 0 and is excluded.
    """

    shape: str
    exponent: int

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")

    def validate(self, pm: PnqrModulus) -> None:
        if self.exponent > pm.n:
            raise ValueError(
                f"exponent {self.exponent} out of range for n = {pm.n}"
            )
        if self.shape == "pqr" and self.exponent == pm.n:
            raise ValueError("p^n*q*r is the class of 0 and has no predicate")

    def divisor(self, pm: PnqrModulus) -> int:
        d = pm.p**self.exponent
        if "q" in self.shape:
            d *= pm.q
        if "r" in self.shape:
            d *= pm.r
        return d


def all_divisor_classes(pm: PnqrModulus) -> list[DivisorClass]:
    out = []
    for shape in SHAPES:
        top = pm.n if shape == "pqr" else pm.n + 1
        for i in range(top):
            out.append(DivisorClass(shape, i))
    return out


def _cell_char_vanishes(comb: list, pm: PnqrModulus, i: int) -> bool:
    """chi(sum of weight * cell over comb) = 0, chi p^i-twisted on Z_{p^n}.

    The combination is folded through x -> p^i x back onto Z_{p^n}, where
    vanishing is the residue-class criterion.
    """
    pn = pm.pn
    step = pm.p**i
    w = [0] * pn
    for weight, cell in comb:
        for x, c in enumerate(cell.coeffs):
            if c:
                w[(x * step) % pn] += weight * c
    return prime_power_vanishing(w, pm.p, pm.n)


def _column(grid: GridDecomposition, k: int, weight: int = 1) -> list:
    return [(weight, row[k]) for row in grid.cells]


def _row(grid: GridDecomposition, j: int, weight: int = 1) -> list:
    return [(weight, cell) for cell in grid.cells[j]]


def _cellwise(grid: GridDecomposition, comb):
    for j in range(grid.pm.q):
        for k in range(grid.pm.r):
            yield (j, k), comb(grid.cells, j, k)


# Each divisor-class shape and each conclusion 1-7 names a lazily generated
# sequence of (witness, combination) pairs, a combination being a list of
# (weight, cell); the predicate holds when chi of every combination vanishes.
# Conclusion 3 compares r*chi(column k) and q*chi(row j); Z[zeta] has no
# torsion, so the comparisons are the vanishing of the differences.
_TABLE = {
    "p": lambda g: _cellwise(
        g, lambda a, j, k: [(1, a[j][k]), (-1, a[j][0]), (-1, a[0][k]), (1, a[0][0])]
    ),
    "pq": lambda g: (
        (("column", k), _column(g, k) + _column(g, 0, -1)) for k in range(1, g.pm.r)
    ),
    "pr": lambda g: (
        (("row", j), _row(g, j) + _row(g, 0, -1)) for j in range(1, g.pm.q)
    ),
    "pqr": lambda g: [(("total", 0), [(1, c) for row in g.cells for c in row])],
    1: lambda g: _cellwise(g, lambda a, j, k: [(1, a[j][k]), (-1, a[j][0])]),
    2: lambda g: _cellwise(g, lambda a, j, k: [(1, a[j][k]), (-1, a[0][k])]),
    3: lambda g: chain(
        _TABLE["pq"](g),
        _TABLE["pr"](g),
        [(("cross", 0), _column(g, 0, g.pm.r) + _row(g, 0, -g.pm.q))],
    ),
    4: lambda g: ((("column", k), _column(g, k)) for k in range(g.pm.r)),
    5: lambda g: ((("row", j), _row(g, j)) for j in range(g.pm.q)),
    6: lambda g: _cellwise(g, lambda a, j, k: [(1, a[j][k]), (-1, a[0][0])]),
    7: lambda g: _cellwise(g, lambda a, j, k: [(1, a[j][k])]),
}


def _failure(grid: GridDecomposition, name: str | int, i: int) -> tuple | None:
    """The first witness of _TABLE[name] whose combination does not vanish,
    or None when every combination vanishes."""
    for witness, comb in _TABLE[name](grid):
        if not _cell_char_vanishes(comb, grid.pm, i):
            return witness
    return None


def class_zero_predicate(grid: GridDecomposition, cls: DivisorClass) -> bool:
    """Decide membership of the class divisor in the zero set via the grid.

    With A_jk the cells, writing chi for the p^i-twisted character on Z_{p^n}:

      p^i     in Z_A  iff  chi(A_jk - A_j0 - A_0k + A_00) = 0 for all j, k
      p^i*q   in Z_A  iff  chi(sum_j A_jk - sum_j A_j0) = 0 for all k
      p^i*r   in Z_A  iff  chi(sum_k A_jk - sum_k A_0k) = 0 for all j
      p^i*q*r in Z_A  iff  chi(sum_jk A_jk) = 0

    At i = n the character degenerates to the augmentation map and the same
    formulas become cardinality identities; the q*r shape is excluded there
    because its divisor would be 0.
    """
    cls.validate(grid.pm)
    return _failure(grid, cls.shape, cls.exponent) is None


# -- the seven conditional identities --------------------------------------


@dataclass(frozen=True)
class ConclusionCheck:
    conclusion: int
    holds: bool
    witness: tuple | None  # first violating index, shape depends on conclusion


@dataclass(frozen=True)
class ImplicationReport:
    exponent: int
    hypotheses: frozenset[str]
    checks: tuple[ConclusionCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


_REQUIRES: dict[int, frozenset[str]] = {
    1: frozenset({"p", "pq"}),
    2: frozenset({"p", "pr"}),
    3: frozenset({"pq", "pr"}),
    4: frozenset({"pq", "pqr"}),
    5: frozenset({"pr", "pqr"}),
    6: frozenset({"p", "pq", "pr"}),
    7: frozenset({"p", "pq", "pr", "pqr"}),
}


def grid_implications(
    grid: GridDecomposition, exponent: int, hypotheses: Iterable[str]
) -> ImplicationReport:
    """Check the identities implied by a set of zero-set memberships.

    hypotheses names divisor-class shapes at the given exponent that are
    claimed to lie in the zero set; each claim is verified first and a false
    claim raises HypothesisNotSatisfied.  Every conclusion whose required
    hypothesis set is covered is then checked exactly:

      1. {p, pq}          chi(A_jk - A_j0) = 0 for all j, k
      2. {p, pr}          chi(A_jk - A_0k) = 0 for all j, k
      3. {pq, pr}         r * chi(column k) and q * chi(row j) are constant
                          and equal to each other
      4. {pq, pqr}        chi(column k) = 0 for all k
      5. {pr, pqr}        chi(row j) = 0 for all j
      6. {p, pq, pr}      chi(A_jk - A_00) = 0 for all j, k
      7. all four         chi(A_jk) = 0 for all j, k

    where chi is the p^exponent-twisted character, column k sums the cells
    over j and row j sums over k.  A failed conclusion reports its first
    violating (j, k), ("column", k) or ("row", j), or ("cross", 0) when
    conclusion 3's columns and rows are constant but disagree.
    """
    hyp = frozenset(hypotheses)
    unknown = hyp - set(SHAPES)
    if unknown:
        raise ValueError(f"unknown shapes {sorted(unknown)}")
    for shape in sorted(hyp):
        cls = DivisorClass(shape, exponent)
        if not class_zero_predicate(grid, cls):
            raise HypothesisNotSatisfied(
                f"divisor {cls.divisor(grid.pm)} is not in the zero set"
            )
    checks = []
    for cid, needs in _REQUIRES.items():
        if needs <= hyp:
            witness = _failure(grid, cid, exponent)
            checks.append(ConclusionCheck(cid, witness is None, witness))
    return ImplicationReport(exponent, hyp, tuple(checks))


# -- divisor profiles ------------------------------------------------------


@dataclass(frozen=True)
class DivisorProfile:
    """Exponents i with p^i*q*r in the zero set, and which of the two
    boundary residues p^n*q, p^n*r belong to it."""

    exponents: frozenset[int]
    boundary: frozenset[int]


def divisor_profile(
    x: GroupRingElement | ZeroSet, pm: PnqrModulus
) -> DivisorProfile:
    zs = x if isinstance(x, ZeroSet) else zero_set(x)
    if zs.modulus.n != pm.big_n:
        raise ValueError("modulus mismatch")
    qr = pm.q * pm.r
    exps = frozenset(
        i for i in range(pm.n) if pm.p**i * qr in zs.divisor_classes
    )
    bound = frozenset(
        d for d in (pm.pn * pm.q, pm.pn * pm.r) if d in zs.members
    )
    return DivisorProfile(exps, bound)


# -- digit sets in Z_{p^n} -------------------------------------------------


@dataclass(frozen=True)
class DigitSetVerdict:
    hypotheses: dict  # name -> bool
    matches_standard: bool | None  # None when a hypothesis fails
    standard: frozenset[int]

    @property
    def applicable(self) -> bool:
        return all(self.hypotheses.values())


def digit_span(p: int, n: int, positions: Iterable[int]) -> frozenset[int]:
    """All sums sum_{i in positions} a_i p^i with digits a_i in [0, p)."""
    out = [0]
    for i in sorted(positions):
        step = p**i
        out = [v + a * step for v in out for a in range(p)]
    return frozenset(v % p**n for v in out)


def digit_set_check(
    v: Iterable[int], p: int, n: int, positions: Iterable[int]
) -> DigitSetVerdict:
    """Check the rigidity of digit sets in Z_{p^n}.

    For V of size p^t containing 0 whose differences stay inside the digit
    span of t positions including n-1, the only possibility is V equal to
    the span itself.  All four hypotheses are tested and reported; when they
    hold, the conclusion is checked by direct comparison.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pos = frozenset(positions)
    if not pos <= set(range(n)):
        raise ValueError(f"positions must lie in [0, {n - 1}]")
    pn = p**n
    vset = frozenset(g % pn for g in v)
    span = digit_span(p, n, pos)
    hyps = {
        "size": len(vset) == p ** len(pos),
        "top_position": (n - 1) in pos,
        "zero_in_v": 0 in vset,
        "differences_in_span": all(
            (a - b) % pn in span for a in vset for b in vset
        ),
    }
    matches = vset == span if all(hyps.values()) else None
    return DigitSetVerdict(hyps, matches, span)


# -- generating sets and coprime difference pairs --------------------------


@dataclass(frozen=True)
class GeneratingPairResult:
    generates: bool
    witness: tuple[int, int] | None


def is_generating(t: GroupRingElement | Iterable[int], m: Modulus | int) -> bool:
    m = as_modulus(m)
    elems = t.support if isinstance(t, GroupRingElement) else tuple(t)
    g = m.n
    for e in elems:
        g = gcd(g, e % m.n)
    return g == 1


def generating_pair(
    t: GroupRingElement, p: int, q: int
) -> GeneratingPairResult:
    """Find t1, t2 in T whose difference is divisible by neither p nor q.

    Such a pair exists whenever T generates Z_N; p and q must be distinct
    prime divisors of N and T must contain 0.  Pairs are scanned in ascending
    order, so the returned witness is deterministic.
    """
    n = t.n
    if not t.is_set:
        raise ValueError("T must be a set")
    if 0 not in t:
        raise ValueError("T must contain 0")
    if p == q or not is_prime(p) or not is_prime(q) or n % p or n % q:
        raise ValueError(f"need distinct prime divisors of {n}, got {p}, {q}")
    if not is_generating(t, t.modulus):
        return GeneratingPairResult(False, None)
    elems = t.support
    for a_idx in range(len(elems)):
        for b_idx in range(a_idx + 1, len(elems)):
            diff = elems[b_idx] - elems[a_idx]
            if diff % p and diff % q:
                return GeneratingPairResult(True, (elems[a_idx], elems[b_idx]))
    raise RuntimeError(
        "no coprime difference pair in a generating set; this contradicts "
        "the structure theory and indicates a bug"
    )
