"""Tiles of Z_N: verification, complement search, and structure conditions.

A subset A tiles Z_N when some complement T makes every residue a + t exactly
once.  Three equivalent formulations are implemented and always computed
together: the direct exact-cover count, the difference condition
(A - A) intersect (T - T) = {0} with |A| |T| = N, and the zero-set condition
Z_A union Z_T = Z_N minus {0}.  Internal disagreement raises, so a silent
regression in any one route cannot pass unnoticed.

The complement search answers "none" without searching when |A| does not
divide N or A fails T1, the size condition below: Coven and Meyerowitz
showed that every tile of Z_N satisfies it.  Nearly every set whose size
divides N is rejected there.  The rest go to an exact-cover walk, which is
kept apart as the reference the entry checks are tested against.

The structure side packages the two classical conditions on the prime power
divisors s with Phi_s dividing the mask polynomial: the size condition
(|A| equals the product of Phi_s(1)) and the product condition (Phi of any
product of powers of distinct primes from that list also divides).  When both
hold, the standard spectrum built from multiples of N/s is constructed and
verified; a failure of that construction is a loud error, never a fallback.

Finally, a spectral pair (A, B) on Z_{p^n*q*r} with the right size shape and
zero-set profile yields an explicit tiling complement supported on the p-part:
digits of the spectrum's unused p-adic positions, scaled by q*r.  The
construction validates its output and reports inapplicability otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cyclotomic import factorize
from .groupring import GroupRingElement, is_char_zero, subset, zero_set
from .pnqr import PnqrModulus, divisor_profile
from .spectral import DEFAULT_BUDGET, SearchResult, _rot_left, _search_budget, is_spectral_pair

__all__ = [
    "TilingVerdict",
    "PrimePowerSpectrumData",
    "ConstructionError",
    "ComplementOutcome",
    "is_tiling_pair",
    "complement_search",
    "t1_t2_check",
    "cm_spectrum",
    "complement_from_spectrum",
]


class ConstructionError(RuntimeError):
    """A construction whose validity is guaranteed by theory failed to verify."""


@dataclass(frozen=True)
class TilingVerdict:
    is_pair: bool
    failure: tuple | None  # ("size", |A|*|T|) | ("uncovered", g) | ("covered_twice", g)


def is_tiling_pair(a: GroupRingElement, t: GroupRingElement) -> TilingVerdict:
    """Verify A + T = Z_N by exact cover, differences, and zero sets at once."""
    a._check(t)
    if not a.is_set or not t.is_set:
        raise ValueError("tiling pairs are defined for sets")
    if a.is_zero or t.is_zero:
        raise ValueError("tiling pairs are defined for nonempty sets")
    n = a.n
    if a.mass * t.mass != n:
        return TilingVerdict(False, ("size", a.mass * t.mass))

    cover = [0] * n
    for ae in a.support:
        for te in t.support:
            cover[(ae + te) % n] += 1
    cover_failure = None
    for g, c in enumerate(cover):
        if c != 1:
            cover_failure = ("uncovered", g) if c == 0 else ("covered_twice", g)
            break
    cover_ok = cover_failure is None

    diff_a = (a * a.reflect()).support
    diff_t = set((t * t.reflect()).support)
    diff_ok = all(g == 0 for g in diff_a if g in diff_t)

    covered = zero_set(a).members | zero_set(t).members
    zero_ok = covered == frozenset(range(1, n))

    if not (cover_ok == diff_ok == zero_ok):
        raise AssertionError(
            f"tiling criteria disagree: cover={cover_ok} diff={diff_ok} "
            f"zero={zero_ok}; this is a bug"
        )
    return TilingVerdict(cover_ok, cover_failure)


def complement_search(
    a: GroupRingElement, budget: int | None = None
) -> SearchResult:
    """Find a tiling complement T containing 0, or prove there is none.

    Two entry checks answer "none" after 0 nodes: |A| does not divide N, or
    A fails T1 (every tile satisfies T1, by Coven and Meyerowitz).  Whatever
    passes both goes to the exact-cover walk, _cover_walk.  The found T is
    shifted so 0 is a member, which is harmless because tiling complements
    are translation invariant, and the result is verified before being
    returned.
    """
    budget = _search_budget(budget)
    if not a.is_set:
        raise ValueError("complement search needs a set")
    s = a.mass
    if s == 0 or a.n % s or not _t1(a)[1]:
        return SearchResult("none", None, 0)
    return _cover_walk(a, budget)


def _cover_walk(a: GroupRingElement, budget: int) -> SearchResult:
    """Exact-cover backtracking for a set A whose size divides N.

    Always fill the least uncovered residue g, trying the translates that
    cover g in the order of A's elements; each one tried is a node.  The
    walk keeps its own stack of (covered, g, next element) for the levels
    it descended from, so no input reaches the recursion limit.  This walk
    alone decides tiling; complement_search puts its entry checks in front,
    and the tests check those checks against it.
    """
    n = a.n
    k = n // a.mass
    amask = a.mask
    translates = [_rot_left(amask, v, n) for v in range(n)]
    support = a.support
    s = len(support)
    nodes = 0
    chosen: list[int] = []
    stack: list[tuple[int, int, int]] = []
    covered = g = i = 0
    while True:
        if i < s:
            v = (g - support[i]) % n
            i += 1
            nodes += 1
            if nodes > budget:
                return SearchResult("exhausted", None, nodes)
            tr = translates[v]
            if not tr & covered:
                chosen.append(v)
                if len(chosen) == k:
                    break
                stack.append((covered, g, i))
                covered |= tr
                g = ((covered + 1) & ~covered).bit_length() - 1
                i = 0
        elif stack:
            covered, g, i = stack.pop()
            chosen.pop()
        else:
            return SearchResult("none", None, nodes)
    t0 = chosen[0]
    t = subset(a.modulus, sorted((v - t0) % n for v in chosen))
    if not is_tiling_pair(a, t).is_pair:
        raise AssertionError("complement search produced an invalid tiling")
    return SearchResult("found", t, nodes)


# -- prime power spectrum conditions ---------------------------------------


@dataclass(frozen=True)
class PrimePowerSpectrumData:
    """Prime power divisors s with Phi_s | A(x), plus the two conditions."""

    s_a: frozenset[int]
    t1_holds: bool
    t2_holds: bool


def _prime_of(s: int) -> int:
    return next(iter(factorize(s)))


def _t1(a: GroupRingElement) -> tuple[frozenset[int], bool]:
    """S_A, and whether T1 holds: |A| is the product of p(s) over s in S_A.

    S_A collects the prime powers s dividing N whose character at N/s
    vanishes on A, i.e. Phi_s divides the mask polynomial; Phi_s(1) = p(s),
    the prime of s.
    """
    n = a.n
    s_a = []
    prod = 1
    for p, e in factorize(n).items():
        for s in (p**k for k in range(1, e + 1)):
            if is_char_zero(a, n // s):
                s_a.append(s)
                prod *= p
    return frozenset(s_a), a.mass == prod


def t1_t2_check(a: GroupRingElement) -> PrimePowerSpectrumData:
    if not a.is_set or a.is_zero:
        raise ValueError("structure conditions are defined for nonempty sets")
    n = a.n
    s_a, t1 = _t1(a)

    by_prime: dict[int, list[int]] = {}
    for s in sorted(s_a):
        by_prime.setdefault(_prime_of(s), []).append(s)
    t2 = True
    primes = sorted(by_prime)
    for count in range(2, len(primes) + 1):
        for chosen_primes in itertools.combinations(primes, count):
            for combo in itertools.product(*(by_prime[p] for p in chosen_primes)):
                prod_s = 1
                for s in combo:
                    prod_s *= s
                if not is_char_zero(a, n // prod_s):
                    t2 = False
    return PrimePowerSpectrumData(s_a, t1, t2)


def cm_spectrum(a: GroupRingElement) -> GroupRingElement:
    """The standard spectrum for a set satisfying both structure conditions.

    B collects the sums of k_s * N/s over s in S_A with 0 <= k_s < p(s).
    The construction is guaranteed to produce a spectral pair; it is verified
    here and a failure raises ConstructionError rather than degrading.
    """
    data = t1_t2_check(a)
    if not (data.t1_holds and data.t2_holds):
        raise ValueError("the standard spectrum needs both structure conditions")
    n = a.n
    svals = sorted(data.s_a)
    members: set[int] = set()
    for ks in itertools.product(*(range(_prime_of(s)) for s in svals)):
        members.add(sum(k * (n // s) for k, s in zip(ks, svals)) % n)
    if len(members) != a.mass:
        raise ConstructionError(
            f"standard spectrum has {len(members)} elements, expected {a.mass}"
        )
    b = subset(a.modulus, members)
    if not is_spectral_pair(a, b).is_pair:
        raise ConstructionError("standard spectrum failed verification")
    return b


# -- tiling complement from a spectrum -------------------------------------


@dataclass(frozen=True)
class ComplementOutcome:
    applicable: bool
    reason: str | None
    tile: GroupRingElement | None


def complement_from_spectrum(
    a: GroupRingElement, b: GroupRingElement, pm: PnqrModulus
) -> ComplementOutcome:
    """Build a tiling complement for A out of the spectrum's divisor profile.

    Writing |A| = p^t * q * r, let J collect the exponents i < n with
    p^i*q*r in Z_B.  When |J| = t and at least one of the two boundary pairs
    {p^n*q, p^n*r} is fully contained in Z_A or in Z_B, the set

        T = { q*r * sum of x_i p^i over i in [0, n) minus J : 0 <= x_i < p }

    tiles with A.  Differences of T have p-adic valuation outside J, scaled
    by q*r; those classes avoid Z_B, so A - A cannot meet T - T except at 0.
    The output is validated; anything else is reported inapplicable.
    """
    if a.n != pm.big_n:
        raise ValueError(f"sets live in Z_{a.n}, modulus is Z_{pm.big_n}")
    verdict = is_spectral_pair(a, b)
    if not verdict.is_pair:
        raise ValueError("inputs are not a spectral pair")
    qr = pm.q * pm.r
    size = a.mass
    if size % qr:
        return ComplementOutcome(False, f"|A| = {size} is not a multiple of q*r", None)
    pt = size // qr
    t_exp = 0
    while pt % pm.p == 0:
        pt //= pm.p
        t_exp += 1
    if pt != 1:
        return ComplementOutcome(
            False, f"|A| = {size} is not of the form p^t * q * r", None
        )
    prof_a = divisor_profile(a, pm)
    prof_b = divisor_profile(b, pm)
    if len(prof_b.exponents) != t_exp:
        return ComplementOutcome(
            False,
            f"spectrum profile has {len(prof_b.exponents)} exponents, need {t_exp}",
            None,
        )
    if len(prof_a.boundary) != 2 and len(prof_b.boundary) != 2:
        return ComplementOutcome(
            False, "neither zero set contains both boundary residues", None
        )
    free = sorted(set(range(pm.n)) - prof_b.exponents)
    members = {
        qr * sum(x * pm.p**i for x, i in zip(xs, free)) % pm.big_n
        for xs in itertools.product(range(pm.p), repeat=len(free))
    }
    tile = subset(a.modulus, members)
    if not is_tiling_pair(a, tile).is_pair:
        raise ConstructionError(
            "profile complement failed tiling verification despite matching "
            "preconditions"
        )
    return ComplementOutcome(True, None, tile)
