"""Spectral sets in Z_N: verification, search, and affine canonical forms.

A subset A is spectral when some B of the same size has all its pairwise
differences in the zero set of A; B then indexes an orthogonal family of
characters on A.  The criterion is symmetric, so a valid pair verifies in
both orientations and the verifier checks both.

Searching for a spectrum is a clique problem.  Take the Cayley graph on Z_N
whose connection set is Z_A; spectra of size |A| are exactly the |A|-cliques,
and translation invariance pins 0 into B.  The remaining unit-scaling
symmetry is broken at the first branch level: if any spectrum exists, one
exists whose smallest nonzero element is minimal in its own unit orbit, and
the orbit minimum of g under (Z/N)^* is gcd(g, N).  The search is exact and
deterministic with an explicit node budget, and reports budget exhaustion
separately from a proven absence.  spectrum_search (first clique) and
enumerate_spectra (every clique) share one walk, which keeps an explicit
stack rather than recursing, so |A| is not bounded by the recursion limit.

Spectrality is an affine invariant.  Orbits under x -> ux + v with u a unit
give each subset a canonical representative: the orbit element whose sorted
element tuple is lexicographically least.  That representative always
contains 0 and is what the scan harness keys records by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .groupring import GroupRingElement, ZeroSet, as_modulus, subset, zero_set

__all__ = [
    "SpectralVerdict",
    "SearchResult",
    "BudgetExhausted",
    "is_spectral_pair",
    "spectrum_search",
    "enumerate_spectra",
    "canonical_form",
]

DEFAULT_BUDGET = 10**8


def _search_budget(budget: int | None) -> int:
    """Every search's node budget: DEFAULT_BUDGET for None, a negative one refused."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return DEFAULT_BUDGET if budget is None else budget


@dataclass(frozen=True)
class SpectralVerdict:
    is_pair: bool
    size_mismatch: bool
    violation: tuple[int, int] | None  # first (b, b') with b - b' outside Z_A


def _pair_ok(
    candidates: tuple[int, ...], zs: ZeroSet
) -> tuple[bool, tuple[int, int] | None]:
    n = zs.modulus.n
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if (candidates[j] - candidates[i]) % n not in zs.members:
                return False, (candidates[j], candidates[i])
    return True, None


def is_spectral_pair(a: GroupRingElement, b: GroupRingElement) -> SpectralVerdict:
    """Exact verification that B is a spectrum for A.

    Requires |A| = |B| and every difference of distinct elements of B to lie
    in Z_A.  The mirrored condition (differences of A inside Z_B) is a known
    equivalent; both are computed and must agree.
    """
    a._check(b)
    if not a.is_set or not b.is_set:
        raise ValueError("spectral pairs are defined for sets")
    if a.is_zero or b.is_zero:
        raise ValueError("spectral pairs are defined for nonempty sets")
    if a.mass != b.mass:
        return SpectralVerdict(False, True, None)
    ok_fwd, viol = _pair_ok(b.support, zero_set(a))
    ok_bwd, _ = _pair_ok(a.support, zero_set(b))
    if ok_fwd != ok_bwd:
        raise AssertionError(
            "orientation asymmetry in spectral verification; this is a bug"
        )
    return SpectralVerdict(ok_fwd, False, viol)


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class SearchResult:
    status: str  # found | none | exhausted
    witness: GroupRingElement | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def _rot_left(mask: int, v: int, n: int) -> int:
    v %= n
    return ((mask << v) | (mask >> (n - v))) & ((1 << n) - 1)


def _cayley_graph(a: GroupRingElement, zeros: ZeroSet | None) -> tuple[int, list[int]]:
    """Z_A as a mask, and each vertex's neighbourhood in the Cayley graph on Z_A.

    Both come back empty (0 and []) when no walk is needed: for |A| = 1 the
    only clique is {0}, and when |Z_A| < |A| - 1 no |A|-clique exists.
    """
    if not a.is_set or a.is_zero:
        raise ValueError("spectra are defined for nonempty sets")
    s = a.mass
    if s > 1:
        zs = zeros if zeros is not None else zero_set(a)
        if len(zs) >= s - 1:
            zmask = zs.mask
            return zmask, [_rot_left(zmask, v, a.n) for v in range(a.n)]
    return 0, []


def _cliques(
    chosen: list[int], cand: int, size: int, adj: list[int], budget: int, nodes: int
) -> Iterator[tuple[tuple[int, ...] | None, int]]:
    """Every size-clique extending the clique `chosen`, in ascending order.

    `cand` holds the vertices above `chosen` adjacent to all of it.  Yields
    (clique, nodes) for each clique, then (None, nodes) once the walk ends;
    nodes > budget then means the budget ran out.  Each vertex taken is one
    node, and a candidate set smaller than what is still needed is pruned
    before the take.  The walk keeps its own stack of the candidate sets it
    descended from, so no input reaches the recursion limit.
    """
    need = size - len(chosen)
    if need == 0:
        yield tuple(chosen), nodes
    else:
        stack: list[int] = []
        while True:
            if cand.bit_count() >= need:
                low = cand & -cand
                cand ^= low
                nodes += 1
                if nodes > budget:
                    break
                v = low.bit_length() - 1
                if need == 1:
                    yield (*chosen, v), nodes
                else:
                    stack.append(cand)
                    chosen.append(v)
                    cand &= adj[v]
                    need -= 1
            elif stack:
                cand = stack.pop()
                chosen.pop()
                need += 1
            else:
                break
    yield None, nodes


def spectrum_search(
    a: GroupRingElement,
    budget: int | None = None,
    zeros: ZeroSet | None = None,
) -> SearchResult:
    """Find a spectrum B containing 0 for A, or prove none exists.

    Branch and bound clique search in ascending element order, so the first
    spectrum found is deterministic.  Every vertex neighborhood has size
    |Z_A|, hence no clique can beat 1 + |Z_A|; that bound doubles as the
    pruning rule.  Returns status "exhausted" with the node count when the
    budget runs out before the question is settled.
    """
    budget = _search_budget(budget)
    zmask, adj = _cayley_graph(a, zeros)
    if a.mass == 1:
        return SearchResult("found", subset(a.modulus, [0]), 0)
    n = a.n
    nodes = 0
    # first-level symmetry break: the smallest nonzero element of some
    # spectrum can be assumed orbit minimal, and orbit minima are divisors
    for m in (d for d in range(1, n) if n % d == 0 and (zmask >> d) & 1):
        nodes += 1
        if nodes <= budget:
            upper = zmask & adj[m] & ~((1 << (m + 1)) - 1)
            clique, nodes = next(_cliques([0, m], upper, a.mass, adj, budget, nodes))
            if clique is not None:
                return SearchResult("found", subset(a.modulus, clique), nodes)
        if nodes > budget:
            return SearchResult("exhausted", None, nodes)
    return SearchResult("none", None, nodes)


def enumerate_spectra(
    a: GroupRingElement,
    zeros: ZeroSet | None = None,
    budget: int | None = None,
) -> Iterator[GroupRingElement]:
    """Yield every spectrum B containing 0, in ascending lexicographic order.

    No unit symmetry breaking here: callers get the complete list of cliques
    through 0, one per translation class of spectra.  Raises BudgetExhausted
    once the walk takes more than budget vertices.
    """
    budget = _search_budget(budget)
    zmask, adj = _cayley_graph(a, zeros)
    for clique, nodes in _cliques([0], zmask, a.mass, adj, budget, 0):
        if nodes > budget:
            raise BudgetExhausted(f"enumeration exceeded {budget} nodes")
        if clique is not None:
            yield subset(a.modulus, clique)


# -- canonical forms under the affine action -------------------------------


def _rev_mask(mask: int, n: int) -> int:
    out = 0
    for g in range(n):
        if (mask >> g) & 1:
            out |= 1 << (n - 1 - g)
    return out


def _best_rotation_key(enc: int, n: int) -> int:
    full = (1 << n) - 1
    best = enc
    for v in range(1, n):
        cand = ((enc >> v) | (enc << (n - v))) & full
        if cand > best:
            best = cand
    return best


def canonical_form(x: GroupRingElement) -> GroupRingElement:
    """Affine-orbit representative with lexicographically least element tuple.

    Encoding a subset S by the integer with bit n-1-g set for each g in S
    makes tuple-lex comparison an integer comparison (smaller tuples encode
    higher).  Shifts act on the encoding as rotations, so the canonical form
    is the bit reversal of the maximum encoding over all unit twists and
    rotations.  The representative contains 0.
    """
    if not x.is_set or x.is_zero:
        raise ValueError("canonical form is defined for nonempty sets")
    n = x.n
    best = 0
    for u in x.modulus.units():
        enc = _rev_mask(x.twist(u).mask, n)
        cand = _best_rotation_key(enc, n)
        if cand > best:
            best = cand
    return subset(x.modulus, [g for g in range(n) if (best >> (n - 1 - g)) & 1])
