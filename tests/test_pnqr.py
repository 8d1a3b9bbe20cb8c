from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import pnqr
from spectile.groupring import GroupRingElement, subset, zero_set
from spectile.pnqr import (
    SHAPES,
    _REQUIRES,
    DivisorClass,
    HypothesisNotSatisfied,
    PnqrModulus,
    all_divisor_classes,
    class_zero_predicate,
    decompose,
    digit_set_check,
    digit_span,
    divisor_profile,
    generating_pair,
    grid_implications,
    is_generating,
)

PNQR_MODULI = [30, 60, 90, 120]


# -- modulus parameters ----------------------------------------------------


@pytest.mark.parametrize(
    "n, params",
    [(30, (2, 1, 3, 5)), (60, (2, 2, 3, 5)), (90, (3, 2, 2, 5)), (120, (2, 3, 3, 5))],
)
def test_from_int_parameters(n, params):
    pm = PnqrModulus.from_int(n)
    assert (pm.p, pm.n, pm.q, pm.r) == params
    assert pm.big_n == n


@pytest.mark.parametrize("bad", [8, 12, 36, 210, 900, 24])
def test_from_int_rejects_wrong_shape(bad):
    with pytest.raises(ValueError):
        PnqrModulus.from_int(bad)


def test_generators_are_idempotents():
    pm = PnqrModulus(2, 2, 3, 5)
    assert pm.gen_p % 4 == 1 and pm.gen_p % 15 == 0
    assert pm.gen_q % 3 == 1 and pm.gen_q % 20 == 0
    assert pm.gen_r % 5 == 1 and pm.gen_r % 12 == 0
    assert (pm.gen_p + pm.gen_q + pm.gen_r) % 60 == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        PnqrModulus(4, 1, 3, 5)
    with pytest.raises(ValueError):
        PnqrModulus(2, 0, 3, 5)
    with pytest.raises(ValueError):
        PnqrModulus(2, 1, 2, 5)


# -- grid decomposition ----------------------------------------------------


@st.composite
def pnqr_elements(draw, moduli=(30, 60, 90), max_coeff=2):
    n = draw(st.sampled_from(moduli))
    coeffs = draw(
        st.lists(st.integers(-max_coeff, max_coeff), min_size=n, max_size=n)
    )
    return GroupRingElement.from_multiset(n, list(enumerate(coeffs)))


@given(pnqr_elements())
def test_decompose_recompose_round_trip(x):
    pm = PnqrModulus.from_int(x.n)
    assert decompose(x, pm).recompose() == x


def test_decompose_modulus_mismatch():
    with pytest.raises(ValueError):
        decompose(subset(30, [0]), PnqrModulus.from_int(60))


def test_grid_dump_format():
    pm = PnqrModulus.from_int(30)
    g = decompose(subset(30, [0, 3, 5, 6]), pm)
    assert g.dump() == "(0,0): 0\n(0,1): 0\n(0,3): 1\n(2,0): 1"


def test_cells_partition_by_congruence():
    pm = PnqrModulus.from_int(60)
    x = subset(60, range(0, 60, 4))
    g = decompose(x, pm)
    for j in range(pm.q):
        for k in range(pm.r):
            for xa in g.cells[j][k].support:
                v = pm.crt(xa, j, k)
                assert v % pm.q == j and v % pm.r == k and v % pm.pn == xa
                assert v in x


# -- divisor classes and the transfer predicate ----------------------------


def test_divisor_class_validation():
    pm = PnqrModulus.from_int(60)
    with pytest.raises(ValueError):
        DivisorClass("x", 0)
    with pytest.raises(ValueError):
        DivisorClass("p", -1)
    with pytest.raises(ValueError):
        DivisorClass("pqr", pm.n).validate(pm)
    with pytest.raises(ValueError):
        DivisorClass("p", pm.n + 1).validate(pm)
    DivisorClass("pq", pm.n).validate(pm)  # boundary classes are fine


def test_divisor_class_divisors():
    pm = PnqrModulus.from_int(60)
    assert DivisorClass("p", 1).divisor(pm) == 2
    assert DivisorClass("pq", 2).divisor(pm) == 12
    assert DivisorClass("pr", 2).divisor(pm) == 20
    assert DivisorClass("pqr", 0).divisor(pm) == 15


@settings(max_examples=150)
@given(st.data())
def test_predicate_matches_direct_membership(data):
    n = data.draw(st.sampled_from(PNQR_MODULI))
    pm = PnqrModulus.from_int(n)
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    x = subset(n, members)
    grid = decompose(x, pm)
    zs = zero_set(x)
    for cls in all_divisor_classes(pm):
        assert class_zero_predicate(grid, cls) == (cls.divisor(pm) in zs.members)


def test_predicate_matches_direct_membership_structured():
    # coset unions produce rich zero sets, so the boundary classes get exercised
    rng = random.Random(90125)
    for _ in range(150):
        n = rng.choice(PNQR_MODULI)
        pm = PnqrModulus.from_int(n)
        step = rng.choice([d for d in range(2, 21) if n % d == 0])
        a: set[int] = set()
        for _ in range(rng.randint(1, 3)):
            s = rng.randrange(n)
            a |= {(h + s) % n for h in range(0, n, step)}
        if rng.random() < 0.4:
            a |= set(rng.sample(range(n), 3))
        x = subset(n, a)
        grid = decompose(x, pm)
        zs = zero_set(x)
        for cls in all_divisor_classes(pm):
            assert class_zero_predicate(grid, cls) == (cls.divisor(pm) in zs.members)


# -- implications ----------------------------------------------------------


def _coset_union(rng: random.Random, n: int) -> set[int]:
    step = rng.choice([d for d in range(2, n) if n % d == 0])
    out: set[int] = set()
    for _ in range(rng.randint(1, 3)):
        s = rng.randrange(n)
        out |= {(h + s) % n for h in range(0, n, step)}
    return out


def test_implications_hold_when_hypotheses_hold():
    rng = random.Random(3301)
    pm = PnqrModulus.from_int(60)
    seen = {cid: 0 for cid in _REQUIRES}
    for _ in range(600):
        a = _coset_union(rng, 60)
        if not a or len(a) == 60:
            continue
        x = subset(60, a)
        grid = decompose(x, pm)
        zs = zero_set(x)
        for i in range(pm.n):
            have = {
                sh for sh in SHAPES if DivisorClass(sh, i).divisor(pm) in zs.members
            }
            for cid, needs in _REQUIRES.items():
                if needs <= have:
                    report = grid_implications(grid, i, needs)
                    seen[cid] += 1
                    assert report.all_hold, (sorted(a), i, cid, report)
    # every conclusion must actually have been exercised
    assert all(v > 20 for v in seen.values()), seen


# sha256 over (conclusion, holds, witness) of every check in the test below;
# it pins each conclusion's combinations and its witness order
CONCLUSION_PIN = "e16db45dd773529e331ab3f6f96b85df79f6353f4b2f03906d260b4c6ebce022"


def test_conclusions_pinned_where_they_fail(monkeypatch):
    # with the hypothesis check switched off every conclusion runs on every
    # set, so it fails on most of them and a swapped or vacuous combination
    # changes the digest.  No ("cross", 0) witness can occur: once columns
    # and rows are constant, both sides equal chi of the whole set.
    monkeypatch.setattr(pnqr, "class_zero_predicate", lambda grid, cls: True)
    digest = hashlib.sha256()
    seen = set()
    for n in (30, 60, 84, 90, 120):
        pm = PnqrModulus.from_int(n)
        rng = random.Random(n)
        for t in range(100):
            if t % 2:
                a = set(rng.sample(range(n), rng.randint(1, n - 1)))
            else:
                a = _coset_union(rng, n)
            grid = decompose(subset(n, a), pm)
            for i in range(pm.n + 1):
                # p^n*q*r is the class of 0, so pqr is claimed only below n
                shapes = SHAPES if i < pm.n else ("p", "pq", "pr")
                for c in grid_implications(grid, i, shapes).checks:
                    digest.update(repr((c.conclusion, c.holds, c.witness)).encode())
                    seen.add((c.conclusion, c.holds))
    assert seen == {(cid, holds) for cid in _REQUIRES for holds in (True, False)}
    assert digest.hexdigest() == CONCLUSION_PIN


def test_implications_reject_false_hypothesis():
    pm = PnqrModulus.from_int(60)
    x = subset(60, [0, 1, 7])  # tiny set, empty zero set
    grid = decompose(x, pm)
    with pytest.raises(HypothesisNotSatisfied):
        grid_implications(grid, 0, {"p", "pq"})


def test_implications_unknown_shape():
    pm = PnqrModulus.from_int(60)
    grid = decompose(subset(60, [0]), pm)
    with pytest.raises(ValueError):
        grid_implications(grid, 0, {"p", "qq"})


def test_implication_conclusion_seven_on_subgroup():
    # a full coset union of <2> has every class at exponent 0 in its zero set
    pm = PnqrModulus.from_int(60)
    x = subset(60, range(0, 60, 2))
    grid = decompose(x, pm)
    report = grid_implications(grid, 0, {"p", "pq", "pr", "pqr"})
    assert {c.conclusion for c in report.checks} == set(range(1, 8))
    assert report.all_hold


# -- divisor profiles ------------------------------------------------------


def test_profile_of_index_four_subgroup():
    pm = PnqrModulus.from_int(60)
    x = subset(60, range(0, 60, 4))
    prof = divisor_profile(x, pm)
    assert prof.exponents == frozenset()
    assert prof.boundary == frozenset({12, 20})


def test_profile_of_two_element_set():
    pm = PnqrModulus.from_int(30)
    prof = divisor_profile(subset(30, [0, 15]), pm)
    assert prof.exponents == frozenset({0})
    assert prof.boundary == frozenset()


def test_profile_accepts_precomputed_zero_set():
    pm = PnqrModulus.from_int(60)
    x = subset(60, range(0, 60, 4))
    assert divisor_profile(zero_set(x), pm) == divisor_profile(x, pm)


def test_profile_modulus_mismatch():
    with pytest.raises(ValueError):
        divisor_profile(subset(30, [0, 15]), PnqrModulus.from_int(60))


# -- digit sets ------------------------------------------------------------


def test_digit_span_examples():
    assert digit_span(2, 3, {0, 2}) == frozenset({0, 1, 4, 5})
    assert digit_span(3, 2, {1}) == frozenset({0, 3, 6})
    assert digit_span(2, 3, set()) == frozenset({0})


def test_digit_set_check_standard_set_matches():
    # positions {1,2} span the subgroup <2> of Z_8, which is difference closed
    v = digit_set_check({0, 2, 4, 6}, 2, 3, {1, 2})
    assert v.applicable and v.matches_standard
    v2 = digit_set_check({0, 3, 6}, 3, 2, {1})
    assert v2.applicable and v2.matches_standard


def test_digit_set_check_reports_failed_hypotheses():
    # a non-subgroup span is not difference closed, so even the span itself
    # fails the difference hypothesis: 0 - 1 = 7 mod 8 is outside {0,1,4,5}
    v = digit_set_check({0, 1, 4, 5}, 2, 3, {0, 2})
    assert not v.hypotheses["differences_in_span"]
    assert v.matches_standard is None
    v2 = digit_set_check({0, 1, 4}, 2, 3, {0, 2})
    assert not v2.hypotheses["size"]
    v3 = digit_set_check({1, 5}, 2, 3, {2})
    assert not v3.hypotheses["zero_in_v"]
    v4 = digit_set_check({0, 1}, 2, 3, {0})
    assert not v4.hypotheses["top_position"]


def test_digit_set_check_validation():
    with pytest.raises(ValueError):
        digit_set_check({0}, 4, 2, {1})
    with pytest.raises(ValueError):
        digit_set_check({0}, 2, 2, {5})


@pytest.mark.parametrize("p, n, t", [(2, 3, 1), (2, 3, 2), (3, 2, 1)])
def test_digit_set_rigidity_exhaustive_small(p, n, t):
    # whenever all hypotheses hold, V must equal the span
    pn = p**n
    for pos_rest in itertools.combinations(range(n - 1), t - 1):
        positions = frozenset(pos_rest) | {n - 1}
        for rest in itertools.combinations(range(1, pn), p**t - 1):
            verdict = digit_set_check({0, *rest}, p, n, positions)
            if verdict.applicable:
                assert verdict.matches_standard


# -- generating pairs ------------------------------------------------------


def test_is_generating():
    assert is_generating(subset(30, [0, 6, 10, 15]), 30)
    assert not is_generating(subset(30, [0, 6, 10]), 30)
    assert is_generating([0, 1], 12)


def test_generating_pair_examples():
    res = generating_pair(subset(6, [0, 1]), 2, 3)
    assert res.generates and res.witness == (0, 1)
    res = generating_pair(subset(30, [0, 6, 10, 15]), 2, 3)
    assert res.generates and res.witness == (10, 15)
    d = res.witness[1] - res.witness[0]
    assert d % 2 and d % 3


def test_generating_pair_non_generating():
    res = generating_pair(subset(30, [0, 6, 10]), 2, 3)
    assert not res.generates and res.witness is None


def test_generating_pair_validation():
    with pytest.raises(ValueError):
        generating_pair(subset(30, [1, 2]), 2, 3)  # missing 0
    with pytest.raises(ValueError):
        generating_pair(subset(30, [0, 1]), 2, 2)  # repeated prime
    with pytest.raises(ValueError):
        generating_pair(subset(30, [0, 1]), 2, 7)  # 7 does not divide 30


def test_generating_pair_exists_for_random_generating_sets():
    rng = random.Random(26)
    for _ in range(300):
        n = rng.choice([12, 30, 60, 90])
        pm_primes = [p for p, _ in __import__("sympy").factorint(n).items()]
        members = {0} | set(rng.sample(range(1, n), rng.randint(1, 6)))
        t = subset(n, members)
        if not is_generating(t, n):
            continue
        for p, q in itertools.combinations(sorted(pm_primes), 2):
            res = generating_pair(t, p, q)
            assert res.generates and res.witness is not None
            d = res.witness[1] - res.witness[0]
            assert d % p and d % q
