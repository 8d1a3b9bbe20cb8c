from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile.groupring import subset, zero_set
from spectile.spectral import (
    BudgetExhausted,
    canonical_form,
    enumerate_spectra,
    is_spectral_pair,
    spectrum_search,
)

from helpers import affine_orbit_masks, brute_spectrum_exists, canonical_by_enumeration


@st.composite
def random_subsets(draw, moduli=(4, 6, 7, 8, 9, 10, 12, 15, 16), min_size=1):
    n = draw(st.sampled_from(moduli))
    members = draw(st.sets(st.integers(0, n - 1), min_size=min_size, max_size=n))
    return subset(n, members)


# -- pair verification -----------------------------------------------------


def test_spectral_pair_examples():
    assert is_spectral_pair(subset(4, [0, 1]), subset(4, [0, 2])).is_pair
    v = is_spectral_pair(subset(4, [0, 1]), subset(4, [0, 1]))
    assert not v.is_pair and v.violation == (1, 0)
    v = is_spectral_pair(subset(4, [0, 1]), subset(4, [0, 1, 2]))
    assert not v.is_pair and v.size_mismatch
    assert is_spectral_pair(subset(8, [0, 1, 2, 3]), subset(8, [0, 2, 4, 6])).is_pair


def test_spectral_pair_validation():
    with pytest.raises(ValueError):
        is_spectral_pair(subset(4, [0]), subset(6, [0]))
    with pytest.raises(ValueError):
        is_spectral_pair(subset(4, []), subset(4, []))


def test_full_group_is_spectral():
    a = subset(10, range(10))
    assert is_spectral_pair(a, a).is_pair


def test_singleton_is_spectral():
    assert is_spectral_pair(subset(7, [3]), subset(7, [0])).is_pair


@given(random_subsets(min_size=1), st.data())
def test_pair_verdict_is_symmetric(a, data):
    n = a.n
    members = data.draw(
        st.sets(st.integers(0, n - 1), min_size=a.mass, max_size=a.mass)
    )
    b = subset(n, members)
    # the verifier itself asserts orientation agreement; just exercise it
    v1 = is_spectral_pair(a, b)
    v2 = is_spectral_pair(b, a)
    assert v1.is_pair == v2.is_pair


@given(random_subsets(min_size=2), st.data())
def test_spectral_pair_affine_invariance(a, data):
    res = spectrum_search(a)
    if not res.found:
        return
    b = res.witness
    u1 = data.draw(st.sampled_from(a.modulus.units()))
    u2 = data.draw(st.sampled_from(a.modulus.units()))
    g = data.draw(st.integers(0, a.n - 1))
    h = data.draw(st.integers(0, a.n - 1))
    a2 = a.twist(u1).translate(g)
    b2 = b.twist(u2).translate(h)
    assert is_spectral_pair(a2, b2).is_pair


# -- search ----------------------------------------------------------------


def test_spectrum_search_examples():
    res = spectrum_search(subset(8, [0, 1, 2, 3]))
    assert res.found and res.witness.support == (0, 2, 4, 6)
    res = spectrum_search(subset(5, [0, 1, 2]))
    assert res.status == "none"
    res = spectrum_search(subset(7, [3]))
    assert res.found and res.witness.support == (0,)


def test_spectrum_search_budget_exhaustion():
    a = subset(16, range(8))
    res = spectrum_search(a, budget=2)
    assert res.status == "exhausted" and res.witness is None
    assert spectrum_search(a).found


@pytest.mark.parametrize("n", [8, 9, 10, 12])
def test_search_complete_on_all_subsets(n):
    for bits in range(1, 1 << n):
        a = subset(n, [g for g in range(n) if bits >> g & 1])
        zs = zero_set(a)
        res = spectrum_search(a, zeros=zs)
        assert res.status != "exhausted"
        assert res.found == brute_spectrum_exists(a.mass, zs.members, n)
        if res.found:
            assert is_spectral_pair(a, res.witness).is_pair


def test_search_complete_sampled_larger_moduli():
    rng = random.Random(1203)
    checked = 0
    while checked < 250:
        n = rng.choice([14, 15, 16, 18, 20, 21, 24])
        size = rng.randint(2, n - 1)
        a = subset(n, rng.sample(range(n), size))
        zs = zero_set(a)
        # keep the brute-force side tractable
        if comb(len(zs.members), size - 1) > 200_000:
            continue
        res = spectrum_search(a, zeros=zs)
        assert res.status != "exhausted"
        assert res.found == brute_spectrum_exists(size, zs.members, n)
        checked += 1


def test_enumerate_spectra_lists_all_cliques():
    a = subset(8, [0, 1, 2, 3])
    found = [b.support for b in enumerate_spectra(a)]
    assert found == [(0, 2, 4, 6)]
    a = subset(8, [0, 4])
    found = {b.support for b in enumerate_spectra(a)}
    # any b with chi_b(A) = 0 works, i.e. b odd times 4 ... enumerated directly
    zs = zero_set(a).members
    assert found == {(0, b) for b in sorted(zs)}


def _pinned_clique_sets():
    """200 seeded sets on N in {36, 48, 60, 72}.

    Three in four are unions of cosets of a subgroup, whose zero sets are
    large enough to give the clique walk real work; the rest are random.
    """
    rng = random.Random(2026)
    for i in range(200):
        n = rng.choice((36, 48, 60, 72))
        h = rng.choice([d for d in range(2, n) if n % d == 0])
        q = n // h
        if i % 4:
            reps = rng.sample(range(q), rng.randint(1, max(1, q // 2)))
            members = {r + q * j for r in reps for j in range(h)}
        else:
            members = rng.sample(range(n), h)
        yield subset(n, members)


def test_search_and_enumeration_node_counts_are_pinned():
    # spectrum_search's (status, nodes, witness) at budget 10^4 and the
    # spectra enumerate_spectra lists before a 10^3-node budget runs out,
    # recorded from the recursive walkers this walk replaced; a node-counting
    # slip changes the digest, and with it the spectrum_nodes of scan records
    rows = []
    for a in _pinned_clique_sets():
        res = spectrum_search(a, budget=10**4)
        listed = []
        try:
            for b in enumerate_spectra(a, budget=10**3):
                listed.append(b.support)
            end = "done"
        except BudgetExhausted:
            end = "exhausted"
        witness = res.witness and res.witness.support
        rows.append((a.n, a.support, res.status, res.nodes, witness, end, listed))
    assert Counter(r[2] for r in rows) == {"none": 97, "found": 95, "exhausted": 8}
    assert sum(r[3] for r in rows) == 92_756
    assert Counter(r[5] for r in rows) == {"done": 109, "exhausted": 91}
    assert sum(len(r[6]) for r in rows) == 26_624
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "07a20dc2369dc088ab7616f8810405eb92dcda99c5acc1635b62147bbb63029b"


def test_deep_cliques_do_not_recurse():
    # all of Z_1200 is its own spectrum: a 1200-clique, one walk level each
    a = subset(1200, range(1200))
    res = spectrum_search(a)
    assert res.found and res.nodes == 1199
    assert res.witness.support == tuple(range(1200))
    assert next(enumerate_spectra(a)).support == tuple(range(1200))


@given(random_subsets(min_size=2))
def test_enumeration_contains_search_result(a):
    res = spectrum_search(a)
    if res.found:
        first = next(iter(enumerate_spectra(a)), None)
        assert first is not None
        assert is_spectral_pair(a, first).is_pair


# -- canonical forms -------------------------------------------------------


def test_canonical_form_examples():
    assert canonical_form(subset(4, [1, 2])).support == (0, 1)
    assert canonical_form(subset(4, [0, 2])).support == (0, 2)
    assert canonical_form(subset(7, [0, 1, 3])).support == (0, 1, 3)


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        canonical_form(subset(6, []))


@given(random_subsets())
def test_canonical_matches_enumeration_oracle(x):
    assert canonical_form(x).support == canonical_by_enumeration(x.support, x.n)


@given(random_subsets(), st.data())
def test_canonical_is_orbit_invariant(x, data):
    u = data.draw(st.sampled_from(x.modulus.units()))
    v = data.draw(st.integers(0, x.n - 1))
    y = x.twist(u).translate(v)
    assert canonical_form(y) == canonical_form(x)
    assert 0 in canonical_form(x)


def test_affine_orbit_size_divides_group_order():
    x = subset(12, [0, 1, 5])
    orbit = affine_orbit_masks(x.support, 12)
    n_maps = 12 * len(x.modulus.units())
    assert n_maps % len(orbit) == 0
    assert canonical_form(x).mask in orbit
