from __future__ import annotations

import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectile import scan
from spectile.groupring import subset, zero_set
from spectile.pnqr import PnqrModulus
from spectile.spectral import SearchResult, is_spectral_pair, spectrum_search
from spectile.tiling import (
    DEFAULT_BUDGET,
    ComplementOutcome,
    ConstructionError,
    _cover_walk,
    cm_spectrum,
    complement_from_spectrum,
    complement_search,
    is_tiling_pair,
    t1_t2_check,
)

from helpers import brute_tiles


@st.composite
def random_pairs(draw, moduli=(4, 6, 8, 9, 10, 12, 15, 16, 18, 20)):
    n = draw(st.sampled_from(moduli))
    a = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    t = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    return subset(n, a), subset(n, t)


# -- pair verification -----------------------------------------------------


def test_tiling_pair_examples():
    v = is_tiling_pair(subset(4, [0, 1]), subset(4, [0, 2]))
    assert v.is_pair
    v = is_tiling_pair(subset(9, [0, 3, 6]), subset(9, [0, 1, 2]))
    assert v.is_pair
    v = is_tiling_pair(subset(4, [0, 1]), subset(4, [0, 1]))
    assert not v.is_pair and v.failure == ("covered_twice", 1)
    v = is_tiling_pair(subset(4, [0, 1]), subset(4, [0, 1, 2]))
    assert not v.is_pair and v.failure == ("size", 6)


def test_tiling_pair_validation():
    with pytest.raises(ValueError):
        is_tiling_pair(subset(4, [0]), subset(6, [0]))
    with pytest.raises(ValueError):
        is_tiling_pair(subset(4, []), subset(4, [0]))


def test_trivial_tilings():
    n = 12
    assert is_tiling_pair(subset(n, range(n)), subset(n, [0])).is_pair
    assert is_tiling_pair(subset(n, [5]), subset(n, range(n))).is_pair


@given(random_pairs())
def test_three_routes_always_agree(pair):
    # is_tiling_pair internally computes the cover, the difference-set
    # criterion and the zero-set union criterion, and raises AssertionError
    # if they ever disagree; any completed call certifies agreement.
    a, t = pair
    v1 = is_tiling_pair(a, t)
    v2 = is_tiling_pair(t, a)
    assert v1.is_pair == v2.is_pair


@given(random_pairs(), st.data())
def test_tiling_translation_invariance(pair, data):
    a, t = pair
    g = data.draw(st.integers(0, a.n - 1))
    h = data.draw(st.integers(0, a.n - 1))
    assert (
        is_tiling_pair(a.translate(g), t.translate(h)).is_pair
        == is_tiling_pair(a, t).is_pair
    )


# -- complement search -----------------------------------------------------


def test_complement_search_examples():
    res = complement_search(subset(9, [0, 3, 6]))
    assert res.found and res.witness.support == (0, 1, 2)
    res = complement_search(subset(9, [0, 1, 3]))
    assert res.status == "none"
    res = complement_search(subset(10, [0, 1, 2]))
    assert res.status == "none" and res.nodes == 0  # 3 does not divide 10


def test_complement_search_result_is_validated():
    res = complement_search(subset(12, [0, 1, 2]))
    assert res.found
    assert 0 in res.witness
    assert is_tiling_pair(subset(12, [0, 1, 2]), res.witness).is_pair


def test_complement_search_budget():
    # {0,1,2,3,5,7} in Z_12 passes T1 (S_A = {2, 3, 4}, 2*3*2 = 6) but does
    # not tile, so only the walk can tell, and 1 node is not enough for it
    a = subset(12, [0, 1, 2, 3, 5, 7])
    assert t1_t2_check(a).t1_holds
    assert complement_search(a, budget=1).status == "exhausted"
    res = complement_search(a)
    assert res.status == "none" and res.nodes == 42
    # {0,1,2,3,4,5,6,8} in Z_16 fails T1: rejected before the walk
    res = complement_search(subset(16, [0, 1, 2, 3, 4, 5, 6, 8]), budget=1)
    assert (res.status, res.nodes) == ("none", 0)


@pytest.mark.parametrize("n", [9, 12])
def test_complement_search_complete_on_all_subsets(n):
    for bits in range(1, 1 << n):
        a = subset(n, [g for g in range(n) if bits >> g & 1])
        res = complement_search(a)
        assert res.status != "exhausted"
        assert res.found == (brute_tiles(a.support, n) is not None)
        if res.found:
            assert is_tiling_pair(a, res.witness).is_pair


def test_complement_search_sampled_larger_moduli():
    rng = random.Random(7741)
    for _ in range(120):
        n = rng.choice([15, 16, 18, 20, 24])
        size = rng.choice([d for d in range(2, n) if n % d == 0])
        a = subset(n, rng.sample(range(n), size))
        res = complement_search(a)
        assert res.status != "exhausted"
        assert res.found == (brute_tiles(a.support, n) is not None)


def assert_t1_rejections_match_the_walk(n: int, masks) -> int:
    """complement_search against _cover_walk on every mask of size dividing n.

    A class failing T1 must get "none" after 0 nodes from complement_search
    and "none" from the walk; any other class must get the walk's own result.
    Returns how many classes T1 rejected.
    """
    rejected = 0
    for m in masks:
        a = subset(n, [g for g in range(n) if m >> g & 1])
        if n % a.mass:
            continue
        res = complement_search(a)
        walk = _cover_walk(a, DEFAULT_BUDGET)
        if t1_t2_check(a).t1_holds:
            assert res == walk, (n, a.support)
        else:
            rejected += 1
            assert res == SearchResult("none", None, 0), (n, a.support)
            assert walk.status == "none", (n, a.support)
    return rejected


@pytest.mark.parametrize(
    "n, rejected",
    [(8, 3), (12, 47), (16, 140), (18, 642), (20, 1391), (24, 19938)],
)
def test_t1_rejections_match_the_walk_exhaustively(n, rejected):
    masks = np.concatenate(list(scan._exhaustive_classes(n))).tolist()
    assert assert_t1_rejections_match_the_walk(n, masks) == rejected


def test_t1_rejections_match_the_walk_sampled_z30():
    # 380 of these classes have a size dividing 30
    masks = scan._sample_classes(30, 2000, seed=17).tolist()
    assert assert_t1_rejections_match_the_walk(30, masks) == 357


def test_complement_search_deep_cover_does_not_recurse():
    # Z_1500 = {0} + {0, ..., 1499}: 1500 translates, one walk level each
    res = complement_search(subset(1500, [0]))
    assert res.found and len(res.witness.support) == 1500
    assert res.nodes == 1500


def _pinned_walk_sets():
    """200 seeded sets on N in {36, 48, 60, 72} with sizes dividing N."""
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.choice((36, 48, 60, 72))
        size = rng.choice([d for d in range(2, n // 2 + 1) if n % d == 0])
        yield subset(n, rng.sample(range(n), size))


def test_cover_walk_node_counts_are_pinned():
    # (status, nodes, witness) of every walk at budget 10^4, recorded from
    # the recursive walk this one replaced; a node-counting slip changes the
    # digest, and with it the tile_nodes of scan records
    rows = []
    for a in _pinned_walk_sets():
        res = _cover_walk(a, 10**4)
        rows.append((a.n, a.support, res.status, res.nodes, res.witness and res.witness.support))
    assert Counter(r[2] for r in rows) == {"none": 159, "found": 22, "exhausted": 19}
    assert sum(r[3] for r in rows) == 358_307
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "a8729d0404e2a18eda57507435dfef444eb9e9ee095d02a4cb8791df90db33f5"


# -- structural spectrum construction --------------------------------------


def test_t1_t2_example():
    data = t1_t2_check(subset(8, [0, 1, 2, 3]))
    assert data.s_a == frozenset({2, 4})
    assert data.t1_holds and data.t2_holds
    b = cm_spectrum(subset(8, [0, 1, 2, 3]))
    assert b.support == (0, 2, 4, 6)
    assert is_spectral_pair(subset(8, [0, 1, 2, 3]), b).is_pair


def test_t1_t2_singleton():
    data = t1_t2_check(subset(12, [4]))
    assert data.s_a == frozenset()
    assert data.t1_holds and data.t2_holds
    assert cm_spectrum(subset(12, [4])).support == (0,)


def test_t1_can_fail():
    # {0, 1, 2} in Z_8: no prime power s has Phi_s dividing 1 + x + x^2,
    # so the product over S_A is empty and cannot match |A| = 3
    data = t1_t2_check(subset(8, [0, 1, 2]))
    assert data.s_a == frozenset()
    assert not data.t1_holds
    with pytest.raises(ValueError):
        cm_spectrum(subset(8, [0, 1, 2]))


def test_cm_spectrum_on_known_tiles():
    rng = random.Random(402)
    produced = 0
    while produced < 40:
        n = rng.choice([8, 9, 12, 16, 18, 20, 24, 27])
        size = rng.choice([d for d in range(2, n) if n % d == 0])
        a = subset(n, rng.sample(range(n), size))
        if not complement_search(a).found:
            continue
        data = t1_t2_check(a)
        if not (data.t1_holds and data.t2_holds):
            continue
        b = cm_spectrum(a)
        assert is_spectral_pair(a, b).is_pair
        produced += 1


def test_t1_t2_any_modulus():
    # the structure conditions are defined for every modulus, including ones
    # with repeated primes in several places such as 36 = 2^2 * 3^2
    a = subset(36, [0, 1, 2, 3, 4, 5])
    data = t1_t2_check(a)
    assert data.s_a == frozenset({2, 3})
    assert data.t1_holds and data.t2_holds
    b = cm_spectrum(a)
    assert is_spectral_pair(a, b).is_pair


# -- complement construction from a spectrum -------------------------------

PM60 = PnqrModulus(2, 2, 3, 5)


def test_complement_from_spectrum_worked_example():
    a = subset(60, [0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56])
    out = complement_from_spectrum(a, a, PM60)
    assert out.applicable
    assert out.tile.support == (0, 15, 30, 45)
    assert is_tiling_pair(a, out.tile).is_pair


def test_complement_from_spectrum_requires_spectral_pair():
    a = subset(60, [0, 1])
    with pytest.raises(ValueError):
        complement_from_spectrum(a, subset(60, [0, 1]), PM60)


def test_complement_from_spectrum_inapplicable_size():
    # |A| = 2 is not of the form p^t * 15 for modulus 60 = 4 * 3 * 5
    a = subset(60, [0, 30])
    res = spectrum_search(a)
    assert res.found
    out = complement_from_spectrum(a, res.witness, PM60)
    assert not out.applicable
    assert "|A|" in out.reason


def test_complement_from_spectrum_modulus_mismatch():
    with pytest.raises(ValueError):
        complement_from_spectrum(subset(30, [0, 1]), subset(30, [0, 15]), PM60)


@given(st.data())
def test_complement_from_spectrum_output_always_tiles(data):
    # whenever the construction claims applicability, its output must tile
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = 60
    size = rng.choice([15, 30])
    a = subset(n, rng.sample(range(n), size))
    res = spectrum_search(a)
    if not res.found:
        return
    try:
        out = complement_from_spectrum(a, res.witness, PM60)
    except ConstructionError:
        pytest.fail("construction claimed applicability but failed validation")
    if out.applicable:
        assert is_tiling_pair(a, out.tile).is_pair


def test_complement_outcome_fields():
    out = ComplementOutcome(applicable=False, reason="size shape", tile=None)
    assert not out.applicable and out.tile is None


# -- spectral/tile interplay at desk scale ---------------------------------


@pytest.mark.parametrize("n", [8, 9, 10, 12])
def test_spectral_iff_tile_small(n):
    for bits in range(1, 1 << n):
        a = subset(n, [g for g in range(n) if bits >> g & 1])
        zs = zero_set(a)
        spectral = spectrum_search(a, zeros=zs).found
        tiles = complement_search(a).found
        assert spectral == tiles, (n, a.support)
