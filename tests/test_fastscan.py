"""The vectorized batch kernels against the pure per-set routines.

Every kernel must agree with its scalar counterpart exactly, because the scan
records double as a reference dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from spectile.fastscan import (
    MAX_SCAN_N,
    _run_survivors,
    canonical_filter,
    canonicalize_batch,
    modulus_tables,
    t1_filter,
    zero_class_matrix,
    zero_set_from_bits,
)
from spectile.groupring import Modulus, subset, zero_set
from spectile.spectral import canonical_form
from spectile.tiling import t1_t2_check


def members_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(g for g in range(n) if (mask >> g) & 1)


def random_masks(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    masks = rng.integers(1, 1 << n, size=count, dtype=np.uint64)
    return masks


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_canonicalize_batch_matches_pure_exhaustively(n):
    t = modulus_tables(n)
    masks = np.arange(1, 1 << n, dtype=np.uint64)
    got = canonicalize_batch(masks, t)
    for m, c in zip(masks.tolist(), got.tolist()):
        expected = canonical_form(subset(n, members_of(m, n))).support
        assert members_of(c, n) == expected


@pytest.mark.parametrize("n", [30, 60])
def test_canonicalize_batch_matches_pure_sampled(n):
    t = modulus_tables(n)
    masks = random_masks(n, 40, seed=n)
    got = canonicalize_batch(masks, t)
    for m, c in zip(masks.tolist(), got.tolist()):
        expected = canonical_form(subset(n, members_of(m, n))).support
        assert members_of(c, n) == expected


def canonical_rich_masks(n: int, seed: int) -> np.ndarray:
    """Masks that reach the filter's rotation and unit stages.

    Canonical forms of random masks, each of their one-bit flips, and masks
    leading with runs of 4 to 10 members (which the run stage lets through
    unchecked) over random higher bits.
    """
    t = modulus_tables(n)
    canon = canonicalize_batch(random_masks(n, 300, seed), t)
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    flips = (canon[:, None] ^ bits[None, :]).ravel()
    runs = []
    for k in range(4, min(11, n)):
        high = random_masks(n, 500, seed + k) & ~np.uint64((1 << (k + 1)) - 1)
        runs.append(high | np.uint64((1 << k) - 1))
    return np.concatenate([canon, flips, *runs])


@pytest.mark.parametrize("n", [8, 12, 30, 60])
def test_canonical_filter_keeps_exactly_the_fixed_points(n):
    t = modulus_tables(n)
    masks = np.concatenate(
        [random_masks(n, 4000, seed=3 * n), canonical_rich_masks(n, seed=5 * n)]
    )
    keep = canonical_filter(masks, t)
    canon = canonicalize_batch(masks, t)
    assert np.array_equal(keep, canon == masks)
    assert keep.sum() >= 300
    again = canonicalize_batch(canon, t)
    assert np.array_equal(again, canon)


def leading_run_survives(mask: int, n: int) -> bool:
    """Stage 1 of canonical_filter, read off the members one by one."""
    bits = [(mask >> g) & 1 for g in range(n)]
    if all(bits):
        return True
    if bits[-1]:
        return False  # the leading run would wrap round from n-1
    lead = bits.index(0)
    longest = run = 0
    for b in bits + bits:
        run = run + 1 if b else 0
        longest = max(longest, run)
    return lead >= min(longest, 4)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 30, 60])
def test_run_survivors_drop_exactly_the_shorter_leading_runs(n):
    if n <= 12:
        masks = np.arange(1 << n, dtype=np.uint64)
    else:
        masks = canonical_rich_masks(n, seed=7 * n)
    got = _run_survivors(masks, n)
    assert got.tolist() == [leading_run_survives(m, n) for m in masks.tolist()]


@pytest.mark.parametrize("n", [*range(2, 17), 18, 20])
def test_canonical_filter_matches_canonicalize_exhaustively(n):
    t = modulus_tables(n)
    masks = np.arange(1 << n, dtype=np.uint64)
    keep = canonical_filter(masks, t)
    assert np.array_equal(keep, canonicalize_batch(masks, t) == masks)


@pytest.mark.parametrize("n", [8, 12, 30, 60])
def test_tables_cover_all_nonzero_residues(n):
    t = modulus_tables(n)
    expected = tuple(d for d in Modulus(n).divisors() if d < n)
    assert t.divisors == expected
    assert sum(t.class_sizes) == n - 1
    for j, e in enumerate(t.divisors):
        members = t.class_members[e]
        assert len(members) == t.class_sizes[j]
        assert all(np.gcd(g, n) == e for g in members)
        d = n // e
        primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
        assert t.class_primes[j] == (primes[0] if len(primes) == 1 else 1)


@pytest.mark.parametrize("n", [12, 30, 60])
def test_zero_class_matrix_matches_zero_set(n):
    t = modulus_tables(n)
    masks = random_masks(n, 250, seed=n + 1)
    zbits, zsize = zero_class_matrix(masks, t)
    for i, m in enumerate(masks.tolist()):
        zs = zero_set(subset(n, members_of(m, n)))
        assert int(zsize[i]) == len(zs.members)
        for j, e in enumerate(t.divisors):
            assert bool(zbits[j, i]) == (e in zs.divisor_classes)
        assert zero_set_from_bits(zbits[:, i], t) == zs


def assert_t1_filter_matches_t1_t2_check(n: int, masks: np.ndarray) -> None:
    t = modulus_tables(n)
    zbits, _ = zero_class_matrix(masks, t)
    got = t1_filter(zbits, np.bitwise_count(masks).astype(np.int64), t)
    want = [t1_t2_check(subset(n, members_of(m, n))).t1_holds for m in masks.tolist()]
    assert got.tolist() == want


@pytest.mark.parametrize("n", range(2, 17))
def test_t1_filter_matches_t1_t2_check_exhaustively(n):
    assert_t1_filter_matches_t1_t2_check(n, np.arange(1, 1 << n, dtype=np.uint64))


def test_t1_filter_matches_t1_t2_check_sampled_z30():
    t = modulus_tables(30)
    masks = np.concatenate(
        [random_masks(30, 1000, seed=31), canonicalize_batch(random_masks(30, 1000, seed=37), t)]
    )
    assert_t1_filter_matches_t1_t2_check(30, masks)


def test_max_scan_modulus_has_tables():
    t = modulus_tables(MAX_SCAN_N)
    assert t.n == MAX_SCAN_N
    with pytest.raises(ValueError):
        modulus_tables(MAX_SCAN_N + 1)
