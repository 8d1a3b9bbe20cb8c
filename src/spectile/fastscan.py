"""Vectorized batch kernels for whole-modulus scans.

Subsets of Z_n (n <= 60) travel as uint64 bit masks in numpy arrays, so the
per-class overhead of a scan is a handful of elementwise passes instead of a
Python loop.  Three families of kernels live here:

* canonicalization: the affine-orbit representative of every mask in a batch,
  bit-for-bit identical to canonical_form, via per-unit permutation tables
  acting on 10-bit chunks; and the filter keeping the masks that already are
  their representative.  It drops a mask at the first affine image seen to
  beat it, so every stage is exact: a cyclic run of ones longer than the
  mask's leading run (a largest rotation starts with a longest run), then a
  larger rotation, then a larger image under each further unit in turn;
* zero-set classes: which divisor classes vanish for every mask in a batch,
  via per-class fold masks (popcounts of congruence strata) and small integer
  reduction matrices mod the relevant cyclotomic polynomial;
* T1, read off those class bits: the batch mirror of the check with which
  tiling.complement_search rejects non-tiles before its exact-cover walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .cyclotomic import euler_phi, factorize, reduce_mod_cyclotomic
from .groupring import Modulus, ZeroSet

__all__ = [
    "MAX_SCAN_N",
    "ModulusTables",
    "modulus_tables",
    "encode_batch",
    "rotation_max",
    "canonicalize_batch",
    "canonical_filter",
    "zero_class_matrix",
    "t1_filter",
    "zero_set_from_bits",
]

MAX_SCAN_N = 60
_CHUNK = 10  # bits per permutation-table chunk


@dataclass(frozen=True)
class ModulusTables:
    """Precomputed per-modulus data for the batch kernels.

    enc_tables[u] maps each 10-bit chunk of a mask to its contribution to the
    reversed encoding of the unit-twisted set (bit g of the mask lands on bit
    n-1-(u*g mod n) of the encoding).  rev_tables is the same gadget for the
    plain bit reversal used to decode an encoding back into a mask.
    """

    n: int
    modulus: Modulus
    units: tuple[int, ...]
    enc_tables: dict  # unit -> list of (1024,) uint64 arrays, one per chunk
    rev_tables: tuple  # one array per 10-bit chunk, decoding an encoding to a mask
    divisors: tuple[int, ...]  # proper divisors e of n (classes gcd(g,n)=e)
    fold_masks: dict  # e -> (d,) uint64, bits of residues i mod d, d = n//e
    reductions: dict  # e -> (d, phi(d)) int64, x^i mod Phi_d by rows
    class_members: dict  # e -> tuple of g in [1,n) with gcd(g,n)=e
    class_sizes: np.ndarray  # aligned with divisors, = phi(n//e)
    class_primes: np.ndarray  # aligned with divisors: p if n//e is a power of p, else 1


def _perm_chunk_tables(n: int, targets: list[int]) -> tuple:
    """Chunk tables for the bit permutation g -> targets[g]."""
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    tables = []
    for c in range(n_chunks):
        table = np.zeros(1 << _CHUNK, dtype=np.uint64)
        vals = np.arange(1 << _CHUNK, dtype=np.uint64)
        for b in range(_CHUNK):
            g = c * _CHUNK + b
            if g >= n:
                break
            bit = np.uint64(1) << np.uint64(targets[g])
            table |= ((vals >> np.uint64(b)) & np.uint64(1)) * bit
        tables.append(table)
    return tuple(tables)


@lru_cache(maxsize=None)
def modulus_tables(n: int) -> ModulusTables:
    if not 2 <= n <= MAX_SCAN_N:
        raise ValueError(f"batch kernels support 2 <= n <= {MAX_SCAN_N}, got {n}")
    m = Modulus(n)
    units = tuple(m.units())
    enc_tables = {
        u: _perm_chunk_tables(n, [n - 1 - (u * g) % n for g in range(n)])
        for u in units
    }
    rev_tables = _perm_chunk_tables(n, [n - 1 - g for g in range(n)])

    divisors = tuple(e for e in m.divisors() if e < n)
    fold_masks = {}
    reductions = {}
    class_members = {}
    sizes = []
    primes = []
    for e in divisors:
        d = n // e
        fm = np.zeros(d, dtype=np.uint64)
        for g in range(n):
            fm[g % d] |= np.uint64(1) << np.uint64(g)
        fold_masks[e] = fm
        rows = np.zeros((d, euler_phi(d)), dtype=np.int64)
        for i in range(d):
            mono = [0] * i + [1]
            reduced = reduce_mod_cyclotomic(mono, d)
            rows[i, : len(reduced)] = reduced
        reductions[e] = rows
        class_members[e] = tuple(g for g in range(1, n) if gcd(g, n) == e)
        sizes.append(len(class_members[e]))
        fd = factorize(d)
        primes.append(next(iter(fd)) if len(fd) == 1 else 1)
    return ModulusTables(
        n=n,
        modulus=m,
        units=units,
        enc_tables=enc_tables,
        rev_tables=rev_tables,
        divisors=divisors,
        fold_masks=fold_masks,
        reductions=reductions,
        class_members=class_members,
        class_sizes=np.array(sizes, dtype=np.int64),
        class_primes=np.array(primes, dtype=np.int64),
    )


def _apply_chunks(masks: np.ndarray, tables: tuple) -> np.ndarray:
    out = tables[0][masks & np.uint64((1 << _CHUNK) - 1)]
    for c in range(1, len(tables)):
        idx = (masks >> np.uint64(c * _CHUNK)) & np.uint64((1 << _CHUNK) - 1)
        out |= tables[c][idx]
    return out


def encode_batch(masks: np.ndarray, u: int, t: ModulusTables) -> np.ndarray:
    """Reversed encodings of the unit-u twists of a mask batch."""
    return _apply_chunks(masks, t.enc_tables[u])


def rotation_max(enc: np.ndarray, n: int) -> np.ndarray:
    """Elementwise max of an encoding batch over all n rotations."""
    full = np.uint64((1 << n) - 1)
    best = enc.copy()
    for v in range(1, n):
        cand = ((enc >> np.uint64(v)) | (enc << np.uint64(n - v))) & full
        np.maximum(best, cand, out=best)
    return best


def canonicalize_batch(masks: np.ndarray, t: ModulusTables) -> np.ndarray:
    """canonical_form of every mask in the batch, as masks."""
    best = rotation_max(encode_batch(masks, 1, t), t.n)
    for u in t.units[1:]:
        np.maximum(best, rotation_max(encode_batch(masks, u, t), t.n), out=best)
    return _apply_chunks(best, t.rev_tables)


def _run_survivors(masks: np.ndarray, n: int) -> np.ndarray:
    """Stage 1 of canonical_filter: drop masks a longer run of ones beats.

    A mask whose leading members are exactly 0..k-1 is dropped when Z_n has
    a cyclic run of k+1 consecutive members; runs of up to 4 are looked for.
    Apart from the full set, a canonical mask also lacks n-1 (else its
    leading run would wrap round), so the runs of the masks that remain never
    wrap and plain shifts find them.  Masks leading with 4 or more members
    all pass on to the rotation stage: following their longer runs cost more
    time than it saved.
    """
    lead = np.bitwise_count(masks & ~(masks + np.uint64(1)))
    keep = ((masks >> np.uint64(n - 1)) == 0) | (masks == np.uint64((1 << n) - 1))
    # bit g of runs: g, g+1, ..., g+j are all members
    runs = masks
    longest = (runs != 0).view(np.uint8)  # min(longest run, j + 1)
    for j in range(1, 4):
        runs = runs & (masks >> np.uint64(j))
        longest += runs != 0
    return keep & (longest <= lead)


def canonical_filter(masks: np.ndarray, t: ModulusTables) -> np.ndarray:
    """Boolean mask of batch entries that already are their canonical form.

    A mask is canonical exactly when its reversed encoding, which lists the
    membership of 0, 1, 2, ... from the top bit down, is the largest among
    the encodings of its affine images.  Each of three stages drops masks
    that some affine image beats, so it drops no canonical mask, and each
    costlier stage only sees what the one before kept:

    1. runs (_run_survivors): the largest rotation of an encoding starts with
       a longest cyclic run of ones, so a mask leading with a shorter run
       loses to a rotation of itself;
    2. rotations: the survivors must equal their own rotation_max;
    3. units: for each further unit in turn, the masks whose encoding is
       below the rotation_max of that unit's image are dropped.  What is left
       is at least every affine image, so it is the orbit maximum.
    """
    n = t.n
    idx = np.nonzero(_run_survivors(masks, n))[0]
    sub = masks[idx]
    enc1 = encode_batch(sub, 1, t)
    won = enc1 == rotation_max(enc1, n)
    # -1 first: the reflection has the mask's own runs, so the stages above
    # tell nothing about it, and about half of what they keep loses to it.
    for u in reversed(t.units[1:]):
        idx, sub, enc1 = idx[won], sub[won], enc1[won]
        won = enc1 >= rotation_max(encode_batch(sub, u, t), n)
    out = np.zeros(len(masks), dtype=bool)
    out[idx[won]] = True
    return out


def zero_class_matrix(masks: np.ndarray, t: ModulusTables) -> tuple:
    """Vanishing divisor classes for every mask in the batch.

    Returns (zbits, zsize): zbits has shape (len(divisors), batch) with
    zbits[j, i] true when class divisors[j] lies in the zero set of mask i,
    and zsize[i] = |Z_{mask i}| as an element count.
    """
    b = len(masks)
    zbits = np.zeros((len(t.divisors), b), dtype=bool)
    zsize = np.zeros(b, dtype=np.int64)
    for j, e in enumerate(t.divisors):
        fm = t.fold_masks[e]
        d = len(fm)
        counts = np.empty((b, d), dtype=np.int64)
        for i in range(d):
            counts[:, i] = np.bitwise_count(masks & fm[i])
        red = counts @ t.reductions[e]
        hit = (red == 0).all(axis=1)
        zbits[j] = hit
        zsize += hit * t.class_sizes[j]
    return zbits, zsize


def t1_filter(zbits: np.ndarray, sizes: np.ndarray, t: ModulusTables) -> np.ndarray:
    """Boolean mask of the batch entries that satisfy T1.

    Class e vanishes exactly when the character at e does, so for s = n/e a
    prime power, s is in S_A exactly when zbits marks class e.  T1 holds when
    the set size equals the product of p(s) over S_A, which is the product
    of class_primes over the vanishing classes.
    """
    prod = np.where(zbits, t.class_primes[:, None], 1).prod(axis=0)
    return prod == sizes


def zero_set_from_bits(bits: np.ndarray, t: ModulusTables) -> ZeroSet:
    """Assemble a ZeroSet from one column of zero_class_matrix output."""
    members: set[int] = set()
    classes: set[int] = set()
    for j, e in enumerate(t.divisors):
        if bits[j]:
            classes.add(e)
            members.update(t.class_members[e])
    return ZeroSet(t.modulus, frozenset(members), frozenset(classes))

