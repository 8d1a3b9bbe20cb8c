"""Whole-modulus scans for spectral/tile disagreements, with persistence.

A scan walks the subsets of Z_n up to affine equivalence, runs the spectrum
search and the complement search on one representative per class, and flags
any class where the two verdicts definitively differ.  Exhaustive mode
enumerates every canonical class (guarded by a class-count ceiling computed
by Burnside's lemma); sample mode draws random subsets, canonicalizes, and
deduplicates until the requested number of distinct classes is reached.
Given the same (n, mode, seed, budget, sample count) a scan is a pure
function: the record stream, the report, and the bytes of the output file
are all identical run to run.

The vectorized kernels in fastscan enumerate and canonicalize the masks and
reject whole batches at the searches' entry checks; the one per-class loop,
which runs the searches and builds each ScanRecord, and the record's line
format both live here.

Persistence is an append-only file of one JSON record per line, keyed by
modulus and canonical mask.  The class sequence is cut into chunks of at
most CHUNK classes; each chunk is decided in-process or on a worker pool,
and the parent appends the chunks' records in sequence order, flushing after
each, so the file always holds a prefix of the full record stream.  A crash
loses only the chunks in flight: the one being decided in-process, or at
most AHEAD per worker on a pool (plus at most one partial line).
Resuming truncates a partially written or damaged trailing line, re-derives
the class sequence, drops the classes already on disk and appends the rest,
so an interrupted-and-resumed scan converges to the same bytes as an
uninterrupted one, whatever the worker count.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .certificates import Certificate, candidate_certificate
from .fastscan import (
    MAX_SCAN_N,
    canonical_filter,
    canonicalize_batch,
    modulus_tables,
    t1_filter,
    zero_class_matrix,
    zero_set_from_bits,
)
from .groupring import subset
from .spectral import SearchResult, spectrum_search
from .tiling import complement_search

__all__ = [
    "ScanConfig",
    "ScanRecord",
    "ScanReport",
    "affine_class_count",
    "scan_class_count",
    "fuglede_scan",
    "read_records",
]

SAMPLE_BATCH = 1 << 17  # fixed so the sampled class sequence depends only on seed
ENUM_BATCH = 1 << 17  # mask range per canonical_filter call (memory only, never output)
CHUNK = 1 << 12  # most classes decided per job, in-process or on a worker
AHEAD = 4  # chunks submitted unread per pool worker


@dataclass(frozen=True)
class ScanConfig:
    n: int
    mode: str = "exhaustive"  # exhaustive | sample
    sample_count: int = 0  # distinct classes to sample (sample mode only)
    seed: int = 0
    budget: int = 10**6  # node budget per search per class
    out: str | None = None
    workers: int = 1
    class_ceiling: int = 500_000  # exhaustive refuses above this many classes


@dataclass(frozen=True)
class ScanRecord:
    n: int
    key: str
    members: tuple[int, ...]
    size: int
    has_spectrum: str  # yes | no | inconclusive
    tiles: str
    spectrum_nodes: int
    tile_nodes: int
    certificate: Certificate | None = None

    def to_json(self) -> str:
        """The record line, as compact json.dumps(sort_keys=True) writes it.

        The keys are spelled out in sorted order.  The strings are hex keys
        and fixed ASCII verdict words, so none needs escaping.
        """
        cert = self.certificate
        head = "{" if cert is None else '{"certificate":' + cert.to_json() + ","
        return (
            f'{head}"has_spectrum":"{self.has_spectrum}","key":"{self.key}",'
            f'"n":{self.n},"set":[{",".join(map(str, self.members))}],'
            f'"size":{self.size},"spectrum_nodes":{self.spectrum_nodes},'
            f'"tile_nodes":{self.tile_nodes},"tiles":"{self.tiles}"}}'
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "ScanRecord":
        cert = payload.get("certificate")
        return cls(
            n=payload["n"],
            key=payload["key"],
            members=tuple(payload["set"]),
            size=payload["size"],
            has_spectrum=payload["has_spectrum"],
            tiles=payload["tiles"],
            spectrum_nodes=payload["spectrum_nodes"],
            tile_nodes=payload["tile_nodes"],
            certificate=None if cert is None else Certificate.from_payload(cert),
        )


@dataclass(frozen=True)
class ScanReport:
    n: int
    mode: str
    classes: int
    spectral: int
    tiles: int
    both: int
    neither: int
    spectral_only: int
    tile_only: int
    inconclusive_spectrum: int
    inconclusive_tile: int
    counterexamples: tuple[str, ...]  # record keys with a definite disagreement
    certificates: tuple[Certificate, ...]
    seed: int
    budget: int
    sample_count: int


# -- affine class counting -------------------------------------------------


@lru_cache(maxsize=None)
def affine_class_count(n: int) -> int:
    """Number of orbits of subsets of Z_n under x -> ux + v (Burnside)."""
    total = 0
    n_maps = 0
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        for v in range(n):
            n_maps += 1
            seen = bytearray(n)
            cycles = 0
            for start in range(n):
                if seen[start]:
                    continue
                cycles += 1
                x = start
                while not seen[x]:
                    seen[x] = 1
                    x = (u * x + v) % n
            total += 1 << cycles
    assert total % n_maps == 0
    return total // n_maps


def scan_class_count(n: int) -> int:
    """Affine classes a scan visits: all orbits minus empty, singleton, full."""
    return affine_class_count(n) - 3


# -- class sequences -------------------------------------------------------


def _exhaustive_classes(n: int):
    """Ascending canonical masks with 0 in the set and size in [2, n-1].

    Only odd masks from 3 up to 2^(n-1) are generated: a canonical set holds
    0 and, unless it is all of Z_n, not n-1 (see fastscan._run_survivors),
    so these are exactly the candidates of size 2 to n-1.
    """
    t = modulus_tables(n)
    half = 1 << (n - 1)
    for start in range(0, half, ENUM_BATCH):
        stop = min(start + ENUM_BATCH, half)
        masks = np.arange(max(start | 1, 3), stop, 2, dtype=np.uint64)
        keep = canonical_filter(masks, t)
        if keep.any():
            yield masks[keep]


def _sample_classes(n: int, count: int, seed: int) -> np.ndarray:
    """First-seen canonical masks of random subsets, exactly count of them.

    Sizes are uniform on [2, n-1] and the members a uniform size-subset; the
    sequence is a pure function of (n, seed, count).
    """
    t = modulus_tables(n)
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    ordered: list[int] = []
    shifts = np.arange(n, dtype=np.uint64)
    while len(ordered) < count:
        sizes = rng.integers(2, n, size=SAMPLE_BATCH)
        u = rng.random((SAMPLE_BATCH, n))
        thresh = np.sort(u, axis=1)[np.arange(SAMPLE_BATCH), sizes - 1]
        bits = u <= thresh[:, None]
        masks = (bits.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
        for cm in canonicalize_batch(masks, t).tolist():
            if cm not in seen:
                seen.add(cm)
                ordered.append(cm)
                if len(ordered) == count:
                    break
    return np.array(ordered, dtype=np.uint64)


# -- record production -----------------------------------------------------


_STATUS = {"found": "yes", "none": "no", "exhausted": "inconclusive"}
_SKIPPED = SearchResult("none", None, 0)


def _records_for(n: int, masks: np.ndarray, budget: int, cert_seed) -> list[ScanRecord]:
    """Decide a chunk of canonical masks: both searches, one record per class.

    The three entry rejections (zero set too small to host a spectrum-sized
    clique; set size not dividing n; T1 failing) are evaluated for the whole
    chunk first; they mirror the searches' own first checks, so skipping the
    call changes nothing, node counts included.
    """
    t = modulus_tables(n)
    pc = np.bitwise_count(masks).astype(np.int64)
    zbits, zsize = zero_class_matrix(masks, t)
    need_spec = (zsize >= pc - 1).tolist()
    need_tile = ((n % pc == 0) & t1_filter(zbits, pc, t)).tolist()
    out = []
    for i, m in enumerate(masks.tolist()):
        members = tuple(g for g in range(n) if (m >> g) & 1)
        spec = tile = _SKIPPED
        if need_spec[i] or need_tile[i]:
            a = subset(t.modulus, members)
            if need_spec[i]:
                zs = zero_set_from_bits(zbits[:, i], t)
                spec = spectrum_search(a, budget=budget, zeros=zs)
            if need_tile[i]:
                tile = complement_search(a, budget=budget)
        cert = None
        if spec.status == "found" and tile.status == "none":
            cert = candidate_certificate(
                "non_tile_spectral_candidate", a, spec.witness, seed=cert_seed
            )
        elif tile.status == "found" and spec.status == "none":
            cert = candidate_certificate(
                "non_spectral_tile_candidate", a, tile.witness, seed=cert_seed
            )
        out.append(
            ScanRecord(
                n=n,
                key=f"{n}:{m:x}",
                members=members,
                size=len(members),
                has_spectrum=_STATUS[spec.status],
                tiles=_STATUS[tile.status],
                spectrum_nodes=spec.nodes,
                tile_nodes=tile.nodes,
                certificate=cert,
            )
        )
    return out


class _Tally:
    def __init__(self) -> None:
        self.classes = 0
        self.spectral = 0
        self.tiles = 0
        self.both = 0
        self.neither = 0
        self.spectral_only = 0
        self.tile_only = 0
        self.inconclusive_spectrum = 0
        self.inconclusive_tile = 0
        self.counterexamples: list[str] = []
        self.certificates: list[Certificate] = []

    def add(self, rec: ScanRecord) -> None:
        self.classes += 1
        s, t = rec.has_spectrum, rec.tiles
        if s == "yes":
            self.spectral += 1
        elif s == "inconclusive":
            self.inconclusive_spectrum += 1
        if t == "yes":
            self.tiles += 1
        elif t == "inconclusive":
            self.inconclusive_tile += 1
        if s == "yes" and t == "yes":
            self.both += 1
        elif s == "no" and t == "no":
            self.neither += 1
        elif s == "yes" and t == "no":
            self.spectral_only += 1
        elif s == "no" and t == "yes":
            self.tile_only += 1
        if rec.certificate is not None:
            self.counterexamples.append(rec.key)
            self.certificates.append(rec.certificate)

    def merge(self, other: "_Tally") -> None:
        """Add another tally's counts; its keys and certificates go after ours."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


# -- persistence -----------------------------------------------------------


def _load_existing(path: str, n: int, tally: _Tally) -> np.ndarray:
    """Tally the records on disk and return the masks already done for Z_n.

    The file is read one line at a time.  A partially written trailing line,
    or a damaged last line, is truncated so the scan rewrites it; a damaged
    line before the last is an error.  The masks come back sorted.
    """
    if not os.path.exists(path):
        return np.zeros(0, dtype=np.uint64)
    masks = array("Q")
    prefix = f"{n}:"
    keep = None
    with open(path, "r+b") as fh:
        offset = 0
        for raw in fh:
            rec = None
            if raw.endswith(b"\n"):
                try:
                    rec = ScanRecord.from_payload(json.loads(raw))
                except (json.JSONDecodeError, KeyError, TypeError):
                    if fh.readline().endswith(b"\n"):
                        raise ValueError(f"corrupt scan record in {path!r}") from None
            if rec is None:
                keep = offset  # partial or damaged tail, rewrite from here
                break
            tally.add(rec)
            if rec.key.startswith(prefix):
                masks.append(int(rec.key[len(prefix) :], 16))
            offset += len(raw)
        if keep is not None:
            fh.truncate(keep)
    return np.sort(np.frombuffer(masks, dtype=np.uint64))


def read_records(path: str) -> list[ScanRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ScanRecord.from_payload(json.loads(line)))
    return out


# -- chunk jobs ------------------------------------------------------------


def _chunks(batches, done: np.ndarray):
    """The class sequence minus the masks in done (sorted), in chunks of <= CHUNK.

    A chunk never spans two batches, so at most one batch is held at a time.
    """
    for masks in batches:
        if len(done):
            # np.isin would sort all of done again for every batch
            pos = np.searchsorted(done, masks).clip(max=len(done) - 1)
            masks = masks[done[pos] != masks]
        for i in range(0, len(masks), CHUNK):
            yield masks[i : i + CHUNK]


def _chunk_worker(args) -> tuple[_Tally, str]:
    """Decide one chunk: its tally and, when serialize is set, its record lines."""
    n, budget, cert_seed, masks, serialize = args
    tally = _Tally()
    lines = []
    for rec in _records_for(n, masks, budget, cert_seed):
        tally.add(rec)
        if serialize:
            lines.append(rec.to_json() + "\n")
    return tally, "".join(lines)


def _pool_map(pool: ProcessPoolExecutor, jobs, ahead: int):
    """Chunk results in job order, with at most `ahead` jobs submitted unread.

    Executor.map would consume every job before the first result came back,
    holding the whole class sequence and every finished chunk in memory.
    """
    pending: deque = deque()
    for job in jobs:
        pending.append(pool.submit(_chunk_worker, job))
        if len(pending) >= ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


# -- the scan --------------------------------------------------------------


def fuglede_scan(config: ScanConfig) -> ScanReport:
    """Scan one modulus for classes that are spectral xor tiles.

    Returns the summary report; when config.out is set the full record
    stream is persisted there, append-only and resumable.
    """
    n = config.n
    if not 2 <= n <= MAX_SCAN_N:
        raise ValueError(f"scan supports 2 <= n <= {MAX_SCAN_N}, got {n}")
    if config.mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.mode == "sample" and config.sample_count < 1:
        raise ValueError("sample mode needs sample_count >= 1")
    if config.mode == "sample" and config.sample_count > scan_class_count(n):
        raise ValueError(
            f"sample_count {config.sample_count} exceeds the "
            f"{scan_class_count(n)} classes of Z_{n}"
        )

    expected: int | None = None
    if config.mode == "exhaustive":
        expected = scan_class_count(n)
        if expected > config.class_ceiling:
            raise ValueError(
                f"exhaustive scan of Z_{n} has {expected} classes, above the "
                f"ceiling of {config.class_ceiling}; raise class_ceiling to "
                "run it anyway"
            )

    cert_seed = config.seed if config.mode == "sample" else None
    tally = _Tally()
    done = np.zeros(0, dtype=np.uint64)
    if config.out is not None:
        done = _load_existing(config.out, n, tally)
    if config.mode == "exhaustive":
        batches = _exhaustive_classes(n)
    else:
        batches = [_sample_classes(n, config.sample_count, config.seed)]
    jobs = (
        (n, config.budget, cert_seed, chunk, config.out is not None)
        for chunk in _chunks(batches, done)
    )

    with ExitStack() as stack:
        out_fh = None
        if config.out is not None:
            out_fh = stack.enter_context(open(config.out, "a", encoding="utf-8"))
        if config.workers <= 1:
            results = map(_chunk_worker, jobs)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=config.workers))
            results = _pool_map(pool, jobs, AHEAD * config.workers)
        for part, text in results:
            tally.merge(part)
            if out_fh is not None:
                out_fh.write(text)
                out_fh.flush()

    if expected is not None and tally.classes != expected:
        raise AssertionError(
            f"exhaustive scan of Z_{n} visited {tally.classes} classes, "
            f"Burnside predicts {expected}"
        )
    if config.mode == "sample" and tally.classes != config.sample_count:
        raise AssertionError(
            f"sampled scan produced {tally.classes} classes, "
            f"requested {config.sample_count}"
        )
    return ScanReport(
        n=n,
        mode=config.mode,
        classes=tally.classes,
        spectral=tally.spectral,
        tiles=tally.tiles,
        both=tally.both,
        neither=tally.neither,
        spectral_only=tally.spectral_only,
        tile_only=tally.tile_only,
        inconclusive_spectrum=tally.inconclusive_spectrum,
        inconclusive_tile=tally.inconclusive_tile,
        counterexamples=tuple(tally.counterexamples),
        certificates=tuple(tally.certificates),
        seed=config.seed,
        budget=config.budget,
        sample_count=config.sample_count,
    )
