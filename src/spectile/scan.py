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
reject whole batches at the searches' entry checks.  Each chunk of classes
is then decided into verdict columns: only the classes that pass an entry
check are searched, the report is read off a 3x3 count of (has_spectrum,
tiles) verdicts, and record lines are formatted only when they are written.
A line's "set" text is joined column by column from tables of pre-rendered
member strings, one per 10-bit chunk of the mask, and its "size" is the
mask's popcount, so only the searched classes ever list their members.

Persistence is an append-only file of one JSON record per line, keyed by
modulus and canonical mask.  The class sequence is cut into chunks of at
most CHUNK classes; each chunk is decided in-process or on a worker pool,
and the parent appends the chunks' records in sequence order, flushing after
each, so the file always holds a prefix of the full record stream.  A crash
loses only the chunks in flight: the one being decided in-process, or at
most AHEAD per worker on a pool (plus at most one partial line).
Resuming reads only lines the writer could have written as records,
truncates a partial or damaged trailing line, checks that the file is a
prefix of this config's record stream (same modulus, node counts within the
budget, the first classes of the same sequence) and appends the rest, so an
interrupted-and-resumed scan converges to the same bytes as an uninterrupted
one, whatever the worker count.  Another config's file, or a damaged line
before the last, is refused with ValueError before anything is appended.
"""

from __future__ import annotations

import json
import os
import re
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
        return _record_line(
            self.n, self.key, ",".join(map(str, self.members)), len(self.members),
            self.has_spectrum, self.tiles, self.spectrum_nodes, self.tile_nodes,
            self.certificate,
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


# -- deciding chunks -------------------------------------------------------


# verdict codes index _WORDS; a class's cell in the 3x3 count is 3 * has_spectrum + tiles
_WORDS = ("no", "yes", "inconclusive")
_CODES = {word.encode(): code for code, word in enumerate(_WORDS)}  # as read back from a line
_STATUS_CODES = {"none": 0, "found": 1, "exhausted": 2}
_SKIPPED = SearchResult("none", None, 0)


def _record_line(
    n, key, members, size, has_spectrum, tiles, spectrum_nodes, tile_nodes, cert
) -> str:
    """The record line, as compact json.dumps(sort_keys=True) writes it.

    members is the set's text, its members joined by commas, and size their
    count.  The keys are spelled out in sorted order.  The strings are hex
    keys and fixed ASCII verdict words, so none needs escaping.
    """
    head = "{" if cert is None else '{"certificate":' + cert.to_json() + ","
    return (
        f'{head}"has_spectrum":"{has_spectrum}","key":"{key}",'
        f'"n":{n},"set":[{members}],"size":{size},'
        f'"spectrum_nodes":{spectrum_nodes},"tile_nodes":{tile_nodes},"tiles":"{tiles}"}}'
    )


def _members(m: int, n: int) -> list[int]:
    return [g for g in range(n) if m >> g & 1]


@lru_cache(maxsize=None)
def _member_text_table(c: int) -> np.ndarray:
    """Member text of every 10-bit value v of a mask's chunk c, as objects.

    Entry v lists 10c + b for each set bit b of v, each followed by a comma:
    entry 0b1011 of chunk 2 is "20,21,23,".
    """
    texts = ["".join(f"{10 * c + b}," for b in range(10) if v >> b & 1) for v in range(1024)]
    return np.array(texts, dtype=object)


def _member_texts(masks: np.ndarray, n: int) -> list[str]:
    """",".join(map(str, _members(m, n))) for every mask m.

    The texts are joined a column at a time, one 10-bit chunk of the masks
    after another, from the chunks' member text tables.
    """
    texts = _member_text_table(0)[masks & np.uint64(1023)]
    for c in range(1, (n + 9) // 10):
        texts += _member_text_table(c)[(masks >> np.uint64(10 * c)) & np.uint64(1023)]
    return [text[:-1] for text in texts.tolist()]


def _chunk_worker(args) -> tuple[np.ndarray, list, str]:
    """Decide a chunk of canonical masks into verdict columns.

    The three entry rejections (zero set too small to host a spectrum-sized
    clique; set size not dividing n; T1 failing) are evaluated for the whole
    chunk first; they mirror the searches' own first checks, so skipping the
    call changes nothing, node counts included.  Only classes passing one of
    them are searched; the rest keep "no" after 0 nodes.  Returns the 3x3
    verdict count, the flagged (key, certificate) pairs in class order, and
    the record lines ("" unless write is set), formatted from the verdict,
    node and certificate columns with the member texts of _member_texts.
    """
    n, budget, cert_seed, masks, write = args
    t = modulus_tables(n)
    pc = np.bitwise_count(masks).astype(np.int64)
    zbits, zsize = zero_class_matrix(masks, t)
    need_spec = zsize >= pc - 1
    need_tile = (n % pc == 0) & t1_filter(zbits, pc, t)
    codes = np.zeros((2, len(masks)), dtype=np.int64)  # has_spectrum, tiles
    nodes = np.zeros((2, len(masks)), dtype=np.int64)
    certs = [None] * len(masks)
    mlist = masks.tolist()
    for i in np.flatnonzero(need_spec | need_tile).tolist():
        a = subset(t.modulus, _members(mlist[i], n))
        spec = tile = _SKIPPED
        if need_spec[i]:
            zs = zero_set_from_bits(zbits[:, i], t)
            spec = spectrum_search(a, budget=budget, zeros=zs)
        if need_tile[i]:
            tile = complement_search(a, budget=budget)
        codes[:, i] = _STATUS_CODES[spec.status], _STATUS_CODES[tile.status]
        nodes[:, i] = spec.nodes, tile.nodes
        if spec.status == "found" and tile.status == "none":
            certs[i] = candidate_certificate(
                "non_tile_spectral_candidate", a, spec.witness, seed=cert_seed
            )
        elif tile.status == "found" and spec.status == "none":
            certs[i] = candidate_certificate(
                "non_spectral_tile_candidate", a, tile.witness, seed=cert_seed
            )
    counts = np.bincount(3 * codes[0] + codes[1], minlength=9)
    flagged = [(f"{n}:{m:x}", cert) for m, cert in zip(mlist, certs) if cert is not None]
    if not write:
        return counts, flagged, ""
    keys = map(f"{n}:%x".__mod__, mlist)
    lines = [
        _record_line(n, key, text, size, _WORDS[s], _WORDS[ti], sn, tn, cert)
        for key, text, size, s, ti, sn, tn, cert in zip(
            keys, _member_texts(masks, n), pc.tolist(), *codes.tolist(), *nodes.tolist(), certs
        )
    ]
    return counts, flagged, "\n".join(lines) + "\n"


def _report(config: ScanConfig, counts: np.ndarray, flagged: list) -> ScanReport:
    """The report, read off the 3x3 count of (has_spectrum, tiles) codes."""
    c = counts.reshape(3, 3).tolist()  # c[has_spectrum][tiles]: no, yes, inconclusive
    return ScanReport(
        n=config.n,
        mode=config.mode,
        classes=sum(map(sum, c)),
        spectral=sum(c[1]),
        tiles=sum(row[1] for row in c),
        both=c[1][1],
        neither=c[0][0],
        spectral_only=c[1][0],
        tile_only=c[0][1],
        inconclusive_spectrum=sum(c[2]),
        inconclusive_tile=sum(row[2] for row in c),
        counterexamples=tuple(key for key, _ in flagged),
        certificates=tuple(cert for _, cert in flagged),
        seed=config.seed,
        budget=config.budget,
        sample_count=config.sample_count,
    )


# -- persistence -----------------------------------------------------------


# _record_line's grammar: a line is a record only if the writer could have
# written it, byte for byte.  Groups: certificate, has_spectrum, key, the
# key's modulus and hex mask, spectrum_nodes, tile_nodes, tiles.  Integers
# have no leading zero, n repeats the key's modulus, and a mask has at most
# 16 hex digits, so it fits in 64 bits.  Set texts are not compared with key.
_LINE = re.compile(
    rb'\{(?:"certificate":(\{"checks":\{"[a-z_]+":(?:true|false)(?:,"[a-z_]+":(?:true|false))*\},'
    rb'"kind":"[a-z_]+","n":[1-9][0-9]*,"partner_set":\[[0-9,]+\],"primary_set":\[[0-9,]+\],'
    rb'"seed":(?:0|[1-9][0-9]*|null),"tool_version":"[^"\\]+"\}),)?'
    rb'"has_spectrum":"(no|yes|inconclusive)",'
    rb'"key":"((?P<n>[1-9][0-9]*):([1-9a-f][0-9a-f]{0,15}))","n":(?P=n),"set":\[[0-9,]+\],'
    rb'"size":[1-9][0-9]*,"spectrum_nodes":(0|[1-9][0-9]*),"tile_nodes":(0|[1-9][0-9]*),'
    rb'"tiles":"(no|yes|inconclusive)"\}\n'
)


def _fits(verdict: bytes, nodes: int, budget: int) -> bool:
    # both searches stop at exactly budget + 1 nodes when the budget runs out
    return nodes == budget + 1 if verdict == b"inconclusive" else nodes <= budget


def _load_existing(path: str, config: ScanConfig, counts: np.ndarray, flagged: list) -> np.ndarray:
    """Tally the records on disk and return their masks, in file order.

    The file is read one line at a time; a line is a record only if it
    fullmatches _LINE.  A last line that does not (say, a partial one) is
    truncated so the scan rewrites it; any earlier one is an error.  So is
    a record of another modulus or one whose node counts another budget
    produced: the file is then not this config's record stream (_chunks
    checks the class order).
    """
    if not os.path.exists(path):
        return np.zeros(0, dtype=np.uint64)
    masks = array("Q")
    n_text = str(config.n).encode()
    with open(path, "r+b") as fh:
        offset = 0
        for raw in fh:
            m = _LINE.fullmatch(raw)
            if m is None:
                if fh.readline().endswith(b"\n"):
                    raise ValueError(f"corrupt scan record in {path!r}")
                fh.truncate(offset)  # partial or damaged tail, rewrite from here
                break
            cert, spec, key, modulus, digits, spec_nodes, tile_nodes, tiles = m.groups()
            if not (
                modulus == n_text
                and _fits(spec, int(spec_nodes), config.budget)
                and _fits(tiles, int(tile_nodes), config.budget)
            ):
                raise ValueError(
                    f"cannot resume {path!r}: record {key.decode()} is not from a scan "
                    f"of Z_{config.n} at budget {config.budget}"
                )
            counts[3 * _CODES[spec] + _CODES[tiles]] += 1
            if cert is not None:
                flagged.append((key.decode(), Certificate.from_json(cert.decode())))
            masks.append(int(digits, 16))
            offset += len(raw)
    return np.frombuffer(masks, dtype=np.uint64)


def read_records(path: str) -> list[ScanRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ScanRecord.from_payload(json.loads(line)))
    return out


# -- chunk jobs ------------------------------------------------------------


def _chunks(batches, done: np.ndarray, path: str | None):
    """The class sequence after its prefix done, in chunks of <= CHUNK.

    done must be the sequence's first len(done) classes in order, or the
    record file at path came from another config; that is refused before
    the first chunk is yielded.  A chunk never spans two batches, so at
    most one batch is held at a time.
    """
    k = 0
    for masks in batches:
        head = masks[: len(done) - k]
        if not np.array_equal(head, done[k : k + len(head)]):
            break
        k += len(head)
        masks = masks[len(head) :]
        for i in range(0, len(masks), CHUNK):
            yield masks[i : i + CHUNK]
    if k < len(done):
        raise ValueError(
            f"cannot resume {path!r}: its classes do not start this scan's class sequence"
        )


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
    if config.budget < 0:
        raise ValueError(f"budget must be >= 0, got {config.budget}")
    if config.workers < 1:
        raise ValueError(f"workers must be >= 1, got {config.workers}")
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
    counts = np.zeros(9, dtype=np.int64)
    flagged: list = []
    done = np.zeros(0, dtype=np.uint64)
    if config.out is not None:
        done = _load_existing(config.out, config, counts, flagged)
    if config.mode == "exhaustive":
        batches = _exhaustive_classes(n)
    else:
        batches = [_sample_classes(n, config.sample_count, config.seed)]
    jobs = (
        (n, config.budget, cert_seed, chunk, config.out is not None)
        for chunk in _chunks(batches, done, config.out)
    )

    with ExitStack() as stack:
        out_fh = None
        if config.out is not None:
            out_fh = stack.enter_context(open(config.out, "a", encoding="utf-8"))
        if config.workers == 1:
            results = map(_chunk_worker, jobs)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=config.workers))
            results = _pool_map(pool, jobs, AHEAD * config.workers)
        for part, part_flagged, text in results:
            counts += part
            flagged += part_flagged
            if out_fh is not None:
                out_fh.write(text)
                out_fh.flush()

    report = _report(config, counts, flagged)
    if expected is not None and report.classes != expected:
        raise AssertionError(
            f"exhaustive scan of Z_{n} visited {report.classes} classes, "
            f"Burnside predicts {expected}"
        )
    if config.mode == "sample" and report.classes != config.sample_count:
        raise AssertionError(
            f"sampled scan produced {report.classes} classes, "
            f"requested {config.sample_count}"
        )
    return report
