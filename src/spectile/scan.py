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

Persistence is an append-only file of one JSON record per line, keyed by
modulus and canonical mask.  Resuming re-derives the class sequence, skips
keys already present (after truncating a partially written trailing line),
and appends the rest, so an interrupted-and-resumed scan converges to the
same bytes as an uninterrupted one.  With several workers the remaining
classes are cut into deterministic chunks, each worker writes its chunk to
a part file with a completion sentinel, and the parts are merged in chunk
order at the end; part files named for a different chunk fingerprint are
ignored, so stale scratch cannot corrupt a scan.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import __version__
from .certificates import Certificate, candidate_certificate
from .fastscan import (
    MAX_SCAN_N,
    batch_verdicts,
    canonical_filter,
    canonicalize_batch,
    modulus_tables,
)
from .groupring import subset

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


@dataclass(frozen=True)
class ScanConfig:
    n: int
    mode: str = "exhaustive"  # exhaustive | sample
    sample_count: int = 0  # distinct classes to sample (sample mode only)
    seed: int = 0
    budget: int = 10**6  # node budget per search per class
    out: str | None = None
    workers: int = 1
    chunk_size: int = 1 << 14  # classes per worker chunk
    class_ceiling: int = 500_000  # exhaustive refuses above this many classes
    batch: int = 1 << 17  # enumeration batch (memory knob, never affects output)


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

    def payload(self) -> dict:
        out = {
            "key": self.key,
            "n": self.n,
            "set": list(self.members),
            "size": self.size,
            "has_spectrum": self.has_spectrum,
            "tiles": self.tiles,
            "spectrum_nodes": self.spectrum_nodes,
            "tile_nodes": self.tile_nodes,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.payload()
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

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


def _exhaustive_classes(n: int, batch: int):
    """Ascending canonical masks with 0 in the set and size in [2, n-1].

    Only odd masks from 3 up to 2^(n-1) are generated: a canonical set holds
    0 and, unless it is all of Z_n, not n-1 (see fastscan._run_survivors),
    so these are exactly the candidates of size 2 to n-1.
    """
    t = modulus_tables(n)
    half = 1 << (n - 1)
    for start in range(0, half, batch):
        stop = min(start + batch, half)
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


def _records_for(n: int, masks: np.ndarray, budget: int, cert_seed) -> list[ScanRecord]:
    t = modulus_tables(n)
    out = []
    for v in batch_verdicts(masks, t, budget):
        cert = None
        if v.has_spectrum == "yes" and v.tiles == "no":
            a = subset(n, [g for g in range(n) if (v.mask >> g) & 1])
            cert = candidate_certificate(
                "non_tile_spectral_candidate",
                a,
                subset(n, v.spectrum_witness),
                seed=cert_seed,
            )
        elif v.tiles == "yes" and v.has_spectrum == "no":
            a = subset(n, [g for g in range(n) if (v.mask >> g) & 1])
            cert = candidate_certificate(
                "non_spectral_tile_candidate",
                a,
                subset(n, v.tile_witness),
                seed=cert_seed,
            )
        out.append(
            ScanRecord(
                n=n,
                key=f"{n}:{v.mask:x}",
                members=tuple(g for g in range(n) if (v.mask >> g) & 1),
                size=v.size,
                has_spectrum=v.has_spectrum,
                tiles=v.tiles,
                spectrum_nodes=v.spectrum_nodes,
                tile_nodes=v.tile_nodes,
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


# -- persistence -----------------------------------------------------------


def _load_existing(path: str) -> tuple[set[str], list[ScanRecord]]:
    """Keys and records already on disk, truncating a partial trailing line."""
    if not os.path.exists(path):
        return set(), []
    with open(path, "rb") as fh:
        data = fh.read()
    keep = len(data)
    if data and not data.endswith(b"\n"):
        keep = data.rfind(b"\n") + 1
    records: list[ScanRecord] = []
    keys: set[str] = set()
    offset = 0
    for raw in data[:keep].splitlines(keepends=True):
        try:
            rec = ScanRecord.from_payload(json.loads(raw))
        except (json.JSONDecodeError, KeyError, TypeError):
            if offset + len(raw) == keep:
                keep = offset  # damaged tail, rewrite from here
                break
            raise ValueError(f"corrupt scan record in {path!r}") from None
        records.append(rec)
        keys.add(rec.key)
        offset += len(raw)
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return keys, records


def read_records(path: str) -> list[ScanRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ScanRecord.from_payload(json.loads(line)))
    return out


# -- worker chunks ---------------------------------------------------------


def _chunk_id(n: int, budget: int, cert_seed, chunk: np.ndarray) -> str:
    h = hashlib.sha1()
    h.update(f"{__version__}|{n}|{budget}|{cert_seed}|".encode())
    h.update(chunk.tobytes())
    return h.hexdigest()[:12]


def _part_path(out: str, index: int, chunk_id: str) -> str:
    return f"{out}.part-{index:05d}-{chunk_id}"


def _write_part(path: str, chunk_id: str, records: list[ScanRecord]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
        fh.write(
            json.dumps(
                {"part_done": chunk_id, "records": len(records)},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
    os.replace(tmp, path)


def _read_part(path: str, chunk_id: str) -> list[ScanRecord] | None:
    """Records of a completed part file, or None if absent or incomplete."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines:
            return None
        sentinel = json.loads(lines[-1])
        if sentinel.get("part_done") != chunk_id:
            return None
        if sentinel.get("records") != len(lines) - 1:
            return None
        return [ScanRecord.from_payload(json.loads(ln)) for ln in lines[:-1]]
    except (json.JSONDecodeError, KeyError, TypeError, OSError):
        return None


def _chunk_worker(args) -> str:
    n, budget, cert_seed, chunk_bytes, path, chunk_id = args
    chunk = np.frombuffer(chunk_bytes, dtype=np.uint64)
    if _read_part(path, chunk_id) is None:
        _write_part(path, chunk_id, _records_for(n, chunk, budget, cert_seed))
    return path


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
    if config.workers > 1 and config.out is None:
        raise ValueError("parallel scans need an output path for part files")

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
    done_keys: set[str] = set()
    out_fh = None
    if config.out is not None:
        done_keys, old_records = _load_existing(config.out)
        for rec in old_records:
            tally.add(rec)
        out_fh = open(config.out, "a", encoding="utf-8")

    if config.mode == "exhaustive":
        batches = _exhaustive_classes(n, config.batch)
    else:
        all_masks = _sample_classes(n, config.sample_count, config.seed)
        batches = (
            all_masks[i : i + config.batch]
            for i in range(0, len(all_masks), config.batch)
        )

    try:
        if config.workers <= 1:
            for masks in batches:
                if done_keys:
                    fresh = np.array(
                        [m for m in masks.tolist() if f"{n}:{m:x}" not in done_keys],
                        dtype=np.uint64,
                    )
                else:
                    fresh = masks
                if not len(fresh):
                    continue
                for rec in _records_for(n, fresh, config.budget, cert_seed):
                    tally.add(rec)
                    if out_fh is not None:
                        out_fh.write(rec.to_json() + "\n")
                if out_fh is not None:
                    out_fh.flush()
        else:
            remaining = [
                m
                for masks in batches
                for m in masks.tolist()
                if f"{n}:{m:x}" not in done_keys
            ]
            chunks = [
                np.array(remaining[i : i + config.chunk_size], dtype=np.uint64)
                for i in range(0, len(remaining), config.chunk_size)
            ]
            jobs = []
            for i, chunk in enumerate(chunks):
                cid = _chunk_id(n, config.budget, cert_seed, chunk)
                jobs.append(
                    (n, config.budget, cert_seed, chunk.tobytes(),
                     _part_path(config.out, i, cid), cid)
                )
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                list(pool.map(_chunk_worker, jobs))
            for (_, _, _, _, path, cid) in jobs:
                records = _read_part(path, cid)
                if records is None:
                    raise RuntimeError(f"worker part {path!r} missing or invalid")
                for rec in records:
                    tally.add(rec)
                    out_fh.write(rec.to_json() + "\n")
                out_fh.flush()
            for (_, _, _, _, path, _) in jobs:
                os.remove(path)
            prefix = os.path.basename(config.out) + ".part-"
            out_dir = os.path.dirname(os.path.abspath(config.out))
            for name in os.listdir(out_dir):
                if name.startswith(prefix):
                    os.remove(os.path.join(out_dir, name))
    finally:
        if out_fh is not None:
            out_fh.close()

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
