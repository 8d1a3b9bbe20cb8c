"""Whole-modulus scan operations and the checks run on their record files.

A scan's verdicts are checked through a digest of the sorted
(key, has_spectrum, tiles) triples read back from its record file.  The
digest ignores node counts, extra fields and record order, so format changes
that keep every verdict keep the digest.
"""

from __future__ import annotations

import dataclasses
import filecmp
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass

SPOT_CHECKS = 40  # records per scan re-decided through the single-set API


@dataclass
class ScanOp:
    """One timed scan request and what it left behind."""

    report: object
    path: str
    scan_s: float
    resume_s: float = 0.0
    resumed_path: str | None = None
    resumed_report: object = None
    bytes_written: int = 0

    @property
    def latency_s(self) -> float:
        return self.scan_s + self.resume_s


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def exhaustive_op(lib, work: str, n: int, tag: int) -> ScanOp:
    path = os.path.join(work, f"exhaustive-{n}-{tag}.jsonl")
    _remove(path)
    config = lib.scan.ScanConfig(n=n, out=path)
    t0 = time.perf_counter()
    report = lib.scan.fuglede_scan(config)
    scan_s = time.perf_counter() - t0
    return ScanOp(report, path, scan_s, bytes_written=os.path.getsize(path))


def cut_offset(size: int, seed: int) -> int:
    """Seeded byte offset near the middle, so resumes do similar work."""
    return int(size * random.Random(seed).uniform(0.49, 0.51))


def sample_op(lib, work: str, n: int, count: int, seed: int, workers: int,
              tag: int) -> ScanOp:
    """A fresh sampled scan, then a resume of a copy cut at a seeded offset."""
    path = os.path.join(work, f"sample-{n}-{tag}.jsonl")
    resumed = os.path.join(work, f"sample-{n}-{tag}-resumed.jsonl")
    _remove(path)
    _remove(resumed)
    config = lib.scan.ScanConfig(
        n=n, mode="sample", sample_count=count, seed=seed, workers=workers, out=path
    )
    t0 = time.perf_counter()
    report = lib.scan.fuglede_scan(config)
    scan_s = time.perf_counter() - t0

    with open(path, "rb") as fh:
        data = fh.read()
    cut = cut_offset(len(data), seed)
    with open(resumed, "wb") as fh:
        fh.write(data[:cut])
    t1 = time.perf_counter()
    resumed_report = lib.scan.fuglede_scan(dataclasses.replace(config, out=resumed))
    resume_s = time.perf_counter() - t1
    written = len(data) + os.path.getsize(resumed) - cut
    return ScanOp(report, path, scan_s, resume_s, resumed, resumed_report, written)


def read_summary(path: str) -> tuple[str, dict, list[str], list[str]]:
    """Digest, verdict tallies, the record lines, and format problems of a file."""
    triples = []
    lines = []
    problems = []
    tally = {"spectral": 0, "tiles": 0, "both": 0}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key, spec, tile = rec["key"], rec["has_spectrum"], rec["tiles"]
            triples.append(f"{key} {spec} {tile}\n")
            lines.append(line)
            n_text, _, mask_hex = key.partition(":")
            mask = int(mask_hex, 16)
            members = [g for g in range(int(n_text)) if (mask >> g) & 1]
            if rec["set"] != members:
                problems.append(f"record {key}: set {rec['set']} does not match key")
            tally["spectral"] += spec == "yes"
            tally["tiles"] += tile == "yes"
            tally["both"] += spec == "yes" and tile == "yes"
    triples.sort()
    if len({t.split(" ", 1)[0] for t in triples}) != len(triples):
        problems.append("duplicate keys in record file")
    digest = hashlib.sha256("".join(triples).encode()).hexdigest()
    return digest, tally, lines, problems


_STATUS = {"found": "yes", "none": "no", "exhausted": "inconclusive"}


def spot_check(lib, lines: list[str], rng: random.Random, budget: int) -> list[str]:
    """Re-decide a few records through the single-set API route.

    Scans take their zero sets from the vectorized class matrix and skip the
    searches' entry checks; the API computes the zero set exactly and runs
    the searches from the top.  The verdicts must agree (node counts may not:
    a scan may settle a class without searching), and the record's set must
    be its own affine canonical form.
    """
    out = []
    for line in rng.sample(lines, min(SPOT_CHECKS, len(lines))):
        rec = json.loads(line)
        a = lib.groupring.subset(rec["n"], rec["set"])
        if lib.spectral.canonical_form(a).support != a.support:
            out.append(f"record {rec['key']}: set is not canonical")
        spec = lib.spectral.spectrum_search(a, budget=budget)
        tile = lib.tiling.complement_search(a, budget=budget)
        got = (_STATUS[spec.status], _STATUS[tile.status])
        want = (rec["has_spectrum"], rec["tiles"])
        if got != want:
            out.append(f"record {rec['key']}: API gives {got}, record has {want}")
    return out


def check_scan(lib, report, path: str, classes: int, pin: str | None,
               rng: random.Random) -> list[str]:
    """Everything that must hold for one scan's report and record file."""
    problems = []
    if report.classes != classes:
        problems.append(f"{report.classes} classes, expected {classes}")
    if not report.spectral == report.tiles == report.both:
        problems.append(
            f"spectral={report.spectral} tiles={report.tiles} both={report.both}"
        )
    if report.counterexamples:
        problems.append(f"counterexamples: {list(report.counterexamples)}")
    if report.inconclusive_spectrum or report.inconclusive_tile:
        problems.append(
            f"inconclusive: spectrum {report.inconclusive_spectrum}, "
            f"tile {report.inconclusive_tile}"
        )
    digest, tally, lines, file_problems = read_summary(path)
    problems += file_problems
    if len(lines) != report.classes:
        problems.append(f"file holds {len(lines)} records, report {report.classes}")
    want = {"spectral": report.spectral, "tiles": report.tiles, "both": report.both}
    if tally != want:
        problems.append(f"file tallies {tally}, report {want}")
    if pin is not None and digest != pin:
        problems.append(f"verdict digest {digest[:16]} differs from the pinned one")
    problems += spot_check(lib, lines, rng, report.budget)
    return problems


def check_resume(op: ScanOp) -> list[str]:
    problems = []
    if not filecmp.cmp(op.path, op.resumed_path, shallow=False):
        problems.append("resumed record file differs from the fresh one")
    if op.resumed_report != op.report:
        problems.append("resumed report differs from the fresh one")
    return problems
