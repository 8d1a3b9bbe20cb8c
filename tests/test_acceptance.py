"""End-to-end acceptance gate.

One test per criterion, each printing a single PASS/FAIL line (run with -s
to see them on success).  Every scan is recomputed from scratch, including
the full pass over all 4,500,264 classes of Z_30, so this module takes a
few minutes on one core.  `spectile scan --n 30 --ceiling 4500264 --out F`
runs the same Z_30 scan standalone with a persistent record file.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from spectile.groupring import is_char_zero, multiset, subset, zero_set
from spectile.pnqr import digit_span
from spectile.scan import (
    ScanConfig,
    ScanRecord,
    fuglede_scan,
    read_records,
    scan_class_count,
)
from spectile.spectral import is_spectral_pair
from spectile.suites import lemma28_brute_instances, run_suite
from spectile.tiling import cm_spectrum, t1_t2_check

from helpers import is_char_zero_numeric

DESK_MODULI = (8, 12, 16, 18, 20, 24, 27)


def _verdict(name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def _clean(report) -> bool:
    ok = report.counterexamples == ()
    ok &= report.spectral_only == 0 and report.tile_only == 0
    ok &= report.inconclusive_spectrum == 0 and report.inconclusive_tile == 0
    ok &= report.spectral == report.tiles == report.both
    return ok


@pytest.fixture(scope="session")
def desk_scans(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk-scans")
    results = {}
    start = time.monotonic()
    for n in DESK_MODULI:
        out = str(base / f"n{n:02d}.jsonl")
        results[n] = (fuglede_scan(ScanConfig(n=n, out=out)), out)
    return results, time.monotonic() - start


@pytest.fixture(scope="session")
def n30_scan(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("n30-scan") / "n30.jsonl")
    total = scan_class_count(30)
    report = fuglede_scan(ScanConfig(n=30, out=out, class_ceiling=total))
    return report, out


def test_criterion_01_exhaustive_desk_scans(desk_scans):
    results, elapsed = desk_scans
    ok = elapsed < 600.0
    for n in DESK_MODULI:
        report, _ = results[n]
        ok &= report.classes == scan_class_count(n)
        ok &= _clean(report)
    assert _verdict(
        "criterion 1: exhaustive scans N in {8,12,16,18,20,24,27}, "
        f"zero counterexamples in {elapsed:.0f}s",
        ok,
    )


def test_criterion_02_n30_scan(n30_scan):
    report, _ = n30_scan
    ok = report.classes == scan_class_count(30) == 4_500_264
    ok &= report.spectral == report.tiles == 629
    ok &= _clean(report)

    start = time.monotonic()
    sampled = fuglede_scan(
        ScanConfig(n=30, mode="sample", sample_count=10**6, seed=20260823)
    )
    elapsed = time.monotonic() - start
    ok &= elapsed < 600.0
    ok &= sampled.classes == 10**6
    ok &= sampled.spectral == sampled.tiles == 284
    ok &= _clean(sampled)
    assert _verdict(
        "criterion 2: exhaustive N=30 scan (4500264 classes) and sampled "
        f"mode (10^6 classes, fixed seed, {elapsed:.0f}s), zero "
        "counterexamples in either",
        ok,
    )


def test_criterion_03_character_zero_oracle():
    rng = random.Random(20260823)
    checked = 0
    agree = 0
    while checked < 10**4:
        n = rng.randint(2, 210)
        if rng.random() < 0.5:
            d = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            shift = rng.randrange(n)
            x = multiset(
                n, [((shift + j * (n // d)) % n, rng.randint(1, 3)) for j in range(d)]
            )
        else:
            support = rng.sample(range(n), rng.randint(1, min(n, 24)))
            x = multiset(n, [(g, rng.randint(1, 3)) for g in support])
        g = rng.randrange(n)
        checked += 1
        if is_char_zero(x, g) == is_char_zero_numeric(x.coeffs, n, g):
            agree += 1
    assert _verdict(
        f"criterion 3: exact vs 60-digit numeric character zero, "
        f"{agree}/{checked} agree (N <= 210)",
        agree == checked,
    )


def test_criterion_04_prime_power_vanishing():
    ok = True
    for p, n in ((2, 4), (3, 3), (5, 2)):
        rep = run_suite("lemma27", {"p": p, "n": n}, trials=10**4, seed=4)
        ok &= rep.ok and rep.counter("agreements") == 10**4
    assert _verdict(
        "criterion 4: vanishing criterion vs generic reduction, "
        "10^4 vectors each for (2,4),(3,3),(5,2)",
        ok,
    )


def test_criterion_05_class_predicates():
    ok = True
    for n in (60, 90, 120):
        rep = run_suite("coro32", {"n": n}, trials=10**3, seed=5)
        ok &= rep.ok and rep.counter("agreements") == rep.instances
    assert _verdict(
        "criterion 5: grid class predicates vs membership, "
        "10^3 subsets each of Z_60, Z_90, Z_120",
        ok,
    )


def test_criterion_06_grid_implications():
    rep = run_suite("lemma33", {"n": 60}, trials=200, seed=6)
    ok = rep.ok and all(
        rep.counter(f"case_{cid}_accepted") >= 200 for cid in range(1, 8)
    )
    assert _verdict(
        "criterion 6: conditional grid identities, >= 200 accepted "
        "instances per case over Z_60",
        ok,
    )


def test_criterion_07_digit_set_rigidity():
    ok = True
    for p, n, t in ((2, 3, 2), (2, 4, 2), (3, 3, 2)):
        rep = run_suite("lemma28", {"p": p, "n": n, "t": t}, trials=1, seed=7)
        brute = lemma28_brute_instances(p, n, t)
        ok &= rep.ok
        ok &= rep.instances == len(brute) > 0
        ok &= all(matches for _, _, matches in brute)
        ok &= all(v == digit_span(p, n, pos) for pos, v, _ in brute)
    assert _verdict(
        "criterion 7: digit-set rigidity exhaustive for "
        "(2,3,2),(2,4,2),(3,3,2)",
        ok,
    )


def _tile_records(path):
    with open(path) as fh:
        for line in fh:
            if '"tiles":"yes"' in line:
                yield ScanRecord.from_payload(json.loads(line))


def test_criterion_08_tiles_satisfy_t1_t2(desk_scans, n30_scan):
    results, _ = desk_scans
    paths = [path for _, path in results.values()] + [n30_scan[1]]
    tiles_seen = 0
    ok = True
    for path in paths:
        for rec in _tile_records(path):
            tiles_seen += 1
            a = subset(rec.n, rec.members)
            data = t1_t2_check(a)
            ok &= data.t1_holds and data.t2_holds
            b = cm_spectrum(a)
            ok &= is_spectral_pair(a, b).is_pair
    ok &= tiles_seen == 351 + 629
    assert _verdict(
        f"criterion 8: all {tiles_seen} tiles from exhaustive scans "
        "(N <= 30) pass T1 and T2 and their induced spectrum validates",
        ok,
    )


def test_criterion_09_profile_complement():
    rep = run_suite("sec41", {"n": 60}, trials=200, seed=9)
    ok = rep.ok and rep.counter("applicable") == rep.instances == 200
    assert _verdict(
        "criterion 9: profile complement construction on 200 Z_60 spectral "
        "pairs incl. the subgroup worked example",
        ok,
    )


def test_criterion_10_transfer_implication():
    rep30 = run_suite("lemma41", {"n": 30}, trials=1, seed=10)
    rep60 = run_suite("lemma41", {"n": 60, "mode": "sample"}, trials=10**3, seed=10)
    ok = rep30.ok and rep60.ok
    ok &= rep30.counter("vacuous_pairs") + rep30.counter("nonvacuous_pairs") > 0
    ok &= rep60.counter("nonvacuous_pairs") > 0
    assert _verdict(
        "criterion 10: zero-set transfer implication, exhaustive N=30 "
        f"(vacuous={rep30.counter('vacuous_pairs')}, "
        f"nonvacuous={rep30.counter('nonvacuous_pairs')}) and 10^3 sampled "
        f"N=60 pairs (vacuous={rep60.counter('vacuous_pairs')}, "
        f"nonvacuous={rep60.counter('nonvacuous_pairs')})",
        ok,
    )


def test_criterion_11_determinism_and_resume(tmp_path):
    first = str(tmp_path / "first.jsonl")
    second = str(tmp_path / "second.jsonl")
    r1 = fuglede_scan(ScanConfig(n=18, out=first))
    r2 = fuglede_scan(ScanConfig(n=18, out=second))
    reference = open(first, "rb").read()
    ok = reference == open(second, "rb").read() and r1 == r2

    resumed = str(tmp_path / "resumed.jsonl")
    with open(resumed, "wb") as fh:
        fh.write(reference[: len(reference) // 3])
    r3 = fuglede_scan(ScanConfig(n=18, out=resumed))
    ok &= open(resumed, "rb").read() == reference and r3 == r1

    sampled_cfg = dict(n=30, mode="sample", sample_count=2000, seed=11)
    s_full = str(tmp_path / "sample-full.jsonl")
    s_res = str(tmp_path / "sample-resumed.jsonl")
    fuglede_scan(ScanConfig(out=s_full, **sampled_cfg))
    sample_ref = open(s_full, "rb").read()
    with open(s_res, "wb") as fh:
        fh.write(sample_ref[: len(sample_ref) * 2 // 5])
    fuglede_scan(ScanConfig(out=s_res, **sampled_cfg))
    ok &= open(s_res, "rb").read() == sample_ref

    assert _verdict(
        "criterion 11: repeated and interrupted-then-resumed scans are "
        "byte-identical",
        ok,
    )
