"""Scan counting, determinism, persistence, resume, and parallel merge."""

from __future__ import annotations

import json
import os

import pytest

from spectile import scan
from spectile.certificates import pair_certificate
from spectile.groupring import subset
from spectile.scan import (
    ScanConfig,
    ScanRecord,
    affine_class_count,
    fuglede_scan,
    read_records,
    scan_class_count,
)
from spectile.spectral import canonical_form

from helpers import affine_orbit_masks


def orbit_count_by_enumeration(n: int) -> int:
    seen: set[int] = set()
    orbits = 0
    for mask in range(1 << n):
        if mask in seen:
            continue
        orbits += 1
        elems = [g for g in range(n) if (mask >> g) & 1]
        seen |= affine_orbit_masks(elems, n)
    return orbits


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_affine_class_count_matches_enumeration(n):
    assert affine_class_count(n) == orbit_count_by_enumeration(n)
    assert scan_class_count(n) == affine_class_count(n) - 3


def test_known_class_counts():
    # frozen from the Burnside count itself after the enumeration cross-check
    assert {n: scan_class_count(n) for n in (8, 12, 16, 18, 20, 24, 27, 30)} == {
        8: 21,
        12: 155,
        16: 690,
        18: 2634,
        20: 7383,
        24: 94481,
        27: 277531,
        30: 4500264,
    }


def test_exhaustive_scan_n12_report():
    r = fuglede_scan(ScanConfig(n=12))
    assert (r.classes, r.spectral, r.tiles, r.both, r.neither) == (155, 20, 20, 20, 135)
    assert r.spectral_only == r.tile_only == 0
    assert r.inconclusive_spectrum == r.inconclusive_tile == 0
    assert r.counterexamples == ()
    assert r.certificates == ()


def test_exhaustive_scan_n8_report():
    r = fuglede_scan(ScanConfig(n=8))
    assert (r.classes, r.both, r.neither) == (21, 6, 15)
    assert r.spectral == r.tiles == 6
    assert r.counterexamples == ()


def test_record_stream_shape(tmp_path):
    out = str(tmp_path / "n12.jsonl")
    fuglede_scan(ScanConfig(n=12, out=out))
    records = read_records(out)
    assert len(records) == 155
    keys = [rec.key for rec in records]
    assert len(set(keys)) == len(keys)
    for rec in records:
        assert rec.n == 12
        assert rec.key == f"12:{sum(1 << g for g in rec.members):x}"
        assert 2 <= rec.size <= 11
        assert rec.size == len(rec.members)
        assert list(rec.members) == sorted(rec.members)
        a = subset(12, rec.members)
        assert canonical_form(a).support == rec.members
        assert rec.has_spectrum in ("yes", "no", "inconclusive")
        assert rec.tiles in ("yes", "no", "inconclusive")


def test_record_json_round_trip(tmp_path):
    out = str(tmp_path / "n8.jsonl")
    fuglede_scan(ScanConfig(n=8, out=out))
    with open(out, encoding="utf-8") as fh:
        for line in fh:
            rec = ScanRecord.from_payload(json.loads(line))
            assert rec.to_json() == line.strip()


def test_repeat_runs_are_byte_identical(tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    ra = fuglede_scan(ScanConfig(n=12, out=a))
    rb = fuglede_scan(ScanConfig(n=12, out=b))
    assert open(a, "rb").read() == open(b, "rb").read()
    assert ra == rb


def test_rerun_over_complete_file_is_idempotent(tmp_path):
    out = str(tmp_path / "n12.jsonl")
    r1 = fuglede_scan(ScanConfig(n=12, out=out))
    data1 = open(out, "rb").read()
    r2 = fuglede_scan(ScanConfig(n=12, out=out))
    assert open(out, "rb").read() == data1
    assert r1 == r2


def test_interrupted_scan_resumes_to_identical_bytes(tmp_path):
    full = str(tmp_path / "full.jsonl")
    fuglede_scan(ScanConfig(n=16, out=full))
    reference = open(full, "rb").read()

    part = str(tmp_path / "part.jsonl")
    with open(part, "wb") as fh:
        fh.write(reference[: len(reference) * 2 // 5])  # cuts mid-line
    report = fuglede_scan(ScanConfig(n=16, out=part))
    assert open(part, "rb").read() == reference
    assert report.classes == 690


def test_in_memory_report_equals_file_backed(tmp_path):
    out = str(tmp_path / "n16.jsonl")
    assert fuglede_scan(ScanConfig(n=16)) == fuglede_scan(ScanConfig(n=16, out=out))


def test_corrupt_middle_line_raises(tmp_path):
    out = str(tmp_path / "n8.jsonl")
    fuglede_scan(ScanConfig(n=8, out=out))
    lines = open(out, "rb").read().splitlines(keepends=True)
    lines[3] = b'{"not a": "scan record"}\n'
    with open(out, "wb") as fh:
        fh.writelines(lines)
    with pytest.raises(ValueError, match="corrupt scan record"):
        fuglede_scan(ScanConfig(n=8, out=out))


def test_damaged_tail_is_rewritten(tmp_path):
    out = str(tmp_path / "n8.jsonl")
    fuglede_scan(ScanConfig(n=8, out=out))
    reference = open(out, "rb").read()
    with open(out, "ab") as fh:
        fh.write(b'{"garbage": true}\n')
    fuglede_scan(ScanConfig(n=8, out=out))
    assert open(out, "rb").read() == reference


def test_sample_mode_is_deterministic(tmp_path):
    cfg = dict(n=30, mode="sample", sample_count=300, seed=11)
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    ra = fuglede_scan(ScanConfig(out=a, **cfg))
    rb = fuglede_scan(ScanConfig(out=b, **cfg))
    assert open(a, "rb").read() == open(b, "rb").read()
    assert ra == rb
    assert ra.classes == 300
    assert ra.counterexamples == ()


def test_sample_mode_resumes_to_identical_bytes(tmp_path):
    cfg = dict(n=30, mode="sample", sample_count=300, seed=11)
    full = str(tmp_path / "full.jsonl")
    fuglede_scan(ScanConfig(out=full, **cfg))
    reference = open(full, "rb").read()
    part = str(tmp_path / "part.jsonl")
    with open(part, "wb") as fh:
        fh.write(reference[: len(reference) // 3])
    fuglede_scan(ScanConfig(out=part, **cfg))
    assert open(part, "rb").read() == reference


def test_different_seeds_sample_different_classes(tmp_path):
    r1 = fuglede_scan(ScanConfig(n=30, mode="sample", sample_count=50, seed=1))
    a = str(tmp_path / "s1.jsonl")
    b = str(tmp_path / "s2.jsonl")
    fuglede_scan(ScanConfig(n=30, mode="sample", sample_count=50, seed=1, out=a))
    fuglede_scan(ScanConfig(n=30, mode="sample", sample_count=50, seed=2, out=b))
    keys_a = {rec.key for rec in read_records(a)}
    keys_b = {rec.key for rec in read_records(b)}
    assert keys_a != keys_b
    assert r1.classes == 50


def test_parallel_scan_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "CHUNK", 128)
    monkeypatch.setattr(scan, "AHEAD", 1)  # 6 chunks through a window of 2
    serial = str(tmp_path / "serial.jsonl")
    parallel = str(tmp_path / "parallel.jsonl")
    r_serial = fuglede_scan(ScanConfig(n=16, out=serial))
    r_parallel = fuglede_scan(ScanConfig(n=16, out=parallel, workers=2))
    assert open(parallel, "rb").read() == open(serial, "rb").read()
    assert r_parallel == r_serial
    # records go straight into the output file: no scratch files beside it
    assert sorted(os.listdir(tmp_path)) == ["parallel.jsonl", "serial.jsonl"]


def test_parallel_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "CHUNK", 128)
    full = str(tmp_path / "full.jsonl")
    r_full = fuglede_scan(ScanConfig(n=16, out=full))
    reference = open(full, "rb").read()
    part = str(tmp_path / "resume.jsonl")
    with open(part, "wb") as fh:
        fh.write(reference[: len(reference) // 2])
    r_part = fuglede_scan(ScanConfig(n=16, out=part, workers=2))
    assert open(part, "rb").read() == reference
    assert r_part == r_full


def test_serial_resume_cut_inside_a_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(scan, "CHUNK", 100)
    full = str(tmp_path / "full.jsonl")
    r_full = fuglede_scan(ScanConfig(n=16, out=full))
    reference = open(full, "rb").read()
    # end the cut 250 records in, half way through the third chunk, mid-line
    cut = sum(len(ln) for ln in reference.splitlines(keepends=True)[:250]) + 20
    part = str(tmp_path / "part.jsonl")
    with open(part, "wb") as fh:
        fh.write(reference[:cut])
    assert fuglede_scan(ScanConfig(n=16, out=part)) == r_full
    assert open(part, "rb").read() == reference


def test_tally_merge_appends_flagged_classes_in_order():
    # no scanned modulus has a counterexample, so flag records by hand
    cert = pair_certificate("tiling_pair", subset(9, [0, 3, 6]), subset(9, [0, 1, 2]))
    total = scan._Tally()
    for key in ("9:49", "9:7"):
        part = scan._Tally()
        part.add(ScanRecord(9, key, (0, 3, 6), 3, "no", "yes", 1, 1, cert))
        total.merge(part)
    assert (total.classes, total.tiles, total.tile_only) == (2, 2, 2)
    assert total.counterexamples == ["9:49", "9:7"]
    assert total.certificates == [cert, cert]


def test_config_validation(tmp_path):
    with pytest.raises(ValueError, match="scan supports"):
        fuglede_scan(ScanConfig(n=61))
    with pytest.raises(ValueError, match="scan supports"):
        fuglede_scan(ScanConfig(n=1))
    with pytest.raises(ValueError, match="unknown mode"):
        fuglede_scan(ScanConfig(n=8, mode="stochastic"))
    with pytest.raises(ValueError, match="sample_count"):
        fuglede_scan(ScanConfig(n=8, mode="sample"))
    with pytest.raises(ValueError, match="exceeds the 21 classes"):
        fuglede_scan(ScanConfig(n=8, mode="sample", sample_count=22))
    # a pool needs no output file: the records come back to the parent
    assert fuglede_scan(ScanConfig(n=12, workers=2)) == fuglede_scan(ScanConfig(n=12))
    with pytest.raises(ValueError, match="ceiling"):
        fuglede_scan(ScanConfig(n=30))


def test_budget_exhaustion_reports_inconclusive():
    r = fuglede_scan(ScanConfig(n=8, budget=1))
    assert r.inconclusive_spectrum + r.inconclusive_tile > 0
    assert r.counterexamples == ()
