"""Scan counting, records, certificates, persistence, resume, parallel merge."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from spectile import scan
from spectile.certificates import replay
from spectile.fastscan import canonicalize_batch, modulus_tables
from spectile.groupring import subset
from spectile.scan import (
    ScanConfig,
    ScanRecord,
    affine_class_count,
    fuglede_scan,
    read_records,
    scan_class_count,
)
from spectile.spectral import SearchResult, canonical_form, spectrum_search
from spectile.tiling import complement_search

from helpers import affine_orbit_masks

_STATUS = {"found": "yes", "none": "no", "exhausted": "inconclusive"}


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


def flagging_scan(monkeypatch, patched: str, out: str, workers: int = 1):
    """Scan Z_8 to out with one search patched to answer "none" every time.

    No scanned modulus has a counterexample, so this is how the scan's
    certificate path gets exercised: every class the other search settles
    with "yes" is flagged.
    """
    with monkeypatch.context() as mp:
        mp.setattr(scan, patched, lambda *args, **kwargs: SearchResult("none", None, 0))
        return fuglede_scan(ScanConfig(n=8, out=out, workers=workers))


# record files written once for the round-trip and byte-pin tests
RECORD_CONFIGS = {
    "n8": ScanConfig(n=8),
    "n12": ScanConfig(n=12),
    "n12-budget1": ScanConfig(n=12, budget=1),
    "n21": ScanConfig(n=21),
    "n30-sample": ScanConfig(n=30, mode="sample", sample_count=2000, seed=0),
    "n41-sample": ScanConfig(n=41, mode="sample", sample_count=200, seed=0),
    "n60-sample": ScanConfig(n=60, mode="sample", sample_count=200, seed=0),
}


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("records")
    for name, config in RECORD_CONFIGS.items():
        fuglede_scan(replace(config, out=str(root / name)))
    return root


def test_record_json_round_trip(record_files, tmp_path, monkeypatch):
    paths = {name: record_files / name for name in RECORD_CONFIGS}
    paths["flagged"] = tmp_path / "flagged"
    flagging_scan(monkeypatch, "complement_search", str(paths["flagged"]))
    texts = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            texts[name] = fh.read()
        for line in texts[name].splitlines(keepends=True):
            assert scan._LINE.fullmatch(line.encode()), line  # resume reads it as a record
            payload = json.loads(line)
            assert line == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            rec = ScanRecord.from_payload(payload)
            assert rec.to_json() + "\n" == line
            mask = int(rec.key.split(":")[1], 16)
            assert list(rec.members) == [g for g in range(rec.n) if mask >> g & 1]
            assert rec.size == len(rec.members)
    assert '"inconclusive"' in texts["n12-budget1"]
    assert '"certificate"' in texts["flagged"]


def test_record_files_are_byte_pinned(record_files):
    # any change to these bytes is a record format change: bump the version
    pinned = {
        "n21": "9730b1e29fadf06769c41814dc5b5e2c779210b898720bc57a263927a48f4e93",
        "n30-sample": "a20c57bf63cad2e7274245cac75e99a70ac66ac4afd6555173bc0625e84a088b",
        "n41-sample": "9c7199e0155bb6eee6403ebf0b6406fbf5d8423c214748a0c1d8bf565ea534dc",
        "n60-sample": "fb46b27bcdb1d1dbfb764100234e6518d80c59c810c46bf15de70e6b5f30e935",
    }
    digests = {
        name: hashlib.sha256((record_files / name).read_bytes()).hexdigest() for name in pinned
    }
    assert digests == pinned


def test_member_texts_match_joined_members():
    for n in range(2, 61):
        full = (1 << n) - 1
        high = full & ~((1 << 30) - 1)  # members only at or above bit 30
        draws = np.random.default_rng(n).integers(1, 1 << 62, size=250, dtype=np.uint64).tolist()
        masks = [1 << g for g in range(n)] + [full]
        masks += [m & full for m in draws[:200]] + [m & high for m in draws[200:]]
        masks = [m for m in masks if m]
        texts = scan._member_texts(np.array(masks, dtype=np.uint64), n)
        assert texts == [",".join(map(str, scan._members(m, n))) for m in masks], n


@pytest.mark.parametrize(
    "patched, kind, search, verdict",
    [
        ("complement_search", "non_tile_spectral_candidate", spectrum_search, "has_spectrum"),
        ("spectrum_search", "non_spectral_tile_candidate", complement_search, "tiles"),
    ],
    ids=["spectral-only", "tile-only"],
)
def test_scan_certifies_one_sided_classes(tmp_path, monkeypatch, patched, kind, search, verdict):
    out = str(tmp_path / "flagged.jsonl")
    report = flagging_scan(monkeypatch, patched, out)
    records = read_records(out)
    flagged = [rec for rec in records if getattr(rec, verdict) == "yes"]
    assert len(flagged) == 6
    assert all(rec.certificate is None for rec in records if rec not in flagged)
    assert report.counterexamples == tuple(rec.key for rec in flagged)
    assert report.certificates == tuple(rec.certificate for rec in flagged)
    for rec in flagged:
        cert = rec.certificate
        assert (cert.kind, cert.n, cert.seed) == (kind, 8, None)
        assert cert.primary_set == rec.members
        assert cert.partner_set == search(subset(8, rec.members)).witness.support
        assert replay(cert)
    with open(out, encoding="utf-8") as fh:
        assert [rec.to_json() + "\n" for rec in records] == fh.readlines()


def canonical_sample(n: int, count: int, seed: int) -> np.ndarray:
    """Distinct canonical masks with sizes in [2, n-1]."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(1, 1 << n, size=4000, dtype=np.uint64)
    cm = np.unique(canonicalize_batch(raw, modulus_tables(n)))
    pc = np.bitwise_count(cm)
    return cm[(pc >= 2) & (pc <= n - 1)][:count]


def assert_records_match_searches(n: int, masks: np.ndarray, budget: int) -> None:
    _, _, text = scan._chunk_worker((n, budget, None, masks, True))
    records = [ScanRecord.from_payload(json.loads(line)) for line in text.splitlines()]
    assert [rec.key for rec in records] == [f"{n}:{m:x}" for m in masks.tolist()]
    for rec in records:
        a = subset(n, rec.members)
        rs = spectrum_search(a, budget=budget)
        rt = complement_search(a, budget=budget)
        assert rec.size == len(a.support)
        assert rec.has_spectrum == _STATUS[rs.status]
        assert rec.tiles == _STATUS[rt.status]
        assert rec.spectrum_nodes == rs.nodes
        assert rec.tile_nodes == rt.nodes


@pytest.mark.parametrize("n", [12, 18, 30])
def test_records_match_searches(n):
    assert_records_match_searches(n, canonical_sample(n, 100, seed=5), 10**6)


def test_records_respect_budget():
    assert_records_match_searches(24, canonical_sample(24, 60, seed=11), 2)


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


def _reserialized(line):
    """The same record, as json.dumps writes it with default separators."""
    return (json.dumps(json.loads(line)) + "\n").encode()


def _with_field(key, value):
    """Damage a record line by setting one field to a mistyped value."""
    return lambda line: (json.dumps({**json.loads(line), key: value}) + "\n").encode()


@pytest.mark.parametrize(
    "damage",
    [
        lambda line: b'{"not a": "scan record"}\n',
        _with_field("key", 11),
        _with_field("spectrum_nodes", "x"),
        _with_field("key", "8:zz"),
        _reserialized,
    ],
    ids=["not-a-record", "int-key", "str-nodes", "non-hex-key", "reserialized"],
)
def test_corrupt_middle_line_raises(tmp_path, damage):
    out = str(tmp_path / "n8.jsonl")
    fuglede_scan(ScanConfig(n=8, out=out))
    lines = open(out, "rb").read().splitlines(keepends=True)
    lines[3] = damage(lines[3])
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


def test_reserialized_tail_is_rewritten(tmp_path):
    # valid JSON holding the right fields is still not a line the writer wrote
    out = str(tmp_path / "n12.jsonl")
    fuglede_scan(ScanConfig(n=12, out=out))
    reference = open(out, "rb").read()
    lines = reference.splitlines(keepends=True)[:60]
    lines[-1] = _reserialized(lines[-1])
    with open(out, "wb") as fh:
        fh.writelines(lines)
    fuglede_scan(ScanConfig(n=12, out=out))
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
def test_flagged_classes_stay_in_file_order(tmp_path, monkeypatch, workers, resumed):
    monkeypatch.setattr(scan, "CHUNK", 4)  # 21 classes of Z_8 in 6 chunks
    out = str(tmp_path / "flagged.jsonl")
    full = flagging_scan(monkeypatch, "complement_search", out)
    if resumed:
        reference = open(out, "rb").read()
        with open(out, "wb") as fh:
            fh.write(reference[: len(reference) // 2])  # cuts mid-line
    report = flagging_scan(monkeypatch, "complement_search", out, workers=workers)
    records = read_records(out)
    flagged = [rec for rec in records if rec.certificate is not None]
    assert len(flagged) == 6
    assert report.counterexamples == tuple(rec.key for rec in flagged)
    assert report.certificates == tuple(rec.certificate for rec in flagged)
    assert report == full


def recount(records: list[ScanRecord]) -> dict:
    """The report's counts, recomputed from the records' verdict pairs."""
    pairs = [(rec.has_spectrum, rec.tiles) for rec in records]
    return {
        "classes": len(pairs),
        "spectral": sum(s == "yes" for s, _ in pairs),
        "tiles": sum(t == "yes" for _, t in pairs),
        "both": pairs.count(("yes", "yes")),
        "neither": pairs.count(("no", "no")),
        "spectral_only": pairs.count(("yes", "no")),
        "tile_only": pairs.count(("no", "yes")),
        "inconclusive_spectrum": sum(s == "inconclusive" for s, _ in pairs),
        "inconclusive_tile": sum(t == "inconclusive" for _, t in pairs),
        "counterexamples": tuple(rec.key for rec in records if rec.certificate),
    }


def test_report_counts_match_record_pairs(tmp_path, monkeypatch):
    reports = {
        "n12": fuglede_scan(ScanConfig(n=12, out=str(tmp_path / "n12"))),
        "n12-budget1": fuglede_scan(ScanConfig(n=12, budget=1, out=str(tmp_path / "n12-budget1"))),
    }
    for patched in ("complement_search", "spectrum_search"):
        reports[patched] = flagging_scan(monkeypatch, patched, str(tmp_path / patched))
    cells = set()
    for name, report in reports.items():
        records = read_records(str(tmp_path / name))
        expected = recount(records)
        assert {key: getattr(report, key) for key in expected} == expected, name
        cells |= {(rec.has_spectrum, rec.tiles) for rec in records}
    # the budget-1 and flagging scans reach every cell but (inconclusive, yes)
    assert cells == {
        ("no", "no"), ("yes", "yes"), ("yes", "no"), ("no", "yes"), ("yes", "inconclusive"),
        ("inconclusive", "no"), ("no", "inconclusive"), ("inconclusive", "inconclusive"),
    }


def half_file(path: str) -> bytes:
    """Keep the first half of the lines of a record file; return the kept bytes."""
    lines = open(path, "rb").read().splitlines(keepends=True)
    data = b"".join(lines[: len(lines) // 2])
    with open(path, "wb") as fh:
        fh.write(data)
    return data


@pytest.mark.parametrize(
    "first, second",
    [
        ({"n": 12}, {"n": 8}),
        ({"n": 12}, {"budget": 1}),
        ({"n": 12}, {"budget": 9}),  # only tile node counts exceed 9
        ({"n": 12, "budget": 1}, {"budget": 2}),
        ({"n": 30, "mode": "sample", "sample_count": 50, "seed": 1}, {"seed": 2}),
        ({"n": 30, "mode": "sample", "sample_count": 50, "seed": 1}, {"sample_count": 20}),
    ],
    ids=["modulus", "budget-lowered", "budget-below-tile-nodes", "budget-raised", "seed",
         "sample-count"],
)
def test_resume_refuses_another_configs_file(tmp_path, first, second):
    out = str(tmp_path / "records.jsonl")
    config = ScanConfig(out=out, **first)
    fuglede_scan(config)
    data = half_file(out)
    with pytest.raises(ValueError, match="cannot resume"):
        fuglede_scan(replace(config, **second))
    assert open(out, "rb").read() == data


def test_resume_refuses_classes_out_of_sequence_order(tmp_path):
    out = str(tmp_path / "n12.jsonl")
    fuglede_scan(ScanConfig(n=12, out=out))
    lines = open(out, "rb").read().splitlines(keepends=True)[:60]
    lines[10], lines[11] = lines[11], lines[10]
    with open(out, "wb") as fh:
        fh.writelines(lines)
    with pytest.raises(ValueError, match="cannot resume"):
        fuglede_scan(ScanConfig(n=12, out=out))
    assert open(out, "rb").read().splitlines(keepends=True) == lines


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
    with pytest.raises(ValueError, match="budget must be >= 0"):
        fuglede_scan(ScanConfig(n=8, budget=-1))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            fuglede_scan(ScanConfig(n=8, workers=workers))
    # a pool needs no output file: the records come back to the parent
    assert fuglede_scan(ScanConfig(n=12, workers=2)) == fuglede_scan(ScanConfig(n=12))
    with pytest.raises(ValueError, match="ceiling"):
        fuglede_scan(ScanConfig(n=30))


def test_budget_exhaustion_reports_inconclusive():
    r = fuglede_scan(ScanConfig(n=8, budget=1))
    assert r.inconclusive_spectrum + r.inconclusive_tile > 0
    assert r.counterexamples == ()
