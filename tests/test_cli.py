"""Exit codes and output of every subcommand, driven in process."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile.certificates import pair_certificate, write_certificates
from spectile.cli import main
from spectile.groupring import subset


def run_cli(*argv):
    """main() plus the usage-error path, normalized to (exit_code)."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_zeros_basic(capsys):
    assert run_cli("zeros", "--n", "12", "--set", "0,6") == 0
    out = capsys.readouterr().out
    assert "N=12; S=0,6" in out
    assert "zero set: 1,3,5,7,9,11" in out
    assert "divisor classes: 1,3" in out


def test_zeros_full_literal_and_grid(capsys):
    assert run_cli("zeros", "--set", "N=60; S=0,4,15,30", "--grid") == 0
    out = capsys.readouterr().out
    assert "(0,0): 0,2,3" in out
    assert "(1,4): 0" in out


def test_zeros_multiset(capsys):
    assert run_cli("zeros", "--n", "6", "--set", "0:2,3:2") == 0
    out = capsys.readouterr().out
    assert "zero set: 1,3,5" in out
    # grid cells keep their multiplicities, as in the literal line
    assert run_cli("zeros", "--set", "N=30; S=0:2,1,7:-1", "--grid") == 0
    out = capsys.readouterr().out
    assert out.endswith("(0,0): 0:2\n(1,1): 1\n(1,2): 1:-1\n")


def test_zeros_grid_needs_three_primes():
    assert run_cli("zeros", "--n", "8", "--set", "0,4", "--grid") == 3


def test_set_literal_usage_errors(capsys):
    assert run_cli("zeros", "--set", "0,6") == 3  # residues without --n
    assert run_cli("zeros", "--n", "8", "--set", "N=12; S=0,6") == 3  # disagree
    assert run_cli("zeros", "--n", "12", "--set", "0,0,6") == 3  # duplicate
    assert run_cli("zeros", "--n", "12", "--set", "0,,6") == 3  # malformed
    # the empty set parses, but every character vanishes on it: no zero set
    for argv in (("--n", "30", "--set", ""), ("--set", "N=30; S=")):
        capsys.readouterr()
        assert run_cli("zeros", *argv) == 3
        assert "zero element has no zero set" in capsys.readouterr().err


def test_spectrum_exit_codes(capsys):
    assert run_cli("spectrum", "--n", "8", "--set", "0,1,2,3") == 0
    assert "spectrum: N=8; S=0,2,4,6" in capsys.readouterr().out
    assert run_cli("spectrum", "--n", "5", "--set", "0,1,2") == 1
    assert "no spectrum" in capsys.readouterr().out
    assert run_cli("spectrum", "--n", "8", "--set", "0,1,2,3", "--budget", "2") == 2
    assert "inconclusive" in capsys.readouterr().out


def test_tile_exit_codes(capsys):
    assert run_cli("tile", "--n", "9", "--set", "0,3,6") == 0
    assert "tiling complement: N=9; S=0,1,2" in capsys.readouterr().out
    assert run_cli("tile", "--n", "9", "--set", "0,1,3") == 1
    assert "no tiling complement" in capsys.readouterr().out


def test_tile_t1_rejection_exits_without_search():
    # |A| = 5 divides 120 but A fails T1, so no complement exists; the
    # exact-cover walk alone used to exhaust a 10^6 budget here (exit 2)
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "tile", "--n", "120",
         "--set", "0,28,32,50,116", "--budget", "1000000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "no tiling complement\nnodes: 0\n"
    assert "Traceback" not in proc.stderr


def test_tile_deep_cover_exits_without_traceback():
    # 1500 levels of exact cover: the walk used to overflow the call stack
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "tile", "--n", "1500", "--set", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("nodes: 1500\n")
    assert "Traceback" not in proc.stderr


@st.composite
def cli_argv(draw):
    """One zeros/spectrum/tile/t1t2/verify-pair call on a valid, multiset or
    garbage set literal, with --n drawn from 2..120 and --budget up to 10^4."""
    command = draw(st.sampled_from(["zeros", "spectrum", "tile", "t1t2", "verify-pair"]))
    n = draw(st.integers(2, 120))
    residues = st.integers(0, n - 1).map(str)
    literal = st.one_of(
        st.sets(residues, min_size=1, max_size=n).map(",".join),
        # multisets, including zero and negative multiplicities
        st.lists(
            st.tuples(residues, st.integers(-2, 3).map(str)).map(":".join),
            min_size=1,
            max_size=6,
        ).map(",".join),
        # full literals, whose modulus may disagree with --n
        st.tuples(st.integers(-1, 130), st.lists(residues, max_size=8)).map(
            lambda t: f"N={t[0]}; S={','.join(t[1])}"
        ),
        st.text(alphabet="0123456789,:;=NS -x", max_size=16),
    )
    argv = [command, "--n", str(n)]
    for lit in draw(st.lists(literal, min_size=1, max_size=2)):
        argv.append(f"--set={lit}")
    if command in ("spectrum", "tile"):
        argv += ["--budget", str(draw(st.integers(0, 10**4)))]
    if command == "verify-pair":
        argv += ["--mode", draw(st.sampled_from(["spectral", "tiling"]))]
    return argv


@settings(max_examples=300)
@given(cli_argv())
def test_cli_exit_codes_fuzz(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(*argv) in {0, 1, 2, 3}


def test_verify_pair(capsys):
    base = ("verify-pair", "--n", "4", "--set", "0,1")
    assert run_cli(*base, "--set", "0,2", "--mode", "spectral") == 0
    assert run_cli(*base, "--set", "0,2", "--mode", "tiling") == 0
    assert run_cli(*base, "--set", "0,1", "--mode", "spectral") == 1
    assert run_cli(*base, "--set", "0,3", "--mode", "tiling") == 1
    capsys.readouterr()
    assert run_cli(*base, "--mode", "spectral") == 3  # only one set
    assert run_cli(*base, "--set", "0,1", "--set", "0,2", "--mode", "spectral") == 3
    assert run_cli(*base, "--set", "0,2") == 3  # --mode required


def test_verify_pair_size_mismatch_message(capsys):
    code = run_cli(
        "verify-pair", "--n", "6", "--set", "0,1", "--set", "0,2,4",
        "--mode", "spectral",
    )
    assert code == 1
    assert "|A|=2" in capsys.readouterr().out


def test_t1t2(capsys):
    assert run_cli("t1t2", "--n", "8", "--set", "0,4") == 0
    out = capsys.readouterr().out
    assert "S_A: 8" in out
    assert "T1: holds" in out
    assert "validates: yes" in out
    assert run_cli("t1t2", "--n", "8", "--set", "0,1,2") == 1
    out = capsys.readouterr().out
    assert "T1: fails" in out


def test_scan_exhaustive(capsys, tmp_path):
    out = str(tmp_path / "n12.jsonl")
    assert run_cli("scan", "--n", "12", "--out", out) == 0
    text = capsys.readouterr().out
    assert "scan N=12 mode=exhaustive classes=155" in text
    assert "spectral=20 tiles=20 both=20 neither=135" in text
    assert "counterexamples: 0" in text
    assert len(open(out).read().splitlines()) == 155


def test_scan_sample_deterministic(capsys, tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    args = ("scan", "--n", "30", "--mode", "sample", "--trials", "120", "--seed", "5")
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_scan_usage_errors(capsys):
    assert run_cli("scan", "--n", "30", "--mode", "sample") == 3  # no trials
    assert run_cli("scan", "--n", "30") == 3  # over the class ceiling
    assert run_cli("scan", "--n", "99") == 3  # out of range
    err = capsys.readouterr().err
    assert "ceiling" in err


@pytest.mark.parametrize("trials, code", [("100", 3), ("21", 0)])
def test_scan_sample_count_above_class_count(trials, code):
    # Z_8 has 21 classes; asking for more used to sample forever.
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "scan", "--n", "8", "--mode", "sample",
         "--trials", trials],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 3:
        assert "exceeds the 21 classes" in proc.stderr


def test_scan_resume_under_another_budget_is_refused(capsys, tmp_path):
    out = tmp_path / "n12.jsonl"
    assert run_cli("scan", "--n", "12", "--out", str(out)) == 0
    half = b"".join(out.read_bytes().splitlines(keepends=True)[:77])
    out.write_bytes(half)
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "scan", "--n", "12", "--budget", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "cannot resume" in proc.stderr
    assert out.read_bytes() == half


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_scan_bad_out_path_is_usage_error(tmp_path, where):
    out = tmp_path / "no" / "such" / "f.jsonl" if where == "missing-dir" else tmp_path
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "scan", "--n", "8", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert str(out) in proc.stderr


def test_refused_scan_prints_scan_usage(capsys):
    assert run_cli("scan", "--n", "8", "--budget", "-1") == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: spectile scan")
    assert "budget must be >= 0" in err
    # the single-set searches refuse a negative budget the same way
    for command in ("spectrum", "tile"):
        assert run_cli(command, "--n", "8", "--set", "0,1", "--budget", "-1") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"usage: spectile {command}")
        assert err.count("error:") == 1 and "budget must be >= 0" in err
    assert run_cli("scan", "--n", "8", "--workers", "0") == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: spectile scan")
    assert err.count("error:") == 1 and "workers must be >= 1" in err


def test_scan_inconclusive_exit(capsys):
    assert run_cli("scan", "--n", "8", "--budget", "1") == 2


def test_lemmas(capsys):
    assert run_cli("lemmas", "coro32", "n=60", "--trials", "10") == 0
    out = capsys.readouterr().out
    assert "suite coro32 n=60 trials=10" in out
    assert "result: ok" in out
    assert run_cli("lemmas", "lemma28", "p=2", "n=3", "t=2", "--trials", "1") == 0
    capsys.readouterr()
    assert run_cli("lemmas", "nosuch") == 3
    assert run_cli("lemmas", "coro32", "loose-token") == 3
    assert run_cli("lemmas", "lemma41", "n=60", "mode=psychic") == 3


def test_lemmas_positional_trials_and_param_validation(capsys):
    assert run_cli("lemmas", "coro32", "n=60", "trials=5", "seed=3") == 0
    out = capsys.readouterr().out
    assert "suite coro32 n=60 trials=5 seed=3" in out
    assert run_cli("lemmas", "coro32", "trails=5") == 3
    assert run_cli("lemmas", "coro32", "trials=few") == 3
    # a parameter of another type than its default is refused, not a TypeError
    for suite, param in (
        ("lemma27", "p=x"),
        ("lemma28", "t=abc"),
        ("lemma26", "size_cap=x"),
        ("lemma41", "size_cap=x"),
    ):
        capsys.readouterr()
        assert run_cli("lemmas", suite, param) == 3
        assert "must be int" in capsys.readouterr().err
    # well-typed parameters that leave nothing to check are refused, not
    # reported as a failed verification
    for args in (
        ("lemma28", "t=5"),
        ("lemma26", "size_cap=-1"),
        ("coro32", "trials=-3"),
        ("lemma27", "trials=0"),
        ("lemma41", "size_cap=0"),
    ):
        assert run_cli("lemmas", *args) == 3
        captured = capsys.readouterr()
        assert "no instance to check" in captured.err
        assert "instances checked" not in captured.out


def test_replay_paths(capsys, tmp_path):
    good = str(tmp_path / "good.jsonl")
    certs = [
        pair_certificate("spectral_pair", subset(4, [0, 1]), subset(4, [0, 2])),
        pair_certificate("tiling_pair", subset(9, [0, 3, 6]), subset(9, [0, 1, 2])),
    ]
    write_certificates(good, certs)
    assert run_cli("replay", good) == 0
    assert "0 mismatches" in capsys.readouterr().out

    tampered = str(tmp_path / "tampered.jsonl")
    payloads = [json.loads(c.to_json()) for c in certs]
    payloads[0]["partner_set"] = [0, 1]
    with open(tampered, "w") as fh:
        for p in payloads:
            fh.write(json.dumps(p) + "\n")
    assert run_cli("replay", tampered) == 1
    assert "NOT reproduced" in capsys.readouterr().out

    malformed = str(tmp_path / "malformed.jsonl")
    bad = dict(payloads[1])
    bad["kind"] = "mystery"
    with open(malformed, "w") as fh:
        fh.write(json.dumps(bad) + "\n")
    assert run_cli("replay", malformed) == 3

    stale = str(tmp_path / "stale.jsonl")
    old = dict(payloads[1])
    old["tool_version"] = "0.0.0"
    with open(stale, "w") as fh:
        fh.write(json.dumps(old) + "\n")
    assert run_cli("replay", stale) == 3

    assert run_cli("replay", str(tmp_path / "missing.jsonl")) == 3

    # lines that parse but name no replayable claim are refused, not replayed
    for name, fields in {
        "no-checks": {"checks": {}},
        "residue-out-of-range": {"n": 8, "primary_set": [0, 99]},
        "modulus-one": {"n": 1},
        "empty-sets": {"primary_set": [], "partner_set": []},
    }.items():
        path = str(tmp_path / f"{name}.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({**payloads[1], **fields}) + "\n")
        capsys.readouterr()
        assert run_cli("replay", path) == 3
        assert "malformed certificate" in capsys.readouterr().err


def test_no_command_is_usage_error(capsys):
    assert run_cli() == 3
    assert run_cli("frobnicate") == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spectile", "zeros", "--n", "12", "--set", "0,6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "zero set: 1,3,5,7,9,11" in proc.stdout
