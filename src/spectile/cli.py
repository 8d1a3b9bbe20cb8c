"""Command line entry points.

Subcommands: zeros, spectrum, tile, verify-pair, t1t2, scan, lemmas, replay.
Exit codes: 0 success, 1 verification failure or counterexample flagged,
2 inconclusive under the node budget, 3 refused input.  Handlers raise on
input they refuse; main alone turns ValueError, OSError and VersionMismatch
into a one-line usage error, so only failed internal checks print tracebacks.
"""

from __future__ import annotations

import argparse
import sys

from .certificates import VersionMismatch, read_certificates, replay
from .groupring import GroupRingElement, format_set_literal, parse_set_literal, zero_set
from .pnqr import PnqrModulus, decompose
from .scan import ScanConfig, fuglede_scan
from .spectral import is_spectral_pair, spectrum_search
from .suites import SUITE_NAMES, run_suite
from .tiling import cm_spectrum, complement_search, is_tiling_pair, t1_t2_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_set(n: int | None, literal: str) -> GroupRingElement:
    """Build an element from --set text, honoring an optional --n flag.

    The literal may be the full ``N=<int>; S=...`` form or just the residue
    list, in which case --n supplies the modulus.
    """
    if "N=" in literal.replace(" ", ""):
        x = parse_set_literal(literal)
        if n is not None and x.n != n:
            raise ValueError(f"--n {n} disagrees with set literal modulus {x.n}")
        return x
    if n is None:
        raise ValueError("--n is required when --set gives residues only")
    return parse_set_literal(f"N={n}; S={literal}")


def _cmd_zeros(args):
    x = _resolve_set(args.n, args.set)
    zs = zero_set(x)
    print(format_set_literal(x))
    print(f"zero set: {','.join(map(str, sorted(zs.members)))}")
    print(f"divisor classes: {','.join(map(str, sorted(zs.divisor_classes)))}")
    if args.grid:
        print(decompose(x, PnqrModulus.from_int(x.n)).dump())
    return EXIT_OK


def _search_exit(res, label: str) -> int:
    if res.status == "found":
        print(f"{label}: {format_set_literal(res.witness)}")
        print(f"nodes: {res.nodes}")
        return EXIT_OK
    if res.status == "none":
        print(f"no {label}")
        print(f"nodes: {res.nodes}")
        return EXIT_FAIL
    print(f"inconclusive: budget exhausted after {res.nodes} nodes")
    return EXIT_INCONCLUSIVE


def _cmd_spectrum(args):
    a = _resolve_set(args.n, args.set)
    return _search_exit(spectrum_search(a, budget=args.budget), "spectrum")


def _cmd_tile(args):
    a = _resolve_set(args.n, args.set)
    return _search_exit(complement_search(a, budget=args.budget), "tiling complement")


def _cmd_verify_pair(args):
    if len(args.set) != 2:
        raise ValueError("verify-pair needs exactly two --set arguments")
    a = _resolve_set(args.n, args.set[0])
    b = _resolve_set(args.n, args.set[1])
    if args.mode == "spectral":
        verdict = is_spectral_pair(a, b)
        if verdict.is_pair:
            print("spectral pair: yes")
            return EXIT_OK
        if verdict.size_mismatch:
            print(f"spectral pair: no (|A|={len(a.support)} != |B|={len(b.support)})")
        else:
            print(f"spectral pair: no (difference {verdict.violation} not in Z_A)")
        return EXIT_FAIL
    verdict = is_tiling_pair(a, b)
    if verdict.is_pair:
        print("tiling pair: yes")
        return EXIT_OK
    kind, value = verdict.failure
    print(f"tiling pair: no ({kind}={value})")
    return EXIT_FAIL


def _cmd_t1t2(args):
    a = _resolve_set(args.n, args.set)
    data = t1_t2_check(a)
    print(f"S_A: {','.join(map(str, sorted(data.s_a))) or '-'}")
    print(f"T1: {'holds' if data.t1_holds else 'fails'}")
    print(f"T2: {'holds' if data.t2_holds else 'fails'}")
    if not (data.t1_holds and data.t2_holds):
        return EXIT_FAIL
    b = cm_spectrum(a)
    verdict = is_spectral_pair(a, b)
    print(f"spectrum: {format_set_literal(b)}")
    print(f"validates: {'yes' if verdict.is_pair else 'NO'}")
    return EXIT_OK if verdict.is_pair else EXIT_FAIL


def _cmd_scan(args):
    report = fuglede_scan(
        ScanConfig(
            n=args.n,
            mode=args.mode,
            sample_count=args.trials,
            seed=args.seed,
            budget=args.budget,
            out=args.out,
            workers=args.workers,
            class_ceiling=args.ceiling,
        )
    )
    print(f"scan N={report.n} mode={report.mode} classes={report.classes}")
    print(
        f"spectral={report.spectral} tiles={report.tiles} "
        f"both={report.both} neither={report.neither}"
    )
    print(f"spectral_only={report.spectral_only} tile_only={report.tile_only}")
    print(
        f"inconclusive_spectrum={report.inconclusive_spectrum} "
        f"inconclusive_tile={report.inconclusive_tile}"
    )
    print(f"counterexamples: {len(report.counterexamples)}")
    for item in report.counterexamples:
        print(f"  flagged: {item}")
    if report.counterexamples:
        return EXIT_FAIL
    if report.inconclusive_spectrum or report.inconclusive_tile:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_lemmas(args):
    params = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"suite parameters take the form key=value, got {item!r}")
        params[key] = int(value) if value.removeprefix("-").isdecimal() else value
    # trials=K and seed=K are accepted positionally as well as via flags
    trials = args.trials if args.trials is not None else params.pop("trials", 100)
    seed = args.seed if args.seed is not None else params.pop("seed", 0)
    if not isinstance(trials, int) or not isinstance(seed, int):
        raise ValueError("trials and seed must be integers")
    report = run_suite(args.suite, params, trials=trials, seed=seed)
    print("\n".join(report.lines()))
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_replay(args):
    certs = read_certificates(args.file)
    bad = 0
    for i, cert in enumerate(certs):
        if not replay(cert):
            bad += 1
            print(f"certificate {i} (N={cert.n} {cert.kind}): verdict NOT reproduced")
    print(f"replayed {len(certs)} certificates, {bad} mismatches")
    return EXIT_FAIL if bad else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="spectile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, parser=p)  # usage errors print this subcommand's usage
        return p

    p = add("zeros", _cmd_zeros, help="zero set of a set or multiset")
    p.add_argument("--n", type=int, help="group order")
    p.add_argument("--set", required=True, help="set literal or residue list")
    p.add_argument("--grid", action="store_true", help="also dump the q x r grid")

    p = add("spectrum", _cmd_spectrum, help="search for a spectrum")
    p.add_argument("--n", type=int)
    p.add_argument("--set", required=True)
    p.add_argument("--budget", type=int, default=None, help="search node budget")

    p = add("tile", _cmd_tile, help="search for a tiling complement")
    p.add_argument("--n", type=int)
    p.add_argument("--set", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("verify-pair", _cmd_verify_pair, help="verify a spectral or tiling pair")
    p.add_argument("--n", type=int)
    p.add_argument("--set", action="append", default=[], help="give twice: A then B")
    p.add_argument("--mode", choices=("spectral", "tiling"), required=True)

    p = add("t1t2", _cmd_t1t2, help="T1/T2 conditions and the induced spectrum")
    p.add_argument("--n", type=int)
    p.add_argument("--set", required=True)

    p = add("scan", _cmd_scan, help="scan all classes of one modulus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default=ScanConfig.mode)
    p.add_argument("--trials", type=int, default=ScanConfig.sample_count, help="classes to sample")
    p.add_argument("--seed", type=int, default=ScanConfig.seed)
    p.add_argument("--budget", type=int, default=ScanConfig.budget)
    p.add_argument("--out", default=ScanConfig.out, help="record file (JSON lines)")
    p.add_argument("--workers", type=int, default=ScanConfig.workers)
    p.add_argument("--ceiling", type=int, default=ScanConfig.class_ceiling,
                   help="exhaustive class cap")

    p = add("lemmas", _cmd_lemmas, help="run a named property-test suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("params", nargs="*", help="suite parameters as key=value")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add("replay", _cmd_replay, help="re-verify a certificate file")
    p.add_argument("file", help="certificate file, one JSON object per line")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the one place a refusal becomes exit 3; internal-consistency failures
    # (AssertionError, ConstructionError, ArithmeticError) stay tracebacks
    try:
        return args.func(args)
    except (ValueError, OSError, VersionMismatch) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
