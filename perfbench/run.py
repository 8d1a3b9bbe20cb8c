"""spectile benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload exhaustive-z27 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from src/ beside this directory; scratch files go
to .perfbench/ at the repository root.  The last line of output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is repeated with
spans around every layer and the metrics are per-layer counts and self
times (see tracing.py), plus the tracing overhead.

Every workload is a closed loop with one client.  An operation is one user
request: a whole scan (for sample-z30, a scan and the resume of a copy of its
record file cut at a seeded offset) or one single-set query.  Correctness
checks run after the timed region; an operation that fails a check, or
raises, counts as failed and the benchmark carries on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_PROBES = 5
IMPORT_PROBES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # exhaustive | sample | queries
    n: int = 0  # scan modulus
    count: int = 0  # sampled classes, or queries per (modulus, kind) cell
    workers: int = 1
    probe: str = "spectile.scan"  # what a fresh interpreter imports before work


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exhaustive-z27", "exhaustive", n=27),
        Workload("sample-z30", "sample", n=30, count=200_000, workers=2),
        Workload("queries", "queries", count=700, probe="spectile"),
    )
}
SMOKE_WORKLOADS = (
    replace(WORKLOADS["exhaustive-z27"], n=12),
    replace(WORKLOADS["sample-z30"], count=300),
    replace(WORKLOADS["queries"], count=3),
)


@dataclass
class Run:
    """The timed part of a run: per-operation latencies and outputs."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    classes: int = 0  # sets decided, for classes_per_s
    class_s: float = 0.0  # time spent deciding them
    outputs: list = field(default_factory=list)  # per op: output or exception


def load_lib() -> types.SimpleNamespace:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spectile.certificates
    import spectile.cyclotomic
    import spectile.fastscan
    import spectile.groupring
    import spectile.pnqr
    import spectile.scan
    import spectile.spectral
    import spectile.tiling

    s = spectile
    return types.SimpleNamespace(
        scan=s.scan, fastscan=s.fastscan, groupring=s.groupring, pnqr=s.pnqr,
        spectral=s.spectral, tiling=s.tiling, cyclotomic=s.cyclotomic,
        certificates=s.certificates,
    )


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def pin_key(w: Workload, seed: int) -> str:
    if w.kind == "exhaustive":
        return f"exhaustive:{w.n}"
    if w.kind == "sample":
        return f"sample:{w.n}:{w.count}:{seed}"
    return f"queries:{w.count}:{seed}"


# -- timed operations --------------------------------------------------------


def run_ops(w: Workload, lib, seed: int, seconds: float, requests=None,
            ops: int | None = None, tracer=None) -> Run:
    """Operations until `seconds` would be exceeded, or exactly `ops` of them."""
    from queries import run_request, summarize
    from scans import exhaustive_op, sample_op

    run = Run()
    start = time.perf_counter()
    i = 0
    while ops is None or i < ops:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            if w.kind == "queries":
                out = run_request(requests[i % len(requests)], lib)
            elif w.kind == "exhaustive":
                out = exhaustive_op(lib, str(WORK), w.n, i)
            else:
                out = sample_op(lib, str(WORK), w.n, w.count, seed, w.workers, i)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        dt = time.perf_counter() - t0
        if w.kind == "queries" and not isinstance(out, Exception):
            out = summarize(requests[i % len(requests)], out)
        run.outputs.append(out)
        i += 1
        if w.kind == "queries":
            run.latencies.append(dt)
            run.classes += 1
            run.class_s += dt
        elif not isinstance(out, Exception):
            run.latencies.append(out.latency_s)
            run.classes += out.report.classes
            run.class_s += out.scan_s
        elapsed = time.perf_counter() - start
        if ops is None:
            # scans stop before an operation that would overrun; queries at time
            last = 0.0 if w.kind == "queries" else dt
            if elapsed + last >= seconds:
                break
    run.wall_s = time.perf_counter() - start
    return run


def check(w: Workload, lib, run: Run, seed: int, requests, reference) -> list[str]:
    """Problems per failed operation; empty for a fully correct run."""
    from queries import problems as query_problems
    from scans import check_resume, check_scan

    failed = []
    pins = load_reference()
    for i, out in enumerate(run.outputs):
        if isinstance(out, Exception):
            failed.append(f"op {i}: raised {out!r}")
            continue
        if w.kind == "queries":
            req = requests[i % len(requests)]
            ref = None if reference is None else reference[i % len(requests)]
            bad = query_problems(req, out, ref, lib)
        else:
            # exhaustive scans always have a pin; samples only for the default seed
            pin = pins.get(pin_key(w, seed))
            classes = pin["classes"] if w.kind == "exhaustive" else w.count
            digest = None if pin is None else pin["digest"]
            bad = check_scan(lib, out.report, out.path, classes, digest,
                             random.Random(seed * 1000 + i))
            if w.kind == "sample":
                bad += check_resume(out)
        if bad:
            failed.append(f"op {i}: " + "; ".join(bad[:5]))
    return failed


# -- set-up and import probes -------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def setup_probe(module: str) -> float:
    """Seconds from starting a fresh interpreter until `module` is imported.

    perf_counter is the system-wide monotonic clock, so the child's reading
    after its import compares directly with the parent's before the spawn.
    """
    code = f"import {module}, time; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode:
        raise RuntimeError(f"import {module} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def import_probe(module: str) -> tuple[float, float]:
    """(sympy, spectile) import seconds in a fresh interpreter, via -X importtime.

    spectile counts every top-level spectile import; sympy only as far as
    spectile pulls it in, so it reads 0 once the package stops importing it.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if proc.returncode:
        raise RuntimeError(f"import {module} failed:\n{proc.stderr}")
    sympy_us = spectile_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        indent = len(name) - len(name.lstrip())
        if name.strip() == "sympy" and not sympy_us:
            sympy_us = cumulative
        if indent == 1 and name.strip().split(".")[0] == "spectile":
            spectile_us += cumulative
    return sympy_us / 1e6, spectile_us / 1e6


def peak_rss_mb() -> float:
    """This process's peak plus the largest reaped child's (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


# -- metrics -------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(run: Run, setup_s: float, rss_mb: float) -> dict:
    lat = run.latencies or [float("nan")]
    return {
        "setup_s": (setup_s, "s"),
        "classes_per_s": (run.classes / run.class_s if run.class_s else 0.0, "1/s"),
        "request_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "request_p99_ms": (percentile(lat, 99) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(totals: dict, extra: dict) -> dict:
    """Every traced layer's measures; calls and self_s come from the spans."""
    from tracing import LAYERS

    out = {}
    for layer in LAYERS:
        t = totals[layer.name]
        for m in layer.measures:
            name = f"{layer.name}.{m}"
            if m == "calls":
                out[name] = (t.calls, "count")
            elif m == "self_s":
                out[name] = (t.self_s, "s")
            elif m == "keep_ratio":
                masks_in = t.counts.get("masks_in", 0)
                out[name] = (t.counts.get("kept", 0) / masks_in if masks_in else 0.0,
                             "ratio")
            else:
                out[name] = (t.counts.get(m, 0), "count")
    out.update(extra)
    return out


# -- one benchmark run ---------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES) -> dict:
    from queries import make_requests, verdict

    WORK.mkdir(exist_ok=True)
    lib = load_lib()
    requests = reference = None
    if w.kind == "queries":
        requests = make_requests(seed, w.count)
        pinned = load_reference().get(pin_key(w, seed))
        reference = None if pinned is None else pinned.split(" ")
    untraced = run_ops(w, lib, seed, seconds, requests)
    runs = [untraced]
    lines = [f"workload {w.name} seed {seed}: {len(untraced.outputs)} operations "
             f"in {untraced.wall_s:.2f} s"]

    if not trace:
        rss = peak_rss_mb()
        metrics = end_to_end(untraced, statistics.median(
            setup_probe(w.probe) for _ in range(probes)), rss)
    else:
        from tracing import Tracer

        spill = WORK / "spill"
        shutil.rmtree(spill, ignore_errors=True)
        spill.mkdir()
        tracer = Tracer(str(spill))
        tracer.install()
        children_before = children_cpu_s()
        try:
            traced = run_ops(w, lib, seed, seconds, requests,
                             ops=len(untraced.outputs), tracer=tracer)
        finally:
            tracer.uninstall()
        child_cpu = children_cpu_s() - children_before
        runs.append(traced)
        totals, chunks = tracer.merged_totals()
        tracer.write_spans(str(WORK / f"spans-{w.name}.csv"))
        written = sum(o.bytes_written for o in traced.outputs
                      if not isinstance(o, Exception) and w.kind != "queries")
        written += totals["scan.chunk_worker"].counts.get("part_bytes", 0)
        imports = [import_probe(w.probe) for _ in range(IMPORT_PROBES)]
        metrics = per_layer(totals, {
            "scan.bytes_written": (written, "bytes"),
            "scan.pool_wait_s": (totals["scan.pool_wait"].total_s, "s"),
            "scan.children_cpu_s": (child_cpu, "s"),
            "import.sympy_s": (statistics.median(i[0] for i in imports), "s"),
            "import.spectile_s": (statistics.median(i[1] for i in imports), "s"),
            "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
            "trace.missing_layers": (len(tracer.missing), "count"),
            "trace.worker_chunks": (chunks, "count"),
        })
        lines.append(f"traced rerun {traced.wall_s:.2f} s, overhead "
                     f"{traced.wall_s - untraced.wall_s:+.2f} s; spans in "
                     f"{(WORK / f'spans-{w.name}.csv').relative_to(ROOT)}")
        for name in tracer.missing:
            lines.append(f"layer {name}: missing")

    failures = []
    for run in runs:
        failures += check(w, lib, run, seed, requests, reference)
        lines += _summary(w, run, requests, verdict)
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for path in WORK.glob("*.jsonl"):
        path.unlink()
    attempted = sum(len(r.outputs) for r in runs)
    print("\n".join(lines))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _summary(w: Workload, run: Run, requests, verdict) -> list[str]:
    """Human-readable figures that are not metrics, for the log."""
    done = [o for o in run.outputs if not isinstance(o, Exception)]
    if w.kind == "queries":
        searches = [verdict(requests[i % len(requests)], o)
                    for i, o in enumerate(run.outputs) if not isinstance(o, Exception)
                    and requests[i % len(requests)].kind in ("spectrum", "tile")]
        exhausted = searches.count("x")
        share = exhausted / len(searches) if searches else 0.0
        return [f"  inconclusive_share {share:.4f} ({exhausted}/{len(searches)} searches "
                f"budget-exhausted)"]
    if not done:
        return []
    r = done[0].report
    scan_s = statistics.median(o.scan_s for o in done)
    line = (f"  classes {r.classes} spectral {r.spectral} tiles {r.tiles} both {r.both}; "
            f"median scan {scan_s:.2f} s")
    if w.kind == "sample":
        line += f", median resume {statistics.median(o.resume_s for o in done):.2f} s"
    return [line]


# -- self-test -------------------------------------------------------------------


def smoke() -> int:
    """Small versions of every workload, both modes, plus a tampered file.

    Checks that every metric named in BENCHMARK.json is emitted with its unit
    and that a record file with one flipped verdict fails its operation.
    """
    from scans import exhaustive_op

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for w in SMOKE_WORKLOADS:
        for trace in (False, True):
            result = measure(w, DEFAULT_SEED, 0.3, trace, probes=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                errors.append(f"{w.name} trace={trace}: metrics {sorted(got.items())} "
                              f"!= {sorted(expect[trace].items())}")
            if result["failed"] or not result["correct"]:
                errors.append(f"{w.name} trace={trace}: {result['failed']} failed")

    w = SMOKE_WORKLOADS[0]
    lib = load_lib()
    WORK.mkdir(exist_ok=True)
    op = exhaustive_op(lib, str(WORK), w.n, 0)
    if check(w, lib, Run(outputs=[op]), DEFAULT_SEED, None, None):
        errors.append("the untampered record file failed its checks")
    with open(op.path, encoding="utf-8") as fh:
        lines = fh.readlines()
    rec = json.loads(lines[len(lines) // 2])
    rec["tiles"] = "no" if rec["tiles"] == "yes" else "yes"
    lines[len(lines) // 2] = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
    tampered = replace(op, path=str(WORK / "tampered.jsonl"))
    with open(tampered.path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    if len(check(w, lib, Run(outputs=[tampered]), DEFAULT_SEED, None, None)) != 1:
        errors.append("a record file with a flipped verdict was not reported as failed")
    os.remove(op.path)
    os.remove(tampered.path)

    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "spectile" / "__init__.py").is_file():
        print(f"error: no spectile package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
