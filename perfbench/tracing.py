"""Spans around calls into spectile's layers, recorded from outside the program.

Each layer is a public callable named by the module that defines it.  The
tracer wraps it at every attribute of a loaded ``spectile`` module that holds
the same object, because callers look names up in their own module: the scans
call ``spectile.fastscan.complement_search``, the CLI
``spectile.tiling.complement_search``, and both are the tiling layer.  A layer
whose name no longer exists is reported as missing instead of failing, so a
refactor that removes a function does not break the trace.

Spans live in memory as (layer, start, end, parent, op) columns of flat arrays,
which the garbage collector never scans, and are written out when the run
ends.  A layer's self time is its spans' duration minus the
time covered by their direct children.

Scan workers are forked from the traced parent and inherit the wrappers.  The
worker entry point is wrapped too: in a worker process it starts an empty span
list, and after each chunk it writes that process's per-layer totals to a file
that the parent merges.  Workers started with ``spawn`` would not inherit the
wrappers; their layers then read 0 and ``trace.worker_chunks`` shows it.
"""

from __future__ import annotations

import importlib
import json
from array import array
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _batch_len(args, kwargs, result) -> dict:
    return {"masks": len(args[0])}


def _filter_counts(args, kwargs, result) -> dict:
    return {"masks_in": len(args[0]), "kept": int(result.sum())}


def _search_counts(args, kwargs, result) -> dict:
    return {
        "nodes": result.nodes,
        "found": int(result.status == "found"),
        "exhausted": int(result.status == "exhausted"),
    }


@dataclass(frozen=True)
class Layer:
    name: str  # <module>.<function>, the metric prefix
    module: str  # defining module
    attr: str  # attribute path inside it, "Class.method" for methods
    measures: tuple[str, ...] = ("calls", "self_s")  # reported per-layer metrics
    counts: Callable | None = None  # (args, kwargs, result) -> {measure: amount}


_SEARCH = ("calls", "nodes", "found", "exhausted", "self_s")
LAYERS = (
    Layer("fastscan.canonical_filter", "spectile.fastscan", "canonical_filter",
          ("calls", "masks_in", "kept", "keep_ratio", "self_s"), _filter_counts),
    Layer("fastscan.canonicalize_batch", "spectile.fastscan", "canonicalize_batch",
          ("masks", "self_s"), _batch_len),
    Layer("fastscan.zero_class_matrix", "spectile.fastscan", "zero_class_matrix",
          ("masks", "self_s"), _batch_len),
    Layer("fastscan.batch_verdicts", "spectile.fastscan", "batch_verdicts", ("self_s",)),
    Layer("spectral.spectrum_search", "spectile.spectral", "spectrum_search",
          _SEARCH, _search_counts),
    Layer("tiling.complement_search", "spectile.tiling", "complement_search",
          _SEARCH, _search_counts),
    Layer("tiling.t1_t2_check", "spectile.tiling", "t1_t2_check"),
    Layer("tiling.cm_spectrum", "spectile.tiling", "cm_spectrum"),
    Layer("groupring.parse_set_literal", "spectile.groupring", "parse_set_literal"),
    Layer("groupring.zero_set", "spectile.groupring", "zero_set"),
    Layer("cyclotomic.reduce_mod_cyclotomic", "spectile.cyclotomic",
          "reduce_mod_cyclotomic"),
    Layer("pnqr.decompose", "spectile.pnqr", "decompose"),
    Layer("scan.fuglede_scan", "spectile.scan", "fuglede_scan", ("self_s",)),
    Layer("scan.ScanRecord.to_json", "spectile.scan", "ScanRecord.to_json"),
    Layer("scan.ScanRecord.from_payload", "spectile.scan", "ScanRecord.from_payload"),
    Layer("certificates.candidate_certificate", "spectile.certificates",
          "candidate_certificate", ("calls",)),
)
# reported through run.py's scan.* metrics, not per measure
POOL = Layer("scan.pool_wait", "spectile.scan", "ProcessPoolExecutor", ())
WORKER = Layer("scan.chunk_worker", "spectile.scan", "_chunk_worker", ())
ALL_LAYERS = LAYERS + (POOL, WORKER)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.total_s += other.total_s
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


class Tracer:
    """Installs span-recording wrappers; uninstall restores every attribute."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.owner_pid = os.getpid()
        self._reset_spans()
        self.op = 0
        self.counts: list[dict] = [dict() for _ in ALL_LAYERS]
        self.missing: list[str] = []
        self._patches: list[tuple] = []  # (owner, attr, original raw value)
        self._spill_seq = 0

    # -- recording ---------------------------------------------------------

    def _reset_spans(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("i")
        self.stack: list[int] = []

    def _enter(self, idx: int) -> int:
        pos = len(self.layer)
        self.layer.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.end.append(0.0)
        self.stack.append(pos)
        self.start.append(time.perf_counter())
        return pos

    def _exit(self, pos: int) -> None:
        self.end[pos] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, idx: int, func: Callable) -> Callable:
        layer = ALL_LAYERS[idx]
        counts = self.counts[idx]
        count_fn = layer.counts

        def traced(*args, **kwargs):
            pos = self._enter(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(pos)
            if count_fn is not None:
                for k, v in count_fn(args, kwargs, result).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        traced.__name__ = getattr(func, "__name__", layer.attr)
        traced.__qualname__ = getattr(func, "__qualname__", layer.attr)
        traced.__module__ = getattr(func, "__module__", layer.module)
        traced.__wrapped__ = func
        return traced

    def _wrap_worker(self, idx: int, func: Callable) -> Callable:
        tracer = self
        inner = self._wrap(idx, func)

        def traced(*args, **kwargs):
            in_worker = os.getpid() != tracer.owner_pid
            if in_worker:
                tracer._reset()
            result = inner(*args, **kwargs)
            if in_worker:
                if isinstance(result, str) and os.path.exists(result):
                    c = tracer.counts[idx]
                    c["part_bytes"] = c.get("part_bytes", 0) + os.path.getsize(result)
                tracer._spill()
            return result

        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__module__ = func.__module__
        traced.__wrapped__ = func
        return traced

    def _timed_pool(self, idx: int, base: type) -> type:
        tracer = self

        class TimedPool(base):
            def __enter__(self):
                self._span = tracer._enter(idx)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._exit(self._span)

        TimedPool.__name__ = base.__name__
        TimedPool.__qualname__ = base.__qualname__
        return TimedPool

    def _reset(self) -> None:
        # wrappers hold the count dicts, so clear them in place
        self._reset_spans()
        for c in self.counts:
            c.clear()

    def _spill(self) -> None:
        """Write this worker's per-layer totals so the parent can merge them."""
        totals = self.totals()
        path = os.path.join(
            self.spill_dir, f"worker-{os.getpid()}-{self._spill_seq}.json"
        )
        self._spill_seq += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({k: vars(v) for k, v in totals.items()}, fh)
        self._reset()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for idx, layer in enumerate(ALL_LAYERS):
            try:
                mod = importlib.import_module(layer.module)
            except ImportError:
                self.missing.append(layer.name)
                continue
            owner, name = mod, layer.attr
            if "." in name:
                cls_name, name = name.split(".", 1)
                owner = getattr(mod, cls_name, None)
            if owner is None or name not in vars(owner):
                self.missing.append(layer.name)
                continue
            raw = vars(owner)[name]
            if layer is POOL:
                self._patch_everywhere(raw, self._timed_pool(idx, raw))
            elif isinstance(raw, classmethod):
                self._patch(owner, name, classmethod(self._wrap(idx, raw.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, name, self._wrap(idx, raw))
            elif layer is WORKER:
                self._patch_everywhere(raw, self._wrap_worker(idx, raw))
            else:
                self._patch_everywhere(raw, self._wrap(idx, raw))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_everywhere(self, original, value) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spectile" or mod_name.startswith("spectile.")):
                continue
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self._patch(mod, name, value)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches = []

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, LayerTotals]:
        """Per-layer calls, self time, total time and counts from the spans."""
        spans = list(zip(self.layer, self.start, self.end, self.parent))
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer.name: LayerTotals() for layer in ALL_LAYERS}
        for pos, (idx, start, end, _) in enumerate(spans):
            t = out[ALL_LAYERS[idx].name]
            t.calls += 1
            t.total_s += end - start
            t.self_s += end - start - child_time[pos]
        for idx, layer in enumerate(ALL_LAYERS):
            out[layer.name].counts.update(self.counts[idx])
        return out

    def merged_totals(self) -> tuple[dict[str, LayerTotals], int]:
        """Parent totals plus every worker spill file; also the spill count."""
        out = self.totals()
        spills = sorted(
            f for f in os.listdir(self.spill_dir) if f.startswith("worker-")
        )
        for fname in spills:
            with open(os.path.join(self.spill_dir, fname), encoding="utf-8") as fh:
                for name, data in json.load(fh).items():
                    out[name].add(LayerTotals(**data))
        return out, len(spills)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer,start,end,parent,op\n")
            for idx, start, end, parent, op in zip(
                self.layer, self.start, self.end, self.parent, self.span_op
            ):
                fh.write(f"{ALL_LAYERS[idx].name},{start:.9f},{end:.9f},{parent},{op}\n")
