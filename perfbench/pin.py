"""Rewrite reference.json from the current program, for the default seed.

    python3 perfbench/pin.py

The pins are verdicts: the digest of each scan's (key, has_spectrum, tiles)
triples, its class count, and every query's short answer.  Regenerate them
only from a commit whose verdicts are trusted.
"""

from __future__ import annotations

import json
import os
import sys

from run import DEFAULT_SEED, HERE, SMOKE_WORKLOADS, WORK, WORKLOADS, load_lib, pin_key


def main() -> int:
    from queries import make_requests, run_request, summarize, verdict
    from scans import exhaustive_op, read_summary, sample_op

    lib = load_lib()
    WORK.mkdir(exist_ok=True)
    pins = {}
    for w in list(WORKLOADS.values()) + list(SMOKE_WORKLOADS):
        key = pin_key(w, DEFAULT_SEED)
        if w.kind == "queries":
            reqs = make_requests(DEFAULT_SEED, w.count)
            pins[key] = " ".join(verdict(r, summarize(r, run_request(r, lib))) for r in reqs)
            continue
        if w.kind == "exhaustive":
            op = exhaustive_op(lib, str(WORK), w.n, 0)
        else:
            op = sample_op(lib, str(WORK), w.n, w.count, DEFAULT_SEED, w.workers, 0)
            os.remove(op.resumed_path)
        pins[key] = {"classes": op.report.classes, "digest": read_summary(op.path)[0]}
        os.remove(op.path)
        print(key, pins[key], file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
