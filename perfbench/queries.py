"""Single-set requests: seeded inputs, the calls behind each CLI command.

The inputs are a pure function of the seed and are built before timing
starts; the program only sees set literals.  Each request mirrors one CLI
subcommand (zeros, spectrum, tile, t1t2) but calls the library directly, so
the argument parser and printing stay out of the measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MODULI = (36, 48, 60, 72, 84, 90, 96, 105, 120)
GRID_MODULI = (60, 84, 90, 105, 120)  # p^n * q * r: zeros also runs --grid
KINDS = ("zeros", "spectrum", "tile", "t1t2")
BUDGET = 10**5


@dataclass(frozen=True)
class Request:
    kind: str
    literal: str  # "N=<n>; S=<residues>", what the CLI would receive


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _random_set(rng: random.Random, n: int, i: int) -> list[int]:
    """A set containing 0; every other size divides n, so tile searches run.

    Sizes cycle with i rather than being drawn, which keeps the size mix, and
    with it the share of budget-exhausting searches, the same for every seed.
    """
    if i % 2:
        sizes = [d for d in _divisors(n) if 2 <= d <= n // 2]
    else:
        sizes = list(range(2, n))
    size = sizes[(i // 2) % len(sizes)]
    return [0] + rng.sample(range(1, n), size - 1)


def _coset_union(rng: random.Random, n: int, i: int) -> list[int]:
    """A union of cosets of a subgroup of order d > 1, one of them through 0."""
    orders = [d for d in _divisors(n) if 1 < d < n]
    d = orders[i % len(orders)]
    step = n // d
    k = rng.randint(1, step - 1) if step > 2 else 1
    cosets = [0] + rng.sample(range(1, step), k - 1)
    return [c + j * step for c in cosets for j in range(d)]


def make_requests(seed: int, per_cell: int) -> list[Request]:
    """per_cell rounds of requests; each round asks every (modulus, kind) once.

    Rounds are shuffled inside, not across, so every prefix of the list has
    the same mix of moduli, kinds, set sizes and coset unions: a run that gets
    through fewer requests on a slower host sees the same mix as a faster one,
    and two seeds differ only in which sets are drawn.  Three rounds in every
    ten use coset unions.
    """
    rng = random.Random(seed)
    out = []
    cosets = randoms = 0
    for i in range(per_cell):
        coset = i % 10 in (3, 6, 9)
        batch = []
        for n in MODULI:
            for kind in KINDS:
                if coset:
                    members = _coset_union(rng, n, cosets)
                else:
                    members = _random_set(rng, n, randoms)
                body = ",".join(map(str, sorted(members)))
                batch.append(Request(kind, f"N={n}; S={body}"))
        rng.shuffle(batch)
        out += batch
        if coset:
            cosets += 1
        else:
            randoms += 1
    return out


def run_request(req: Request, lib) -> tuple:
    """One request, as the CLI subcommand would run it; returns its outputs.

    lib holds the spectile modules; names are looked up on them at call time
    so that traced wrappers take effect.
    """
    x = lib.groupring.parse_set_literal(req.literal)
    if req.kind == "zeros":
        zs = lib.groupring.zero_set(x)
        grid = None
        if x.n in GRID_MODULI:
            grid = lib.pnqr.decompose(x, lib.pnqr.PnqrModulus.from_int(x.n))
        return x, zs, grid
    if req.kind == "spectrum":
        return x, lib.spectral.spectrum_search(x, budget=BUDGET)
    if req.kind == "tile":
        return x, lib.tiling.complement_search(x, budget=BUDGET)
    data = lib.tiling.t1_t2_check(x)
    if not (data.t1_holds and data.t2_holds):
        return x, data, None
    b = lib.tiling.cm_spectrum(x)
    return x, data, lib.spectral.is_spectral_pair(x, b).is_pair


def summarize(req: Request, out: tuple) -> tuple:
    """The parts of an answer the checks need, as plain values.

    Runs after the request's timed interval and calls nothing traced.  Keeping
    only these keeps memory, and garbage-collector work, from growing with
    the number of requests a run gets through.
    """
    if req.kind == "zeros":
        _, zs, grid = out
        mass = None if grid is None else sum(
            sum(cell.coeffs) for row in grid.cells for cell in row
        )
        return zs.mask, tuple(sorted(zs.divisor_classes)), mass
    if req.kind in ("spectrum", "tile"):
        res = out[1]
        return res.status, None if res.witness is None else res.witness.support
    data, validates = out[1], out[2]
    return data.t1_holds, data.t2_holds, validates


_STATUS = {"found": "f", "none": "n", "exhausted": "x"}


def verdict(req: Request, summary: tuple) -> str:
    """Short, format-independent answer, as pinned in reference.json."""
    if req.kind == "zeros":
        return "z" + ".".join(map(str, summary[1]))
    if req.kind in ("spectrum", "tile"):
        return _STATUS[summary[0]]
    t1, t2, validates = summary
    return "t%d%d%s" % (t1, t2, "" if validates is None else int(validates))


def problems(req: Request, summary: tuple, reference: str | None, lib) -> list[str]:
    """Independent checks of one answer; empty when it is right."""
    x = lib.groupring.parse_set_literal(req.literal)
    got = verdict(req, summary)
    bad = []
    if reference is not None and got != reference and not (
        reference == "x" and got in ("f", "n")
    ):
        bad.append(f"verdict {got!r}, reference {reference!r}")
    if req.kind == "zeros":
        zmask, classes, mass = summary
        if x.n <= 60:
            bad += _zero_set_vs_batch(x, zmask, classes, lib)
        if mass is not None and mass != len(x.support):
            bad.append(f"grid holds {mass} elements, set has {len(x.support)}")
    elif req.kind in ("spectrum", "tile") and summary[0] == "found":
        witness = lib.groupring.subset(x.n, summary[1])
        if req.kind == "spectrum":
            ok = lib.spectral.is_spectral_pair(x, witness).is_pair
        else:
            ok = lib.tiling.is_tiling_pair(x, witness).is_pair
        if not ok:
            bad.append(f"{req.kind} witness does not verify")
    elif req.kind == "t1t2" and summary[2] is False:
        bad.append("standard spectrum does not verify")
    return [f"{req.kind} {req.literal}: {p}" for p in bad]


def _zero_set_vs_batch(x, zmask: int, classes: tuple, lib) -> list[str]:
    import numpy as np

    t = lib.fastscan.modulus_tables(x.n)
    zbits, _ = lib.fastscan.zero_class_matrix(np.array([x.mask], dtype=np.uint64), t)
    batch = lib.fastscan.zero_set_from_bits(zbits[:, 0], t)
    if batch.mask != zmask or tuple(sorted(batch.divisor_classes)) != classes:
        return ["zero set differs from fastscan.zero_class_matrix"]
    return []
