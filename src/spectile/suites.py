"""Named property-test suites runnable from the command line.

Each suite stress-tests one piece of the structure theory against an
independent route and reports counts plus any failures:

* coro32: grid divisor-class predicates against direct zero-set membership;
* lemma27: the residue-class vanishing criterion in Z[zeta_{p^n}] against
  generic reduction mod the cyclotomic polynomial;
* lemma28: digit-set rigidity, exhaustively over all hypothesis-satisfying
  sets for a given (p, n, t);
* lemma26: coprime-difference witness pairs, exhaustively over small
  generating sets;
* lemma33: the seven conditional grid identities on rejection-sampled sets
  whose hypothesis classes hold;
* lemma41: the zero-set transfer implication on spectral pairs (exhaustive
  at one modulus, sampled from explicit spectral families at another), with
  vacuous and non-vacuous instances counted separately;
* sec41: the profile-based tiling complement on spectral pairs meeting its
  preconditions, including the subgroup worked example.

Every suite is deterministic given (params, trials, seed).  A run that
checks no instance and records no failure verifies nothing, so run_suite
refuses it with ValueError rather than reporting a failed check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .cyclotomic import prime_power_vanishing, reduce_mod_cyclotomic
from .fastscan import modulus_tables, zero_class_matrix, zero_set_from_bits
from .groupring import GroupRingElement, Modulus, subset, zero_set
from .pnqr import (
    DivisorClass,
    HypothesisNotSatisfied,
    PnqrModulus,
    _REQUIRES,
    all_divisor_classes,
    class_zero_predicate,
    decompose,
    digit_set_check,
    digit_span,
    generating_pair,
    grid_implications,
    is_generating,
)
from .spectral import enumerate_spectra, is_spectral_pair
from .tiling import ConstructionError, complement_from_spectrum

__all__ = ["SuiteReport", "SUITE_NAMES", "run_suite", "lemma28_brute_instances"]

@dataclass(frozen=True)
class SuiteReport:
    suite: str
    params: tuple[tuple[str, int | str], ...]
    trials: int
    seed: int
    instances: int
    counters: tuple[tuple[str, int], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and self.instances > 0

    def counter(self, name: str) -> int:
        return dict(self.counters)[name]

    def lines(self) -> list[str]:
        head = " ".join(f"{k}={v}" for k, v in self.params)
        out = [f"suite {self.suite} {head} trials={self.trials} seed={self.seed}"]
        out.append(f"  instances checked: {self.instances}")
        for k, v in self.counters:
            out.append(f"  {k}: {v}")
        for f in self.failures:
            out.append(f"  FAIL {f}")
        out.append(f"  result: {'ok' if self.ok else 'FAILED'}")
        return out


def _random_subset(rng: random.Random, n: int, min_size: int = 1) -> GroupRingElement:
    size = rng.randint(min_size, n)
    return subset(n, rng.sample(range(n), size))


def _coset_union(rng: random.Random, n: int) -> GroupRingElement:
    """Union of random cosets of a random cyclic subgroup.

    Sets of this shape have rich zero sets, so the grid-identity hypotheses
    are hit at workable rates during rejection sampling.
    """
    divs = [d for d in Modulus(n).divisors() if 1 < d < n]
    d = rng.choice(divs)
    order = n // d
    n_cosets = rng.randint(1, max(1, d - 1))
    members: set[int] = set()
    for v in rng.sample(range(d), n_cosets):
        members.update((v + d * j) % n for j in range(order))
    return subset(n, members)


# -- coro32: grid predicates vs direct membership --------------------------


def _run_coro32(trials, seed, n):
    pm = PnqrModulus.from_int(n)
    classes = all_divisor_classes(pm)
    rng = random.Random(seed)
    instances = 0
    agree = 0
    failures = []
    for _ in range(trials):
        x = _random_subset(rng, n)
        zs = zero_set(x)
        grid = decompose(x, pm)
        for cls in classes:
            instances += 1
            via_grid = class_zero_predicate(grid, cls)
            direct = cls.divisor(pm) in zs.divisor_classes
            if via_grid == direct:
                agree += 1
            elif len(failures) < 10:
                failures.append(
                    f"set {x.support} class {cls.shape}@{cls.exponent}: "
                    f"grid={via_grid} direct={direct}"
                )
    return instances, (("agreements", agree),), failures


# -- lemma27: prime power vanishing criterion vs generic reduction ---------


def _run_lemma27(trials, seed, p, n):
    length = p**n
    rng = random.Random(seed)
    instances = 0
    agree = 0
    vanish = 0
    failures = []
    block = p ** (n - 1)
    for i in range(trials):
        c = [rng.randint(0, 9) for _ in range(length)]
        if i % 2:
            # fold to class-constant form so the vanishing branch is hit too
            for base in range(block):
                for t in range(1, p):
                    c[base + t * block] = c[base]
        instances += 1
        via_classes = prime_power_vanishing(c, p, n)
        via_reduction = all(v == 0 for v in reduce_mod_cyclotomic(c, length))
        vanish += via_reduction
        if via_classes == via_reduction:
            agree += 1
        elif len(failures) < 10:
            failures.append(
                f"vector {c}: classes={via_classes} reduction={via_reduction}"
            )
    return instances, (("agreements", agree), ("vanishing", vanish)), failures


# -- lemma28: digit set rigidity, exhaustive -------------------------------


def _run_lemma28(trials, seed, p, n, t):
    instances = 0
    counters = []
    failures = []
    for pos in itertools.combinations(range(n), t):
        span = digit_span(p, n, pos)
        accepted = 0
        # A set V with 0 in V and V-V inside the span lies inside the span
        # (take v = v - 0), and |V| = p^t = |span| forces V = span, so the
        # span is the only candidate satisfying all hypotheses at once.
        # lemma28_brute_instances reproduces this list by plain scan and the
        # test suite cross-checks the two.
        for v in (span,):
            verdict = digit_set_check(v, p, n, pos)
            if not verdict.applicable:
                continue
            accepted += 1
            instances += 1
            if not verdict.matches_standard and len(failures) < 10:
                failures.append(f"I={pos} V={sorted(v)}: conclusion fails")
        counters.append((f"accepted I={','.join(map(str, pos))}", accepted))
    counters.append(("positions", len(counters)))
    return instances, tuple(counters), failures


def lemma28_brute_instances(p: int, n: int, t: int):
    """All hypothesis-satisfying (I, V) by plain scan, for cross-checking."""
    pn = p**n
    size = p**t
    out = []
    for pos in itertools.combinations(range(n), t):
        span = digit_span(p, n, pos)
        for rest in itertools.combinations(range(1, pn), size - 1):
            v = (0,) + rest
            if any((a - b) % pn not in span for a in v for b in v):
                continue
            verdict = digit_set_check(v, p, n, pos)
            if verdict.applicable:
                out.append((pos, frozenset(v), verdict.matches_standard))
    return out


# -- lemma26: coprime difference pairs in generating sets ------------------


def _run_lemma26(trials, seed, n, size_cap):
    m = Modulus(n)
    primes = [p for p, _ in m.factorization]
    instances = 0
    generating = 0
    skipped = 0
    failures = []
    for extra in range(size_cap):
        for rest in itertools.combinations(range(1, n), extra):
            tset = subset(n, (0,) + rest)
            if not is_generating(tset, m):
                skipped += 1
                continue
            generating += 1
            for p, q in itertools.combinations(primes, 2):
                instances += 1
                try:
                    res = generating_pair(tset, p, q)
                except RuntimeError as exc:
                    if len(failures) < 10:
                        failures.append(f"T={tset.support} (p,q)=({p},{q}): {exc}")
                    continue
                t1, t2 = res.witness
                d = t2 - t1
                if not res.generates or d % p == 0 or d % q == 0:
                    if len(failures) < 10:
                        failures.append(
                            f"T={tset.support} (p,q)=({p},{q}): "
                            f"bad witness {res.witness}"
                        )
    counters = (("generating_sets", generating), ("non_generating_skipped", skipped))
    return instances, counters, failures


# -- lemma33: conditional grid identities ----------------------------------


def _run_lemma33(trials, seed, n):
    pm = PnqrModulus.from_int(n)
    rng = random.Random(seed)
    target = max(1, trials)
    accepted = {cid: 0 for cid in _REQUIRES}
    instances = 0
    failures = []
    attempts = 0
    cap = 2000 * target
    while min(accepted.values()) < target and attempts < cap:
        attempts += 1
        x = _coset_union(rng, n)
        zs = zero_set(x)
        grid = None
        for cid, needs in _REQUIRES.items():
            if accepted[cid] >= target:
                continue
            top = pm.n if "pqr" in needs else pm.n + 1
            for i in range(top):
                wanted = [DivisorClass(shape, i).divisor(pm) for shape in needs]
                if not all(d in zs.divisor_classes for d in wanted):
                    continue
                if grid is None:
                    grid = decompose(x, pm)
                try:
                    report = grid_implications(grid, i, needs)
                except HypothesisNotSatisfied as exc:
                    if len(failures) < 10:
                        failures.append(
                            f"case {cid} i={i} set {x.support}: predicate "
                            f"disagrees with membership ({exc})"
                        )
                    continue
                accepted[cid] += 1
                instances += 1
                for check in report.checks:
                    if not check.holds and len(failures) < 10:
                        failures.append(
                            f"case {check.conclusion} i={i} set {x.support}: "
                            f"conclusion fails at {check.witness}"
                        )
    for cid, count in sorted(accepted.items()):
        if count < target:
            failures.append(
                f"case {cid}: only {count}/{target} hypothesis-satisfying "
                f"instances found in {attempts} attempts"
            )
    counters = tuple(
        (f"case_{cid}_accepted", c) for cid, c in sorted(accepted.items())
    )
    return instances, counters + (("attempts", attempts),), failures


# -- spectral pair generators ----------------------------------------------


def _graph_set(pm: PnqrModulus, values) -> GroupRingElement:
    """The graph of x -> values[x] from Z_qr into Z_{p^n}, inside Z_N.

    Differences of two graph points are nonzero mod qr, so for any g in the
    index-qr subgroup the character sums a full cycle of qr-th roots of
    unity and vanishes: the subgroup is always a spectrum for the graph.
    """
    n = pm.modulus.n
    members = [
        ((pm.gen_q + pm.gen_r) * x + pm.gen_p * values[x]) % n
        for x in range(pm.q * pm.r)
    ]
    return subset(n, members)


def _subgroup(pm: PnqrModulus) -> GroupRingElement:
    n = pm.modulus.n
    return subset(n, range(0, n, pm.p**pm.n))


def _random_graph(pm: PnqrModulus, rng: random.Random) -> GroupRingElement:
    pn = pm.p**pm.n
    values = [rng.randrange(pn) for _ in range(pm.q * pm.r)]
    return _graph_set(pm, values)


def _spectral_pair_sample(pm: PnqrModulus, rng: random.Random):
    """One random spectral pair (A, B) drawn from the explicit families.

    Families: graph against the index-qr subgroup (either orientation) and,
    when 4 divides N, the doubled graph A + (A + N/4) against the doubled
    subgroup B + (B + N/2), either orientation.  Membership in a family
    guarantees spectrality; callers re-verify each pair anyway.
    """
    n = pm.modulus.n
    sub = _subgroup(pm)
    graph = _random_graph(pm, rng)
    kind = rng.randrange(4) if n % 4 == 0 else rng.randrange(2)
    if kind == 0:
        return graph, sub, kind
    if kind == 1:
        return sub, graph, kind
    doubled_a = graph + graph.translate(n // 4)
    doubled_b = sub + sub.translate(n // 2)
    if kind == 2:
        return doubled_a, doubled_b, kind
    return doubled_b, doubled_a, kind


# -- lemma41: zero set transfer on spectral pairs --------------------------


def _transfer_classes(pm: PnqrModulus):
    hyp = (pm.q, pm.r)
    anti = pm.q * pm.r
    concl = (pm.p**pm.n * pm.q, pm.p**pm.n * pm.r)
    return hyp, anti, concl


def _hypothesis_holds(a_zs, pm) -> bool:
    hyp, anti, _ = _transfer_classes(pm)
    dc = a_zs.divisor_classes
    return all(h in dc for h in hyp) and anti not in dc


def _conclusion_holds(b_zs, pm) -> bool:
    _, _, concl = _transfer_classes(pm)
    return all(c in b_zs.divisor_classes for c in concl)


def _run_lemma41(trials, seed, n, mode, size_cap):
    pm = PnqrModulus.from_int(n)
    mode = mode or ("exhaustive" if n == 30 else "sample")
    if mode == "exhaustive":
        return _lemma41_exhaustive(pm, size_cap)
    if mode != "sample":
        raise ValueError(f"lemma41 mode must be exhaustive or sample, got {mode!r}")
    return _lemma41_sampled(pm, trials, seed)


def _lemma41_exhaustive(pm: PnqrModulus, size_cap: int):
    """Every spectral pair (A, B) with |A| <= size_cap, up to translation.

    Translating either set changes no zero set and maps spectra to spectra,
    so A and B are both normalized to contain 0; each counted pair stands
    for the N^2 translate pairs with identical verdicts.  Zero sets for the
    candidate A are computed in bulk with the vectorized tables.
    """
    n = pm.modulus.n
    t = modulus_tables(n)
    div_index = {e: j for j, e in enumerate(t.divisors)}
    hyp, anti, concl = _transfer_classes(pm)
    jq, jr, jqr = div_index[hyp[0]], div_index[hyp[1]], div_index[anti]
    vacuous = 0
    nonvacuous = 0
    spectral_sets = 0
    failures = []
    for size in range(1, size_cap + 1):
        masks = np.fromiter(
            (
                np.uint64(sum(1 << g for g in rest) | 1)
                for rest in itertools.combinations(range(1, n), size - 1)
            ),
            dtype=np.uint64,
        )
        zbits, zsize = zero_class_matrix(masks, t)
        viable = zsize >= size - 1
        hyp_bits = zbits[jq] & zbits[jr] & ~zbits[jqr]
        for i in np.nonzero(viable)[0]:
            mask = int(masks[i])
            a = subset(n, [g for g in range(n) if (mask >> g) & 1])
            a_zs = zero_set_from_bits(zbits[:, i], t)
            hypothesis = bool(hyp_bits[i])
            found = False
            for b in enumerate_spectra(a, zeros=a_zs):
                found = True
                if not hypothesis:
                    vacuous += 1
                    continue
                nonvacuous += 1
                if not _conclusion_holds(zero_set(b), pm) and len(failures) < 10:
                    failures.append(
                        f"A={a.support} B={b.support}: {concl} not in Z_B"
                    )
            spectral_sets += found
    counters = (
        ("spectral_sets", spectral_sets),
        ("vacuous_pairs", vacuous),
        ("nonvacuous_pairs", nonvacuous),
    )
    return vacuous + nonvacuous, counters, failures


def _lemma41_sampled(pm: PnqrModulus, trials, seed):
    rng = random.Random(seed)
    vacuous = 0
    nonvacuous = 0
    by_kind = [0, 0, 0, 0]
    failures = []
    for _ in range(max(1, trials)):
        a, b, kind = _spectral_pair_sample(pm, rng)
        if not is_spectral_pair(a, b).is_pair:
            if len(failures) < 10:
                failures.append(f"family {kind} produced a non-pair A={a.support}")
            continue
        by_kind[kind] += 1
        if not _hypothesis_holds(zero_set(a), pm):
            vacuous += 1
            continue
        nonvacuous += 1
        if not _conclusion_holds(zero_set(b), pm) and len(failures) < 10:
            failures.append(f"A={a.support} B={b.support}: conclusion fails")
    counters = (
        ("vacuous_pairs", vacuous),
        ("nonvacuous_pairs", nonvacuous),
        ("family_graph_subgroup", by_kind[0]),
        ("family_subgroup_graph", by_kind[1]),
        ("family_doubled_graph", by_kind[2]),
        ("family_doubled_subgroup", by_kind[3]),
    )
    return vacuous + nonvacuous, counters, failures


# -- sec41: profile complement construction --------------------------------


def _run_sec41(trials, seed, n):
    pm = PnqrModulus.from_int(n)
    rng = random.Random(seed)
    failures = []
    instances = 0
    applicable = 0

    sub = _subgroup(pm)
    out = complement_from_spectrum(sub, sub, pm)
    instances += 1
    expected = tuple(range(0, n, pm.q * pm.r))
    if not out.applicable or out.tile.support != expected:
        failures.append(
            f"worked example: expected tile {expected}, got "
            f"{out.tile.support if out.tile else out.reason}"
        )
    else:
        applicable += 1

    for _ in range(max(0, trials - 1)):
        graph = _random_graph(pm, rng)
        if rng.randrange(2) or n % 4:
            a, b = graph, sub
        else:
            a = graph + graph.translate(n // 4)
            b = sub + sub.translate(n // 2)
        instances += 1
        if not is_spectral_pair(a, b).is_pair:
            if len(failures) < 10:
                failures.append(f"family produced a non-pair A={a.support}")
            continue
        try:
            out = complement_from_spectrum(a, b, pm)
        except ConstructionError as exc:
            if len(failures) < 10:
                failures.append(f"A={a.support}: construction failed: {exc}")
            continue
        if not out.applicable:
            if len(failures) < 10:
                failures.append(
                    f"A={a.support}: unexpectedly inapplicable: {out.reason}"
                )
            continue
        applicable += 1
    return instances, (("applicable", applicable),), failures


# -- dispatch --------------------------------------------------------------

# suite -> (runner, default of each parameter it takes); a given parameter
# must have its default's type.  lemma41's empty mode means exhaustive at
# n = 30 and sampled elsewhere.
_SUITES = {
    "coro32": (_run_coro32, {"n": 60}),
    "lemma33": (_run_lemma33, {"n": 60}),
    "lemma27": (_run_lemma27, {"p": 2, "n": 4}),
    "lemma28": (_run_lemma28, {"p": 2, "n": 3, "t": 2}),
    "lemma26": (_run_lemma26, {"n": 30, "size_cap": 4}),
    "lemma41": (_run_lemma41, {"n": 30, "mode": "", "size_cap": 6}),
    "sec41": (_run_sec41, {"n": 60}),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    suite: str, params: dict | None = None, trials: int = 100, seed: int = 0
) -> SuiteReport:
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    runner, defaults = _SUITES[suite]
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"suite {suite!r} does not take parameter(s) "
            f"{', '.join(sorted(unknown))}; allowed: {', '.join(sorted(defaults))}"
        )
    for key, value in params.items():
        if type(value) is not type(defaults[key]):
            raise ValueError(
                f"suite {suite!r} parameter {key} must be "
                f"{type(defaults[key]).__name__}, got {value!r}"
            )
    instances, counters, failures = runner(trials, seed, **{**defaults, **params})
    if not instances and not failures:
        raise ValueError(
            f"suite {suite!r} with {params or 'default parameters'} and "
            f"trials={trials} leaves no instance to check"
        )
    return SuiteReport(
        suite=suite,
        params=tuple(sorted(params.items())),
        trials=trials,
        seed=seed,
        instances=instances,
        counters=tuple(counters),
        failures=tuple(failures),
    )
